// Binds the deterministic simulator to the runtime interfaces.
//
// This is the ONLY place where sim::Simulation / net::Network meet the
// protocol stack: Simulation already implements runtime::Clock and
// runtime::Scheduler; SimEnv adds the Transport adapter over net::Network
// and hands out the Env aggregate that components are built on.
#pragma once

#include <optional>

#include "net/network.h"
#include "runtime/env.h"
#include "sim/simulation.h"

namespace triad::runtime {

/// Transport over the simulated UDP network. net::Packet (owning) is
/// exposed to handlers as runtime::Packet (borrowing view).
class SimTransport final : public Transport {
 public:
  explicit SimTransport(net::Network& network) : network_(network) {}

  void attach(NodeId addr, PacketHandler handler) override;
  void detach(NodeId addr) override { network_.detach(addr); }
  void send(NodeId src, NodeId dst, BytesView payload) override {
    network_.send(src, dst, payload);
  }

 private:
  net::Network& network_;
};

/// One simulated environment: Simulation for clock+scheduler+rng, and an
/// optional Network for transport. Components receive env() by value;
/// SimEnv must outlive every component built on it.
///
/// An ObsBinding given here is threaded everywhere: into the Env handed
/// to protocol components AND into the backends themselves (Simulation
/// registers its event-loop metrics, Network its packet metrics + trace
/// events), so one attachment observes the whole environment.
class SimEnv {
 public:
  /// Environment without a network (Env::transport() throws).
  explicit SimEnv(sim::Simulation& sim, ObsBinding obs = {})
      : env_(sim, sim, nullptr, sim.rng(), obs) {
    sim.bind_obs(obs.metrics);
  }

  SimEnv(sim::Simulation& sim, net::Network& network, ObsBinding obs = {})
      : transport_(std::in_place, network),
        env_(sim, sim, &transport_.value(), sim.rng(), obs) {
    sim.bind_obs(obs.metrics);
    network.bind_obs(obs.metrics, obs.trace);
  }

  [[nodiscard]] Env env() const { return env_; }
  operator Env() const { return env_; }  // NOLINT(google-explicit-constructor)

 private:
  std::optional<SimTransport> transport_;
  Env env_;
};

}  // namespace triad::runtime
