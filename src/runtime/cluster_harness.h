// Shared wiring for simulated Triad clusters: one Simulation, one
// Network, a SimEnv binding them to the runtime interfaces, a cluster
// keyring, and the canonical addressing scheme (node i at address i+1,
// the TA right after the last node).
//
// exp::Scenario, integration tests, benches, and examples all build on
// this instead of repeating the sim/network/keyring/TA boilerplate.
// Endpoints that need per-endpoint keyrings (attested mode) pass an
// override to add_node()/make_time_authority().
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "crypto/channel.h"
#include "net/network.h"
#include "runtime/env.h"
#include "runtime/sim_env.h"
#include "sim/simulation.h"
#include "ta/time_authority.h"
#include "triad/node.h"

namespace triad::runtime {

struct ClusterConfig {
  std::uint64_t seed = 1;
  /// Number of Triad nodes the cluster will hold. Fixes the addressing:
  /// add_node() fills ids 1..node_count and peers; ta_address() is
  /// node_count + 1 unless overridden below.
  std::size_t node_count = 0;
  /// Explicit TA address; 0 means "right after the last node".
  NodeId ta_address = 0;
  /// Delay model for the network; null -> the paper testbed's
  /// JitterDelay(150 us base, 120 us jitter, 10 us floor).
  std::unique_ptr<net::DelayModel> delay;
  /// Cluster master secret standing in for SGX attested key exchange.
  Bytes master_secret = Bytes(32, 0x42);
  /// Observability attachment, threaded into every component's Env and
  /// bound to the Simulation/Network backends (see SimEnv). The owner of
  /// the Registry/TraceSink must outlive the harness. Default: unobserved.
  ObsBinding obs{};
};

/// Owns the simulated world a cluster runs in. Move- and copy-disabled:
/// every component holds an Env pointing into this object.
class ClusterHarness {
 public:
  explicit ClusterHarness(ClusterConfig config = {});
  ClusterHarness(const ClusterHarness&) = delete;
  ClusterHarness& operator=(const ClusterHarness&) = delete;

  [[nodiscard]] sim::Simulation& simulation() { return sim_; }
  [[nodiscard]] net::Network& network() { return *network_; }
  /// The environment every component of this cluster is built on.
  [[nodiscard]] Env env() const { return sim_env_.env(); }
  /// The shared cluster keyring (for attaching clients / extra endpoints).
  [[nodiscard]] const crypto::ClusterKeyring& keyring() const {
    return keyring_;
  }

  /// Node addressing: node i (0-based) lives at address i+1.
  [[nodiscard]] NodeId node_address(std::size_t i) const;
  [[nodiscard]] NodeId ta_address() const;

  /// Creates the Time Authority at ta_address(). `keyring` overrides the
  /// shared cluster keyring (attested/session mode). Call at most once.
  ta::TimeAuthority& make_time_authority(
      Duration max_wait = ta::kMaxTaWait,
      const crypto::Keyring* keyring = nullptr);

  /// Creates the next Triad node from `node_template`, filling in its
  /// address, the TA address, and the full-mesh peer list. Throws once
  /// node_count nodes exist.
  TriadNode& add_node(const TriadConfig& node_template,
                      TriadNode::HardwareParams hardware = {},
                      std::unique_ptr<UntaintPolicy> policy = nullptr,
                      const crypto::Keyring* keyring = nullptr);

  [[nodiscard]] std::size_t node_count() const { return nodes_.size(); }
  [[nodiscard]] TriadNode& node(std::size_t i) { return *nodes_.at(i); }
  [[nodiscard]] ta::TimeAuthority& time_authority() { return *ta_; }

  /// Starts every node (the TA is live from construction).
  void start();

  void run_until(SimTime t) { sim_.run_until(t); }
  void run_for(Duration d) { sim_.run_for(d); }
  [[nodiscard]] SimTime now() const { return sim_.now(); }

 private:
  std::size_t configured_node_count_;
  NodeId ta_address_;
  sim::Simulation sim_;
  std::unique_ptr<net::Network> network_;
  SimEnv sim_env_;
  crypto::ClusterKeyring keyring_;
  std::unique_ptr<ta::TimeAuthority> ta_;
  std::vector<std::unique_ptr<TriadNode>> nodes_;
};

}  // namespace triad::runtime
