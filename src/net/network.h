// Simulated datagram network.
//
// Semantics mirror UDP: unordered, unreliable, unicast. Every packet
// passes through the registered middleboxes, which model the
// OS-/network-level attacker: they see source, destination, size, and
// timing (never plaintext — payloads are sealed by crypto::SecureChannel)
// and may add delay or drop the packet. This is exactly the paper's
// attacker interface for the F+/F- calibration attacks.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <unordered_map>
#include <vector>

#include "net/delay_model.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sim/simulation.h"
#include "util/bytes.h"
#include "util/types.h"

namespace triad::net {

/// A datagram in flight. The network owns it: a receive handler or a
/// middlebox sees it only for the duration of its call.
struct Packet {
  NodeId src = 0;
  NodeId dst = 0;
  Bytes payload;
  SimTime sent_at = 0;
  std::uint64_t id = 0;  // unique per network, for tracing
};

/// Attacker/observer hook on the wire. Middleboxes run in registration
/// order; extra delays accumulate and any drop wins.
class Middlebox {
 public:
  struct Action {
    Duration extra_delay = 0;
    bool drop = false;
  };

  virtual ~Middlebox() = default;
  /// Observes a packet on the wire. Must not send on the network: the
  /// packet is a view into the network's in-flight slab.
  virtual Action on_packet(const Packet& packet, SimTime now) = 0;
};

/// Counters for tests and experiment reports.
struct NetworkStats {
  std::uint64_t sent = 0;
  std::uint64_t delivered = 0;
  std::uint64_t dropped_by_middlebox = 0;
  std::uint64_t dropped_no_receiver = 0;
  std::uint64_t dropped_by_loss = 0;
  std::uint64_t bytes_sent = 0;       // payload bytes handed to send()
  std::uint64_t bytes_delivered = 0;  // payload bytes reaching a handler
};

class Network {
 public:
  using Handler = std::function<void(const Packet&)>;

  /// The default delay model applies to every link without an override.
  Network(sim::Simulation& sim, std::unique_ptr<DelayModel> default_delay);
  ~Network();
  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  /// Registers the receive handler for an address. One handler per
  /// address; re-attaching replaces the previous handler.
  void attach(NodeId addr, Handler handler);
  void detach(NodeId addr);

  /// Overrides the delay model for the directed link src -> dst.
  void set_link_delay(NodeId src, NodeId dst,
                      std::unique_ptr<DelayModel> model);

  /// Random independent packet loss applied to every packet (default 0).
  void set_loss_probability(double p);

  /// Registers a middlebox (non-owning: caller keeps it alive as long as
  /// the network is in use).
  void add_middlebox(Middlebox* box);
  void remove_middlebox(Middlebox* box);

  /// Sends a datagram. Delivery (if any) is scheduled on the simulation.
  /// The payload is copied into an in-flight slot, so the caller's
  /// buffer is free again when send() returns.
  void send(NodeId src, NodeId dst, BytesView payload);

  [[nodiscard]] const NetworkStats& stats() const { return stats_; }
  /// Packets sent and neither delivered nor dropped yet.
  [[nodiscard]] std::size_t packets_in_flight() const {
    return in_flight_.size() - free_slots_.size();
  }
  /// Slots in the in-flight slab: the most packets ever in flight at once.
  [[nodiscard]] std::size_t slab_slots() const { return in_flight_.size(); }
  [[nodiscard]] sim::Simulation& simulation() { return sim_; }

  /// Folds NetworkStats into `registry` as triad_net_* callback series
  /// (zero hot-path cost; unregistered in the destructor), registers the
  /// triad_net_delivery_delay_seconds histogram, and starts emitting
  /// packet_send/packet_drop/packet_deliver trace events to `trace`.
  /// Either pointer may be null; null detaches.
  void bind_obs(obs::Registry* registry, obs::TraceSink* trace);

 private:
  DelayModel& model_for(NodeId src, NodeId dst);
  void deliver(std::uint32_t slot);
  void release(std::uint32_t slot, Bytes payload);
  void trace_packet(obs::TraceEventType type, const Packet& packet,
                    std::int64_t b) const;

  sim::Simulation& sim_;
  Rng rng_;
  std::unique_ptr<DelayModel> default_delay_;
  std::unordered_map<std::uint64_t, std::unique_ptr<DelayModel>> link_delays_;
  std::unordered_map<NodeId, Handler> handlers_;
  std::vector<Middlebox*> middleboxes_;
  double loss_probability_ = 0.0;
  std::uint64_t next_packet_id_ = 1;
  NetworkStats stats_;
  obs::Registry* obs_registry_ = nullptr;
  obs::TraceSink* trace_ = nullptr;
  obs::Histogram delivery_delay_;
  // Packets in flight live in a slab; the delivery closure captures only
  // (this, slot), which fits std::function's inline storage. A slot keeps
  // its payload buffer when it is freed, so once the slab is warm a send
  // copies the payload into capacity it already has and allocates nothing.
  std::vector<Packet> in_flight_;
  std::vector<std::uint32_t> free_slots_;
};

}  // namespace triad::net
