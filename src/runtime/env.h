// Abstract execution environment for protocol components.
//
// Protocol logic (src/triad, src/ta, src/ntp, src/t3e, src/apps) is
// written against three small pure-virtual interfaces — Clock, Scheduler,
// Transport — plus the Env aggregate that bundles them. The deterministic
// simulator binds them through runtime::SimEnv (sim_env.h); a
// socket-backed SocketEnv can be added later without touching protocol
// code.
//
// Determinism contract every backend must preserve (see DESIGN.md,
// "Runtime layer"):
//   * callbacks scheduled for equal times fire in scheduling order;
//   * all randomness flows from Env::fork_rng(label) streams;
//   * Transport delivery runs through the same Scheduler, so one event
//     loop totally orders every callback.
#pragma once

#include <cstdint>
#include <functional>
#include <string_view>

#include "obs/trace.h"
#include "util/bytes.h"
#include "util/rng.h"
#include "util/types.h"

namespace triad::obs {
class Registry;
}  // namespace triad::obs

namespace triad::runtime {

/// Observability attachment shared by every component of one environment.
/// Both pointers are optional and non-owning; with `trace == nullptr`
/// emission is a single null check and with `metrics == nullptr`
/// components skip registration and use no-op handles, so an unobserved
/// environment pays (almost) nothing. Whoever owns the Registry/TraceSink
/// must keep them alive as long as the components bound to them.
struct ObsBinding {
  obs::Registry* metrics = nullptr;
  obs::TraceSink* trace = nullptr;
};

/// Token identifying a scheduled callback; usable to cancel it.
struct TimerId {
  std::uint64_t value = 0;
  [[nodiscard]] bool valid() const { return value != 0; }
  friend bool operator==(TimerId, TimerId) = default;
};

/// Source of the environment's reference time.
class Clock {
 public:
  virtual ~Clock() = default;
  [[nodiscard]] virtual SimTime now() const = 0;
};

/// Deferred-callback execution. Implementations must fire callbacks with
/// equal deadlines in scheduling order (FIFO).
class Scheduler {
 public:
  virtual ~Scheduler() = default;

  /// Schedules fn at absolute time t (must be >= the clock's now()).
  virtual TimerId schedule_at(SimTime t, std::function<void()> fn) = 0;

  /// Schedules fn after a non-negative delay.
  virtual TimerId schedule_after(Duration delay, std::function<void()> fn) = 0;

  /// Cancels a pending callback. Cancelling an already-fired or invalid
  /// id is a harmless no-op (returns false).
  virtual bool cancel(TimerId id) = 0;
};

/// A received datagram, viewed without owning the payload. The payload
/// bytes are only valid for the duration of the handler call: the
/// transport owns the buffer and reuses it once the handler returns.
/// Copy them (e.g. by decoding) before returning if they must outlive it.
struct Packet {
  NodeId src = 0;
  NodeId dst = 0;
  BytesView payload;
  SimTime sent_at = 0;
  std::uint64_t id = 0;  // unique per transport, for tracing
};

using PacketHandler = std::function<void(const Packet&)>;

/// Unreliable, unordered datagram transport (UDP semantics).
class Transport {
 public:
  virtual ~Transport() = default;

  /// Registers the receive handler for an address. One handler per
  /// address; re-attaching replaces the previous handler.
  virtual void attach(NodeId addr, PacketHandler handler) = 0;
  virtual void detach(NodeId addr) = 0;

  /// Sends a datagram. Delivery (if any) is asynchronous. The payload is
  /// borrowed: the transport copies it before returning, so the caller
  /// may reuse its buffer right away.
  virtual void send(NodeId src, NodeId dst, BytesView payload) = 0;
};

/// The environment handed to protocol components: non-owning pointers to
/// one backend's clock/scheduler/transport plus the root Rng. Copyable
/// value — components store it by value and every copy refers to the
/// same backend.
class Env {
 public:
  /// `transport` may be null for components that never touch the network
  /// (accessing transport() then throws std::logic_error).
  Env(Clock& clock, Scheduler& scheduler, Transport* transport, Rng& rng,
      ObsBinding obs = {})
      : clock_(&clock), scheduler_(&scheduler), transport_(transport),
        rng_(&rng), obs_(obs) {}

  [[nodiscard]] Clock& clock() const { return *clock_; }
  [[nodiscard]] Scheduler& scheduler() const { return *scheduler_; }
  [[nodiscard]] Transport& transport() const;

  // Convenience forwarding, so call sites read like the old concrete API.
  [[nodiscard]] SimTime now() const { return clock_->now(); }
  TimerId schedule_at(SimTime t, std::function<void()> fn) const {
    return scheduler_->schedule_at(t, std::move(fn));
  }
  TimerId schedule_after(Duration delay, std::function<void()> fn) const {
    return scheduler_->schedule_after(delay, std::move(fn));
  }
  bool cancel(TimerId id) const { return scheduler_->cancel(id); }

  /// Derives a deterministic child Rng stream from the backend's root.
  [[nodiscard]] Rng fork_rng(std::string_view label) const {
    return rng_->fork(label);
  }

  // --- observability ---------------------------------------------------
  /// Metrics registry, or null when the environment is unobserved.
  [[nodiscard]] obs::Registry* metrics() const { return obs_.metrics; }
  /// Guard for emit(): true only when a trace sink is attached. Call
  /// sites wrap event construction in `if (env.tracing())` so building
  /// the event costs nothing when tracing is off.
  [[nodiscard]] bool tracing() const { return obs_.trace != nullptr; }
  /// Stamps `event.at` with the environment clock and emits it. No-op
  /// (one null check) without a sink.
  void emit(obs::TraceEvent event) const {
    if (obs_.trace == nullptr) return;
    event.at = clock_->now();
    obs_.trace->emit(event);
  }

 private:
  Clock* clock_;
  Scheduler* scheduler_;
  Transport* transport_;
  Rng* rng_;
  ObsBinding obs_;
};

/// Periodic callback helper built on Env; cancels itself on destruction
/// (RAII) so samplers cannot outlive their owners.
class PeriodicTimer {
 public:
  /// Fires fn every `period` starting at now()+period (or `first` if given).
  PeriodicTimer(const Env& env, Duration period, std::function<void()> fn);
  PeriodicTimer(const Env& env, SimTime first, Duration period,
                std::function<void()> fn);
  ~PeriodicTimer();
  PeriodicTimer(const PeriodicTimer&) = delete;
  PeriodicTimer& operator=(const PeriodicTimer&) = delete;

  void stop();

 private:
  void arm(SimTime t);
  Env env_;
  Duration period_;
  std::function<void()> fn_;
  TimerId pending_{};
  bool stopped_ = false;
};

}  // namespace triad::runtime
