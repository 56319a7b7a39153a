// Deterministic discrete-event simulation engine.
//
// All of the reproduction runs on virtual time: an "8 hour" experiment is
// a few hundred thousand events. Determinism rules:
//   * events at equal timestamps fire in scheduling order (FIFO);
//   * all randomness is drawn from Rng streams forked off the
//     simulation's root generator;
//   * handlers may schedule/cancel freely, including at the current time.
//
// Simulation implements runtime::Clock and runtime::Scheduler, so it can
// be handed to protocol components directly through runtime::SimEnv.
// Its queue is runtime::TimerQueue, the one the daemon's RealScheduler
// uses too; Simulation adds only the virtual clock, the schedule-time
// checks and the event-loop metrics. Periodic work goes through
// runtime::PeriodicTimer over an Env on this Simulation.
#pragma once

#include <cstdint>
#include <functional>

#include "obs/metrics.h"
#include "runtime/env.h"
#include "runtime/timer_queue.h"
#include "util/rng.h"
#include "util/types.h"

namespace triad::sim {

/// Token identifying a scheduled event; usable to cancel it. The scheme
/// is shared with the runtime layer: sim::EventId and runtime::TimerId
/// are the same type.
using EventId = runtime::TimerId;

class Simulation final : public runtime::Clock, public runtime::Scheduler {
 public:
  explicit Simulation(std::uint64_t seed = 1);
  ~Simulation() override;
  Simulation(const Simulation&) = delete;
  Simulation& operator=(const Simulation&) = delete;

  /// Current virtual time.
  [[nodiscard]] SimTime now() const override { return now_; }

  /// Root RNG; components should fork() their own streams.
  Rng& rng() { return rng_; }

  /// Schedules fn at absolute virtual time t (must be >= now()).
  EventId schedule_at(SimTime t, std::function<void()> fn) override;

  /// Schedules fn after a non-negative delay.
  EventId schedule_after(Duration delay, std::function<void()> fn) override;

  /// Cancels a pending event. Cancelling an already-fired or invalid id
  /// is a harmless no-op (returns false).
  bool cancel(EventId id) override;

  /// Runs the next event, if any. Returns false when the queue is empty.
  bool step();

  /// Runs all events with time <= t, then sets now() == t.
  void run_until(SimTime t);

  /// Runs all events within the next `d` of virtual time; equivalent to
  /// run_until(now() + d).
  void run_for(Duration d);

  /// Runs until the event queue drains. Use run_until for open systems
  /// (anything with periodic timers never drains).
  void run();

  /// Number of events executed so far (for micro-benchmarks/diagnostics).
  [[nodiscard]] std::uint64_t events_executed() const {
    return events_executed_;
  }

  /// Exact number of currently pending (non-cancelled) events.
  [[nodiscard]] std::size_t pending_events() const { return queue_.size(); }

  /// Registers the event loop's metrics with `registry` (null detaches):
  /// counters triad_sim_events_{scheduled,fired,cancelled}_total plus a
  /// triad_sim_queue_depth gauge read at snapshot time. The callback
  /// series is tagged with this Simulation and dropped in the destructor.
  void bind_obs(obs::Registry* registry);

 private:
  SimTime now_ = 0;
  std::uint64_t events_executed_ = 0;
  obs::Registry* obs_registry_ = nullptr;
  obs::Counter obs_scheduled_;
  obs::Counter obs_fired_;
  obs::Counter obs_cancelled_;
  Rng rng_;
  runtime::TimerQueue queue_;
};

}  // namespace triad::sim
