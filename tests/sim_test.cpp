// Unit tests for the discrete-event simulation engine: ordering,
// cancellation, determinism, periodic timers (runtime::PeriodicTimer over
// an Env on the Simulation). The reference-model fuzz also drives the
// daemon's RealScheduler, which shares Simulation's runtime::TimerQueue.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "runtime/env.h"
#include "runtime/real_env.h"
#include "sim/simulation.h"
#include "util/rng.h"

namespace triad::sim {
namespace {

using runtime::PeriodicTimer;

TEST(Simulation, StartsAtTimeZero) {
  Simulation s;
  EXPECT_EQ(s.now(), 0);
  EXPECT_FALSE(s.step());
}

TEST(Simulation, EventsFireInTimeOrder) {
  Simulation s;
  std::vector<int> order;
  s.schedule_at(seconds(3), [&] { order.push_back(3); });
  s.schedule_at(seconds(1), [&] { order.push_back(1); });
  s.schedule_at(seconds(2), [&] { order.push_back(2); });
  s.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(s.now(), seconds(3));
}

TEST(Simulation, EqualTimesFireFifo) {
  Simulation s;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    s.schedule_at(seconds(1), [&order, i] { order.push_back(i); });
  }
  s.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

TEST(Simulation, HandlerSeesEventTimeAsNow) {
  Simulation s;
  SimTime observed = -1;
  s.schedule_at(milliseconds(250), [&] { observed = s.now(); });
  s.run();
  EXPECT_EQ(observed, milliseconds(250));
}

TEST(Simulation, ScheduleInPastThrows) {
  Simulation s;
  s.schedule_at(seconds(1), [] {});
  s.run();
  EXPECT_THROW(s.schedule_at(milliseconds(500), [] {}), std::logic_error);
  EXPECT_THROW(s.schedule_after(-1, [] {}), std::logic_error);
}

TEST(Simulation, EmptyHandlerThrows) {
  Simulation s;
  EXPECT_THROW(s.schedule_at(1, std::function<void()>{}),
               std::invalid_argument);
}

TEST(Simulation, HandlerCanScheduleAtCurrentTime) {
  Simulation s;
  std::vector<int> order;
  s.schedule_at(seconds(1), [&] {
    order.push_back(1);
    s.schedule_at(s.now(), [&] { order.push_back(2); });
  });
  s.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  EXPECT_EQ(s.now(), seconds(1));
}

TEST(Simulation, CancelPreventsExecution) {
  Simulation s;
  bool fired = false;
  const EventId id = s.schedule_at(seconds(1), [&] { fired = true; });
  EXPECT_TRUE(s.cancel(id));
  s.run();
  EXPECT_FALSE(fired);
}

TEST(Simulation, CancelTwiceIsNoop) {
  Simulation s;
  const EventId id = s.schedule_at(seconds(1), [] {});
  EXPECT_TRUE(s.cancel(id));
  EXPECT_FALSE(s.cancel(id));
  EXPECT_FALSE(s.cancel(EventId{}));
  s.run();
}

TEST(Simulation, CancelFromInsideHandler) {
  Simulation s;
  bool fired = false;
  const EventId later = s.schedule_at(seconds(2), [&] { fired = true; });
  s.schedule_at(seconds(1), [&] { s.cancel(later); });
  s.run();
  EXPECT_FALSE(fired);
}

TEST(Simulation, RunUntilWithCancelledHeadDoesNotOvershoot) {
  // Regression test: a cancelled tombstone at the head of the queue with
  // time <= t must not cause run_until to execute a live event beyond t
  // (which would then drag now() backwards).
  Simulation s;
  const EventId cancelled = s.schedule_at(seconds(1), [] {});
  SimTime fired_at = -1;
  s.schedule_at(seconds(3), [&] { fired_at = s.now(); });
  s.cancel(cancelled);
  s.run_until(seconds(2));
  EXPECT_EQ(fired_at, -1);       // the 3 s event must not have run
  EXPECT_EQ(s.now(), seconds(2));
  s.run();
  EXPECT_EQ(fired_at, seconds(3));
}

TEST(Simulation, RunUntilAdvancesClockWithoutEvents) {
  Simulation s;
  s.run_until(minutes(5));
  EXPECT_EQ(s.now(), minutes(5));
}

TEST(Simulation, RunUntilStopsAtBoundary) {
  Simulation s;
  int fired = 0;
  s.schedule_at(seconds(1), [&] { ++fired; });
  s.schedule_at(seconds(2), [&] { ++fired; });
  s.schedule_at(seconds(3), [&] { ++fired; });
  s.run_until(seconds(2));
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(s.now(), seconds(2));
  s.run();
  EXPECT_EQ(fired, 3);
}

TEST(Simulation, PendingAndExecutedCounts) {
  Simulation s;
  const EventId a = s.schedule_at(1, [] {});
  s.schedule_at(2, [] {});
  EXPECT_EQ(s.pending_events(), 2u);
  s.cancel(a);
  EXPECT_EQ(s.pending_events(), 1u);
  s.run();
  EXPECT_EQ(s.events_executed(), 1u);
  EXPECT_EQ(s.pending_events(), 0u);
}

TEST(Simulation, PendingEventsExactAfterCancelThenPurge) {
  // Regression: the old implementation derived pending_events() from
  // heap size minus a cancelled-set size; a cancelled entry that had
  // already been purged from the heap was double-counted and the count
  // underflowed (or drifted). Force the purge path: cancel the head,
  // then let run_until() sweep past it.
  Simulation s;
  const EventId head = s.schedule_at(seconds(1), [] {});
  s.schedule_at(seconds(3), [] {});
  EXPECT_EQ(s.pending_events(), 2u);
  EXPECT_TRUE(s.cancel(head));
  EXPECT_EQ(s.pending_events(), 1u);
  s.run_until(seconds(2));  // purges the dead head without executing it
  EXPECT_EQ(s.pending_events(), 1u);  // exact: only the 3 s event left
  EXPECT_EQ(s.events_executed(), 0u);
  s.run();
  EXPECT_EQ(s.pending_events(), 0u);
  EXPECT_EQ(s.events_executed(), 1u);
}

TEST(Simulation, RunForAdvancesRelativeToNow) {
  Simulation s;
  int fired = 0;
  s.schedule_at(seconds(1), [&] { ++fired; });
  s.schedule_at(seconds(4), [&] { ++fired; });
  s.run_for(seconds(2));
  EXPECT_EQ(s.now(), seconds(2));
  EXPECT_EQ(fired, 1);
  s.run_for(seconds(2));  // relative to the new now: stops at 4 s
  EXPECT_EQ(s.now(), seconds(4));
  EXPECT_EQ(fired, 2);
  EXPECT_THROW(s.run_for(-seconds(1)), std::logic_error);
}

TEST(Simulation, DeterministicAcrossRuns) {
  auto run_once = [] {
    Simulation s(123);
    std::vector<std::uint64_t> values;
    for (int i = 0; i < 5; ++i) {
      s.schedule_at(seconds(i + 1),
                    [&values, &s] { values.push_back(s.rng().next_u64()); });
    }
    s.run();
    return values;
  };
  EXPECT_EQ(run_once(), run_once());
}

/// RealScheduler under a settable clock, driven the way EpollLoop drives
/// it (next_deadline, then fire_due) but with time jumping straight to
/// each deadline, so it can stand in for a Simulation in the fuzz below.
class ManualRealScheduler {
 public:
  [[nodiscard]] SimTime now() const { return clock_.now(); }
  EventId schedule_at(SimTime t, std::function<void()> fn) {
    return scheduler_.schedule_at(t, std::move(fn));
  }
  bool cancel(EventId id) { return scheduler_.cancel(id); }
  void run_until(SimTime t) {
    for (auto next = scheduler_.next_deadline(); next && *next <= t;
         next = scheduler_.next_deadline()) {
      clock_.at = *next;
      scheduler_.fire_due(*next);
    }
    clock_.at = t;
  }

 private:
  struct Clock final : runtime::Clock {
    [[nodiscard]] SimTime now() const override { return at; }
    SimTime at = 0;
  };
  Clock clock_;
  runtime::RealScheduler scheduler_{clock_};
};

/// Random schedule/cancel sequences executed both by `queue` (a
/// Simulation or a ManualRealScheduler) and by a naive reference
/// (sorted vector); executed event sets, times and order must match.
template <class Queue>
void fuzz_against_reference_model(Queue& queue, std::uint64_t seed) {
  Rng rng(seed);
  struct Ref {
    SimTime time;
    int tag;
    bool cancelled = false;  // cancelled while still pending
  };
  std::vector<Ref> reference;
  std::vector<EventId> ids;
  std::vector<std::pair<int, SimTime>> executed;

  SimTime horizon = 0;
  for (int op = 0; op < 400; ++op) {
    if (rng.chance(0.7) || ids.empty()) {
      const SimTime at = queue.now() + rng.uniform_int(0, 1000);
      const int tag = static_cast<int>(reference.size());
      ids.push_back(queue.schedule_at(at, [tag, &executed, &queue] {
        executed.emplace_back(tag, queue.now());
      }));
      reference.push_back({at, tag});
      horizon = std::max(horizon, at);
    } else {
      const std::size_t pick = rng.next_below(ids.size());
      const bool did = queue.cancel(ids[pick]);
      // Mirror in the reference: cancellable iff not yet executed and
      // not already cancelled.
      Ref& ref = reference[pick];
      const bool expected = !ref.cancelled &&
                            !(ref.time <= queue.now() &&
                              std::any_of(executed.begin(), executed.end(),
                                          [&](const auto& e) {
                                            return e.first == ref.tag;
                                          }));
      EXPECT_EQ(did, expected) << "seed " << seed << " op " << op;
      if (expected) ref.cancelled = true;
    }
    // Occasionally advance time part-way.
    if (rng.chance(0.2)) {
      queue.run_until(queue.now() + rng.uniform_int(0, 300));
    }
  }
  queue.run_until(horizon + 1);

  // Reference: every event not cancelled while pending executes exactly
  // once, at its scheduled time, in (time, insertion) order.
  std::vector<std::size_t> order(reference.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return reference[a].time < reference[b].time;
                   });
  std::vector<std::pair<int, SimTime>> expected;
  for (const std::size_t i : order) {
    if (!reference[i].cancelled) {
      expected.emplace_back(reference[i].tag, reference[i].time);
    }
  }
  SimTime prev = -1;
  std::set<int> seen;
  for (const auto& [tag, at] : executed) {
    EXPECT_TRUE(seen.insert(tag).second) << "duplicate execution";
    const auto& ref = reference[static_cast<std::size_t>(tag)];
    EXPECT_EQ(at, ref.time);
    EXPECT_GE(at, prev);
    prev = at;
  }
  EXPECT_EQ(executed, expected) << "seed " << seed;
}

TEST(Simulation, FuzzAgainstReferenceModel) {
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    {
      SCOPED_TRACE("Simulation");
      Simulation sim(seed);
      fuzz_against_reference_model(sim, seed);
    }
    {
      SCOPED_TRACE("RealScheduler");
      ManualRealScheduler scheduler;
      fuzz_against_reference_model(scheduler, seed);
    }
  }
}

/// The Env a protocol component would get over `s` (no transport).
runtime::Env env_of(Simulation& s) { return {s, s, nullptr, s.rng()}; }

TEST(PeriodicTimer, FiresAtFixedPeriod) {
  Simulation s;
  std::vector<SimTime> times;
  PeriodicTimer timer(env_of(s), seconds(10),
                      [&] { times.push_back(s.now()); });
  s.run_until(seconds(35));
  EXPECT_EQ(times, (std::vector<SimTime>{seconds(10), seconds(20),
                                         seconds(30)}));
}

TEST(PeriodicTimer, CustomFirstFiring) {
  Simulation s;
  std::vector<SimTime> times;
  PeriodicTimer timer(env_of(s), seconds(1), seconds(10),
                      [&] { times.push_back(s.now()); });
  s.run_until(seconds(25));
  EXPECT_EQ(times, (std::vector<SimTime>{seconds(1), seconds(11),
                                         seconds(21)}));
}

TEST(PeriodicTimer, StopPreventsFurtherFirings) {
  Simulation s;
  int count = 0;
  PeriodicTimer timer(env_of(s), seconds(1), [&] { ++count; });
  s.run_until(seconds(3));
  timer.stop();
  s.run_until(seconds(10));
  EXPECT_EQ(count, 3);
}

TEST(PeriodicTimer, DestructionCancelsPending) {
  Simulation s;
  int count = 0;
  {
    PeriodicTimer timer(env_of(s), seconds(1), [&] { ++count; });
    s.run_until(seconds(2));
  }
  s.run_until(seconds(10));
  EXPECT_EQ(count, 2);
}

TEST(PeriodicTimer, CanStopItselfFromCallback) {
  Simulation s;
  int count = 0;
  PeriodicTimer* self = nullptr;
  PeriodicTimer timer(env_of(s), seconds(1), [&] {
    if (++count == 2) self->stop();
  });
  self = &timer;
  s.run_until(seconds(10));
  EXPECT_EQ(count, 2);
}

TEST(PeriodicTimer, NonPositivePeriodThrows) {
  Simulation s;
  EXPECT_THROW(PeriodicTimer(env_of(s), 0, [] {}), std::invalid_argument);
}

}  // namespace
}  // namespace triad::sim
