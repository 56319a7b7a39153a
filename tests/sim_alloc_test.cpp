// Allocation gate for the simulated message path: once a scenario is
// warm, a message goes node -> Network -> node without touching the heap.
//
// This binary replaces the global operator new with a counting one (the
// same hook real_env_test uses for the serve worker). Each case builds a
// 3-node cluster the way a campaign run does (metrics, detectors and a
// Recorder attached), runs one warm-up virtual minute, then counts the
// allocations of the next ten minutes against the events executed.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>

#include "attacks/delay_attack.h"
#include "exp/recorder.h"
#include "exp/scenario.h"
#include "resilient/triad_plus.h"

namespace {
std::atomic<std::uint64_t> g_allocations{0};

void* counted_allocate(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

void* counted_allocate_aligned(std::size_t size, std::align_val_t align) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  const auto a = static_cast<std::size_t>(align);
  // aligned_alloc wants a size that is a multiple of the alignment.
  const std::size_t rounded = (size + a - 1) / a * a;
  if (void* p = std::aligned_alloc(a, rounded == 0 ? a : rounded)) return p;
  throw std::bad_alloc();
}
}  // namespace

void* operator new(std::size_t size) { return counted_allocate(size); }
void* operator new[](std::size_t size) { return counted_allocate(size); }
void* operator new(std::size_t size, std::align_val_t align) {
  return counted_allocate_aligned(size, align);
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return counted_allocate_aligned(size, align);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace triad {
namespace {

// Allocations per simulated event a warm scenario may make. Whatever is
// left is amortized container growth (recorded series, detector
// history), not per-message work.
constexpr double kMaxAllocsPerEvent = 0.1;

struct Measured {
  std::uint64_t allocations = 0;
  std::uint64_t events = 0;
  std::uint64_t packets = 0;
};

Measured measure(bool fminus, bool triadplus) {
  exp::ScenarioConfig cfg;
  cfg.seed = 17;
  cfg.node_count = 3;
  cfg.enable_metrics = true;
  cfg.enable_detectors = true;
  if (triadplus) {
    cfg.node_template = resilient::harden(cfg.node_template);
    cfg.policy_factory = [] { return resilient::make_triad_plus_policy(); };
  }
  exp::Scenario scenario(std::move(cfg));
  if (fminus) {
    attacks::DelayAttackConfig attack;
    attack.kind = attacks::AttackKind::kFMinus;
    attack.victim = scenario.node_address(0);
    attack.ta_address = scenario.ta_address();
    scenario.add_delay_attack(attack);
  }
  exp::Recorder recorder(scenario);
  scenario.start();
  scenario.run_until(minutes(1));

  const std::uint64_t allocations = g_allocations.load();
  const std::uint64_t events = scenario.simulation().events_executed();
  const std::uint64_t packets = scenario.network().stats().sent;
  scenario.run_until(minutes(11));
  return {g_allocations.load() - allocations,
          scenario.simulation().events_executed() - events,
          scenario.network().stats().sent - packets};
}

void expect_allocation_free(const Measured& m) {
  ASSERT_GT(m.packets, 1000u) << "the window must carry real traffic";
  const double per_event =
      static_cast<double>(m.allocations) / static_cast<double>(m.events);
  EXPECT_LT(per_event, kMaxAllocsPerEvent)
      << m.allocations << " allocations over " << m.events << " events ("
      << m.packets << " packets)";
}

TEST(SimAllocations, OriginalUnattackedIsAllocationFreeOnceWarm) {
  expect_allocation_free(measure(/*fminus=*/false, /*triadplus=*/false));
}

TEST(SimAllocations, TriadPlusUnderFMinusIsAllocationFreeOnceWarm) {
  expect_allocation_free(measure(/*fminus=*/true, /*triadplus=*/true));
}

}  // namespace
}  // namespace triad
