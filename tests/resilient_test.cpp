// Resilient (Section V / Triad+) building blocks: Marzullo intersection,
// NTP-style clock filter, true-chimer policy, and the hardened preset.
#include <gtest/gtest.h>

#include "resilient/clock_filter.h"
#include "resilient/marzullo.h"
#include "resilient/triad_plus.h"
#include "resilient/true_chimer_policy.h"

namespace triad::resilient {
namespace {

// marzullo() over an interval list, with fresh sweep storage.
MarzulloResult marzullo_of(const std::vector<Interval>& intervals) {
  std::vector<SweepEvent> events;
  return marzullo(intervals, events);
}

TEST(Marzullo, EmptyInput) {
  const auto r = marzullo_of({});
  EXPECT_EQ(r.count, 0u);
}

TEST(Marzullo, SingleInterval) {
  const auto r = marzullo_of({{10, 20}});
  EXPECT_EQ(r.count, 1u);
  EXPECT_EQ(r.best, (Interval{10, 20}));
  EXPECT_EQ(r.midpoint(), 15);
}

TEST(Marzullo, FullOverlap) {
  const auto r = marzullo_of({{0, 100}, {10, 50}, {20, 40}});
  EXPECT_EQ(r.count, 3u);
  EXPECT_EQ(r.best, (Interval{20, 40}));
}

TEST(Marzullo, MajorityAgainstOutlier) {
  // Three honest clocks around 100, one false-ticker far ahead.
  const auto r = marzullo_of({{95, 105}, {98, 108}, {96, 104}, {500, 520}});
  EXPECT_EQ(r.count, 3u);
  EXPECT_GE(r.best.lo, 95);
  EXPECT_LE(r.best.hi, 108);
}

TEST(Marzullo, DisjointIntervalsPickFirstBest) {
  const auto r = marzullo_of({{0, 10}, {20, 30}});
  EXPECT_EQ(r.count, 1u);
}

TEST(Marzullo, TouchingIntervalsCountAsOverlap) {
  const auto r = marzullo_of({{0, 10}, {10, 20}});
  EXPECT_EQ(r.count, 2u);
  EXPECT_EQ(r.best, (Interval{10, 10}));
}

TEST(Marzullo, TwoClustersPicksLarger) {
  const auto r =
      marzullo_of({{0, 10}, {1, 11}, {100, 110}, {101, 111}, {102, 112}});
  EXPECT_EQ(r.count, 3u);
  EXPECT_EQ(r.best, (Interval{102, 110}));
}

TEST(Marzullo, InvalidIntervalThrows) {
  EXPECT_THROW(marzullo_of({{10, 5}}), std::invalid_argument);
}

TEST(Marzullo, OverlappingIndexHelper) {
  const std::vector<Interval> ivs = {{0, 10}, {5, 15}, {20, 30}};
  std::vector<std::size_t> idx;
  overlapping(ivs, {8, 12}, idx);
  EXPECT_EQ(idx, (std::vector<std::size_t>{0, 1}));
}

TEST(ClockFilter, SelectsMinimumDelaySample) {
  ClockFilter filter(8);
  filter.add({milliseconds(5), milliseconds(10), seconds(1)});
  filter.add({milliseconds(3), milliseconds(2), seconds(2)});   // min delay
  filter.add({milliseconds(9), milliseconds(50), seconds(3)});
  const auto best = filter.select(seconds(4));
  ASSERT_TRUE(best.has_value());
  EXPECT_EQ(best->offset, milliseconds(3));
}

TEST(ClockFilter, WindowEvictsOldest) {
  ClockFilter filter(2);
  filter.add({1, milliseconds(1), seconds(1)});  // will be evicted
  filter.add({2, milliseconds(5), seconds(2)});
  filter.add({3, milliseconds(9), seconds(3)});
  EXPECT_EQ(filter.size(), 2u);
  const auto best = filter.select(seconds(3));
  ASSERT_TRUE(best.has_value());
  EXPECT_EQ(best->offset, 2);  // sample 1 (delay 1ms) is gone
}

TEST(ClockFilter, ExpiredSamplesIgnored) {
  ClockFilter filter(8, minutes(1));
  filter.add({5, milliseconds(1), 0});
  EXPECT_FALSE(filter.select(minutes(2)).has_value());
  filter.add({7, milliseconds(2), minutes(2)});
  const auto best = filter.select(minutes(2));
  ASSERT_TRUE(best.has_value());
  EXPECT_EQ(best->offset, 7);
}

TEST(ClockFilter, DelaySpikeDoesNotPoisonSelection) {
  // An attacker adding delay to some exchanges inflates their measured
  // offset — min-delay selection routes around them.
  ClockFilter filter(8);
  filter.add({microseconds(100), microseconds(300), seconds(1)});  // honest
  for (int i = 2; i <= 6; ++i) {
    filter.add({milliseconds(100), milliseconds(101),  // delayed exchanges
                seconds(i)});
  }
  const auto best = filter.select(seconds(7));
  ASSERT_TRUE(best.has_value());
  EXPECT_EQ(best->offset, microseconds(100));
}

TEST(ClockFilter, DispersionReflectsSpread) {
  ClockFilter tight(8), loose(8);
  for (int i = 0; i < 4; ++i) {
    tight.add({microseconds(10), milliseconds(1) + i, seconds(i + 1)});
    loose.add({milliseconds(50) * (i % 2 == 0 ? 1 : -1),
               milliseconds(1) + i, seconds(i + 1)});
  }
  EXPECT_LT(tight.dispersion(seconds(5)), loose.dispersion(seconds(5)));
}

TEST(ClockFilter, InvalidParametersThrow) {
  EXPECT_THROW(ClockFilter(0), std::invalid_argument);
  EXPECT_THROW(ClockFilter(8, 0), std::invalid_argument);
  ClockFilter f(8);
  EXPECT_THROW(f.add({0, -1, 0}), std::invalid_argument);
}

PeerSample sample(NodeId peer, SimTime ts, Duration err) {
  return PeerSample{peer, ts, err, 0};
}

TEST(TrueChimerPolicy, NoSamplesAsksTa) {
  TrueChimerPolicy policy;
  const auto d = policy.decide(seconds(100), milliseconds(1), {});
  EXPECT_EQ(d.action, UntaintPolicy::Decision::Action::kAskTimeAuthority);
}

TEST(TrueChimerPolicy, ConsistentClusterKeepsLocal) {
  TrueChimerPolicy policy;
  const SimTime now = seconds(100);
  const auto d = policy.decide(
      now, milliseconds(1),
      {sample(2, now + milliseconds(1), milliseconds(2)),
       sample(3, now - milliseconds(1), milliseconds(2))});
  EXPECT_EQ(d.action, UntaintPolicy::Decision::Action::kKeepLocal);
}

TEST(TrueChimerPolicy, FastOutlierPeerIsOutvoted) {
  // The F- attack signature: one peer a full second ahead. The original
  // policy would jump onto it; the true-chimer policy must not.
  TrueChimerPolicy policy;
  const SimTime now = seconds(100);
  const auto d = policy.decide(
      now, milliseconds(1),
      {sample(2, now + milliseconds(1), milliseconds(2)),
       sample(3, now + seconds(1), milliseconds(2))});
  EXPECT_EQ(d.action, UntaintPolicy::Decision::Action::kKeepLocal);
}

TEST(TrueChimerPolicy, OwnClockOutlierAdoptsMajority) {
  TrueChimerPolicy policy;
  const SimTime now = seconds(100);
  const SimTime truth = now - seconds(1);  // we are 1 s fast
  const auto d = policy.decide(
      now, milliseconds(1),
      {sample(2, truth + milliseconds(1), milliseconds(2)),
       sample(3, truth - milliseconds(1), milliseconds(2))});
  ASSERT_EQ(d.action, UntaintPolicy::Decision::Action::kAdopt);
  EXPECT_LT(std::abs(d.adopted_time - truth), milliseconds(5));
  EXPECT_TRUE(d.source == 2 || d.source == 3);
}

TEST(TrueChimerPolicy, NoMajorityAsksTa) {
  // Everyone disagrees wildly: 3 clocks, all pairwise inconsistent.
  TrueChimerPolicy policy;
  const SimTime now = seconds(100);
  const auto d = policy.decide(
      now, milliseconds(1),
      {sample(2, now + seconds(10), milliseconds(1)),
       sample(3, now - seconds(10), milliseconds(1))});
  EXPECT_EQ(d.action, UntaintPolicy::Decision::Action::kAskTimeAuthority);
}

TEST(TrueChimerPolicy, WideErrorBoundsForgiveSkew) {
  TrueChimerPolicy policy;
  const SimTime now = seconds(100);
  // Peer is 50 ms ahead but admits a 100 ms error bound: consistent.
  const auto d = policy.decide(
      now, milliseconds(1),
      {sample(2, now + milliseconds(50), milliseconds(100)),
       sample(3, now, milliseconds(2))});
  EXPECT_EQ(d.action, UntaintPolicy::Decision::Action::kKeepLocal);
}

TEST(TrueChimerPolicy, SourceIsTightestErrorChimer) {
  TrueChimerPolicy policy;
  const SimTime now = seconds(100);
  const SimTime truth = now + seconds(1);  // we are 1 s slow
  const auto d = policy.decide(
      now, milliseconds(1),
      {sample(2, truth, milliseconds(8)),
       sample(3, truth + milliseconds(1), milliseconds(2))});
  ASSERT_EQ(d.action, UntaintPolicy::Decision::Action::kAdopt);
  EXPECT_EQ(d.source, 3u);  // tighter bound wins attribution
}

TEST(TrueChimerPolicy, WideCliqueRefusesAdoptionAndAsksTa) {
  // A tight false-ticker plus a wide honest interval form a majority
  // that excludes us; stepping onto that intersection would import the
  // attack, so the node must go to the root of trust instead.
  TrueChimerConfig cfg;
  cfg.adopt_error_ceiling = milliseconds(10);
  TrueChimerPolicy policy(cfg);
  const SimTime now = seconds(100);
  const auto d = policy.decide(
      now, milliseconds(1),
      {sample(2, now - milliseconds(120), milliseconds(3)),   // tight liar
       sample(3, now - milliseconds(60), milliseconds(80))});  // wide honest
  EXPECT_EQ(d.action, UntaintPolicy::Decision::Action::kAskTimeAuthority);
}

TEST(TrueChimerPolicy, ExcessiveOwnErrorForcesTaResync) {
  // A node whose own uncertainty ballooned must not arbitrate via
  // interval votes — a tight false-ticker could capture the vote.
  TrueChimerConfig cfg;
  cfg.max_local_error = milliseconds(50);
  TrueChimerPolicy policy(cfg);
  const SimTime now = seconds(100);
  const auto d = policy.decide(
      now, milliseconds(200),
      {sample(2, now, milliseconds(1)), sample(3, now, milliseconds(1))});
  EXPECT_EQ(d.action, UntaintPolicy::Decision::Action::kAskTimeAuthority);
}

TEST(TrueChimerPolicy, OwnIntervalOverlapKeepsLocalEvenIfPointOutside) {
  // Own point estimate outside the intersection but own interval
  // overlapping it: we are a true-chimer and must not step (anti-ratchet).
  TrueChimerPolicy policy;
  const SimTime now = seconds(100);
  const auto d = policy.decide(
      now, milliseconds(30),
      {sample(2, now + milliseconds(20), milliseconds(2)),
       sample(3, now + milliseconds(21), milliseconds(2))});
  EXPECT_EQ(d.action, UntaintPolicy::Decision::Action::kKeepLocal);
}

TEST(TrueChimerPolicy, InvalidConfigThrows) {
  auto with = [](auto&& mutate) {
    TrueChimerConfig cfg;
    mutate(cfg);
    return cfg;
  };
  EXPECT_THROW(TrueChimerPolicy(with([](auto& c) { c.margin = -1; })),
               std::invalid_argument);
  EXPECT_THROW(
      TrueChimerPolicy(with([](auto& c) { c.quorum_fraction = 0.0; })),
      std::invalid_argument);
  EXPECT_THROW(
      TrueChimerPolicy(with([](auto& c) { c.quorum_fraction = 1.0; })),
      std::invalid_argument);
  EXPECT_THROW(
      TrueChimerPolicy(with([](auto& c) { c.max_local_error = 0; })),
      std::invalid_argument);
  EXPECT_THROW(
      TrueChimerPolicy(with([](auto& c) { c.adopt_error_ceiling = 0; })),
      std::invalid_argument);
}

TEST(TriadPlus, HardenSetsAllKnobs) {
  TriadConfig base;
  const TriadConfig hardened = harden(base);
  EXPECT_GT(hardened.refresh_deadline, 0);
  EXPECT_TRUE(hardened.long_window_calibration);
  EXPECT_GT(hardened.long_window_min, 0);
  // Untouched protocol parameters survive.
  EXPECT_EQ(hardened.calib_pairs, base.calib_pairs);
}

TEST(TriadPlus, PolicyFactoryProducesCollectAllPolicy) {
  const auto policy = make_triad_plus_policy();
  ASSERT_NE(policy, nullptr);
  EXPECT_EQ(policy->mode(), UntaintPolicy::Mode::kCollectAll);
}

}  // namespace
}  // namespace triad::resilient
