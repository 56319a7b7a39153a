// TriadNode protocol behaviour: calibration, taint/untaint, peer policy,
// TA fallback, monotonic serving, availability accounting, and INC-based
// manipulation detection.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "crypto/channel.h"
#include "net/network.h"
#include "runtime/cluster_harness.h"
#include "sim/simulation.h"
#include "ta/time_authority.h"
#include "triad/node.h"

namespace triad {
namespace {

constexpr NodeId kTa = 100;

struct Cluster {
  explicit Cluster(std::size_t n, Duration net_delay = microseconds(200),
                   TriadConfig base = {}, obs::TraceSink* trace = nullptr)
      : harness(make_config(n, net_delay, trace)) {
    ta = &harness.make_time_authority();
    for (std::size_t i = 0; i < n; ++i) {
      nodes.push_back(&harness.add_node(base));
    }
    sim = &harness.simulation();
    net = &harness.network();
    keyring = &harness.keyring();
  }

  static runtime::ClusterConfig make_config(std::size_t n,
                                            Duration net_delay,
                                            obs::TraceSink* trace) {
    runtime::ClusterConfig config;
    config.seed = 1234;
    config.node_count = n;
    config.ta_address = kTa;
    config.delay = std::make_unique<net::FixedDelay>(net_delay);
    config.master_secret = Bytes(32, 9);
    config.obs.trace = trace;
    return config;
  }

  void start_all() { harness.start(); }

  runtime::ClusterHarness harness;
  ta::TimeAuthority* ta;
  std::vector<TriadNode*> nodes;
  sim::Simulation* sim;
  net::Network* net;
  const crypto::ClusterKeyring* keyring;
};

TEST(TriadNode, StartsInFullCalibAndReachesOk) {
  Cluster c(1);
  c.start_all();
  EXPECT_EQ(c.nodes[0]->state(), NodeState::kFullCalib);
  EXPECT_FALSE(c.nodes[0]->available());
  c.sim->run_until(seconds(30));
  EXPECT_EQ(c.nodes[0]->state(), NodeState::kOk);
  EXPECT_TRUE(c.nodes[0]->available());
  EXPECT_EQ(c.nodes[0]->stats().full_calibrations, 1u);
}

TEST(TriadNode, CalibratedFrequencyCloseToTruthWithSymmetricDelays) {
  Cluster c(1);  // fixed delay: zero jitter -> near-exact slope
  c.start_all();
  c.sim->run_until(seconds(30));
  EXPECT_NEAR(c.nodes[0]->calibrated_frequency_hz(),
              tsc::kPaperTscFrequencyHz, 1000.0);  // within ~0.3 ppm
}

TEST(TriadNode, ClockTracksReferenceAfterCalibration) {
  Cluster c(1);
  c.start_all();
  c.sim->run_until(seconds(30));
  // One-way delay offset: the node's clock is the TA stamp, ~200 us old.
  const SimTime drift = c.nodes[0]->current_time() - c.sim->now();
  EXPECT_LT(std::abs(drift - (-microseconds(200))), microseconds(100));
  c.sim->run_until(minutes(5));
  const SimTime later = c.nodes[0]->current_time() - c.sim->now();
  EXPECT_LT(std::abs(later), milliseconds(1));  // sub-ppm frequency error
}

TEST(TriadNode, ServeTimestampUnavailableUntilCalibrated) {
  Cluster c(1);
  c.start_all();
  EXPECT_FALSE(c.nodes[0]->serve_timestamp().has_value());
  EXPECT_EQ(c.nodes[0]->stats().serve_unavailable, 1u);
  c.sim->run_until(seconds(30));
  EXPECT_TRUE(c.nodes[0]->serve_timestamp().has_value());
}

TEST(TriadNode, ServedTimestampsStrictlyMonotonic) {
  Cluster c(1);
  c.start_all();
  c.sim->run_until(seconds(30));
  SimTime prev = 0;
  for (int i = 0; i < 1000; ++i) {
    const auto ts = c.nodes[0]->serve_timestamp();
    ASSERT_TRUE(ts.has_value());
    EXPECT_GT(*ts, prev);
    prev = *ts;
  }
  EXPECT_EQ(c.nodes[0]->stats().timestamps_served, 1000u);
}

TEST(TriadNode, MonotonicAcrossBackwardAdoption) {
  // Even if the clock is stepped backwards by an adoption, serving must
  // never go back.
  Cluster c(2);
  c.start_all();
  c.sim->run_until(seconds(30));
  auto& node = *c.nodes[0];
  const auto before = node.serve_timestamp();
  ASSERT_TRUE(before.has_value());
  // AEX -> peer round -> the peer's clock is behind (keep-local path).
  node.monitoring_thread().deliver_aex();
  c.sim->run_for(milliseconds(50));
  const auto after = node.serve_timestamp();
  ASSERT_TRUE(after.has_value());
  EXPECT_GT(*after, *before);
}

TEST(TriadNode, AexTaintsAndPeerUntaints) {
  Cluster c(2);
  c.start_all();
  c.sim->run_until(seconds(30));
  auto& node = *c.nodes[0];
  ASSERT_EQ(node.state(), NodeState::kOk);

  node.monitoring_thread().deliver_aex();
  EXPECT_EQ(node.state(), NodeState::kTainted);
  EXPECT_FALSE(node.serve_timestamp().has_value());

  c.sim->run_for(milliseconds(10));
  EXPECT_EQ(node.state(), NodeState::kOk);
  EXPECT_EQ(node.stats().peer_rounds, 1u);
  // Fixed equal hardware -> clocks nearly equal; either adopt or keep.
  EXPECT_EQ(node.stats().peer_adoptions + node.stats().kept_local, 1u);
  EXPECT_EQ(node.stats().ta_fallbacks, 0u);
}

TEST(TriadNode, AllPeersTaintedFallsBackToTa) {
  Cluster c(2);
  c.start_all();
  c.sim->run_until(seconds(30));
  const auto refs_before = c.nodes[0]->stats().ta_time_references;

  // Taint both nodes at the same instant (correlated machine AEX).
  c.nodes[0]->monitoring_thread().deliver_aex();
  c.nodes[1]->monitoring_thread().deliver_aex();
  c.sim->run_for(seconds(1));

  EXPECT_EQ(c.nodes[0]->state(), NodeState::kOk);
  EXPECT_EQ(c.nodes[1]->state(), NodeState::kOk);
  EXPECT_GT(c.nodes[0]->stats().ta_fallbacks, 0u);
  EXPECT_GT(c.nodes[0]->stats().ta_time_references, refs_before);
}

TEST(TriadNode, SoloNodeGoesStraightToTaOnAex) {
  Cluster c(1);
  c.start_all();
  c.sim->run_until(seconds(30));
  c.nodes[0]->monitoring_thread().deliver_aex();
  EXPECT_EQ(c.nodes[0]->state(), NodeState::kRefCalib);
  c.sim->run_for(seconds(1));
  EXPECT_EQ(c.nodes[0]->state(), NodeState::kOk);
  EXPECT_EQ(c.nodes[0]->stats().ta_fallbacks, 1u);
}

TEST(TriadNode, MaxPolicyFollowsFasterPeerClock) {
  Cluster c(2);
  c.start_all();
  c.sim->run_until(seconds(30));
  // Step node 2's clock 1 s into the future via its TSC (hypervisor
  // offset large enough to dominate); its INC monitor would catch this,
  // but node 1's adoption logic is what we exercise here.
  auto& fast = *c.nodes[1];
  fast.tsc().hv_add_offset(static_cast<std::int64_t>(
      tsc::kPaperTscFrequencyHz));  // +1 s worth of ticks

  auto& honest = *c.nodes[0];
  const SimTime before = honest.current_time();
  honest.monitoring_thread().deliver_aex();
  c.sim->run_for(milliseconds(10));

  EXPECT_EQ(honest.state(), NodeState::kOk);
  EXPECT_EQ(honest.stats().peer_adoptions, 1u);
  EXPECT_GT(honest.current_time(), before + milliseconds(900));
}

TEST(TriadNode, IncMonitorTriggersFullRecalibrationOnTscScale) {
  Cluster c(1);
  c.start_all();
  c.sim->run_until(seconds(30));
  auto& node = *c.nodes[0];
  ASSERT_EQ(node.stats().full_calibrations, 1u);

  node.tsc().hv_set_scale(1.01);  // 1% speedup: far beyond noise
  node.monitoring_thread().deliver_aex();
  EXPECT_EQ(node.stats().inc_check_failures, 1u);
  EXPECT_EQ(node.state(), NodeState::kFullCalib);
  EXPECT_EQ(node.stats().full_calibrations, 2u);

  c.sim->run_for(seconds(30));
  EXPECT_EQ(node.state(), NodeState::kOk);
  // Recalibrated against the scaled TSC: slope ≈ 1.01 * F.
  EXPECT_NEAR(node.calibrated_frequency_hz(),
              1.01 * tsc::kPaperTscFrequencyHz, 5e4);
}

TEST(TriadNode, IncMonitorDetectsTscOffsetJumpAtNextAex) {
  Cluster c(1);
  c.start_all();
  c.sim->run_until(seconds(30));
  auto& node = *c.nodes[0];
  ASSERT_EQ(node.stats().full_calibrations, 1u);

  c.sim->run_until(seconds(40));
  // Hypervisor jumps the TSC 1 s into the future between AEXs.
  node.tsc().hv_add_offset(static_cast<std::int64_t>(
      tsc::kPaperTscFrequencyHz));
  c.sim->run_until(seconds(41));
  node.monitoring_thread().deliver_aex();
  EXPECT_EQ(node.stats().inc_check_failures, 1u);
  EXPECT_EQ(node.stats().full_calibrations, 2u);
}

TEST(TriadNode, CalibrationSamplesRejectedWhenAexHitsMidRoundTrip) {
  TriadConfig base;
  base.calib_pairs = 4;
  Cluster c(1, microseconds(200), base);
  c.start_all();
  // Fire AEXs every 400 ms during calibration: every 1 s probe gets hit.
  auto& thread = c.nodes[0]->monitoring_thread();
  for (int i = 1; i <= 50; ++i) {
    c.sim->schedule_at(milliseconds(400) * i, [&] { thread.deliver_aex(); });
  }
  c.sim->run_until(seconds(60));
  EXPECT_GT(c.nodes[0]->stats().calib_samples_rejected, 0u);
  EXPECT_EQ(c.nodes[0]->state(), NodeState::kOk);  // eventually completes
}

TEST(TriadNode, AvailabilityAccountsUnavailableStates) {
  Cluster c(1);
  c.start_all();
  c.sim->run_until(minutes(10));
  const double availability = c.nodes[0]->availability();
  EXPECT_GT(availability, 0.97);  // paper: > 98% incl. initial calibration
  EXPECT_LT(availability, 1.0);   // initial calibration costs something
  const auto durations = c.nodes[0]->state_durations();
  EXPECT_GT(durations[static_cast<std::size_t>(NodeState::kFullCalib)], 0);
  const Duration total =
      durations[0] + durations[1] + durations[2] + durations[3];
  EXPECT_EQ(total, minutes(10));
}

TEST(TriadNode, ErrorBoundGrowsBetweenSyncsAndResets) {
  Cluster c(1);
  c.start_all();
  c.sim->run_until(seconds(30));
  const Duration e0 = c.nodes[0]->current_error_bound();
  c.sim->run_for(minutes(5));
  const Duration e1 = c.nodes[0]->current_error_bound();
  EXPECT_GT(e1, e0);
  // TA refresh resets the bound.
  c.nodes[0]->monitoring_thread().deliver_aex();
  c.sim->run_for(seconds(1));
  EXPECT_LT(c.nodes[0]->current_error_bound(), e1);
}

TEST(TriadNode, TaTimeoutTriggersResend) {
  Cluster c(1);
  // Drop everything to/from the TA for the first 10 s.
  class Blackhole final : public net::Middlebox {
   public:
    Action on_packet(const net::Packet&, SimTime now) override {
      return {.extra_delay = 0, .drop = now < seconds(10)};
    }
  } blackhole;
  c.net->add_middlebox(&blackhole);
  c.start_all();
  c.sim->run_until(seconds(60));
  EXPECT_EQ(c.nodes[0]->state(), NodeState::kOk);  // recovered via resend
  c.net->remove_middlebox(&blackhole);
}

TEST(TriadNode, HooksFireOnStateChangesAndAdoptions) {
  // Counts node 1's state changes and adoptions off the trace stream.
  struct CountingSink final : obs::TraceSink {
    void emit(const obs::TraceEvent& event) override {
      if (event.node != 1) return;
      if (event.type == obs::TraceEventType::kStateChange) ++state_changes;
      if (event.type == obs::TraceEventType::kAdoption) {
        ++adoptions;
        EXPECT_EQ(event.peer, kTa);  // initial calibration adopts from the TA
      }
    }
    int state_changes = 0;
    int adoptions = 0;
  } sink;
  Cluster c(2, microseconds(200), {}, &sink);
  ASSERT_EQ(c.nodes[0]->config().id, 1u);
  c.start_all();
  c.sim->run_until(seconds(30));
  EXPECT_GE(sink.state_changes, 1);  // FullCalib -> Ok
  EXPECT_EQ(sink.adoptions, 1);
}

TEST(TriadNode, InvalidConfigRejected) {
  Cluster c(1);
  TriadConfig bad;
  bad.id = 50;
  bad.ta_address = kTa;
  bad.calib_pairs = 0;
  EXPECT_THROW(TriadNode(c.harness.env(), *c.keyring, bad,
                         TriadNode::HardwareParams{}),
               std::invalid_argument);
  bad.calib_pairs = 4;
  bad.calib_wait_high = bad.calib_wait_low;
  EXPECT_THROW(TriadNode(c.harness.env(), *c.keyring, bad,
                         TriadNode::HardwareParams{}),
               std::invalid_argument);
}

TEST(TriadNode, StartTwiceThrows) {
  Cluster c(1);
  c.start_all();
  EXPECT_THROW(c.nodes[0]->start(), std::logic_error);
}

TEST(TriadNode, TrueTimeIntervalContainsReference) {
  Cluster c(1);
  c.start_all();
  c.sim->run_until(seconds(30));
  auto& node = *c.nodes[0];
  for (int i = 0; i < 60; ++i) {
    c.sim->run_for(seconds(10));
    const auto interval = node.now_interval();
    ASSERT_TRUE(interval.has_value());
    // The true reference time (sim.now) lies within the bounds: the
    // node's real drift (sub-ppm with fixed delays) is far below the
    // assumed 500 ppm bound.
    EXPECT_LE(interval->earliest, c.sim->now());
    EXPECT_GE(interval->latest, c.sim->now());
    EXPECT_LT(interval->latest - interval->earliest, seconds(2));
  }
}

TEST(TriadNode, TrueTimeIntervalEndpointsMonotonic) {
  Cluster c(2);
  c.start_all();
  c.sim->run_until(seconds(30));
  auto& node = *c.nodes[0];
  auto prev = node.now_interval();
  ASSERT_TRUE(prev.has_value());
  for (int i = 0; i < 200; ++i) {
    c.sim->run_for(milliseconds(200));
    if (i == 50) node.monitoring_thread().deliver_aex();  // resync jolt
    const auto interval = node.now_interval();
    if (!interval) continue;  // briefly tainted
    EXPECT_GE(interval->earliest, prev->earliest);
    EXPECT_GE(interval->latest, prev->latest);
    prev = interval;
  }
}

TEST(TriadNode, TrueTimeIntervalUnavailableWhileTainted) {
  Cluster c(2);
  c.start_all();
  c.sim->run_until(seconds(30));
  c.nodes[0]->monitoring_thread().deliver_aex();
  EXPECT_FALSE(c.nodes[0]->now_interval().has_value());
}

TEST(TriadNode, ProactiveDeadlineChecksKeepNodeAvailable) {
  TriadConfig base;
  base.refresh_deadline = seconds(5);
  Cluster c(3, microseconds(200), base);
  c.start_all();
  c.sim->run_until(minutes(5));
  auto& node = *c.nodes[0];
  // Deadline checks fired regularly...
  EXPECT_GT(node.stats().proactive_checks, 40u);
  // ...without making the node unavailable (no AEXs in this fixture, so
  // only the initial calibration costs availability).
  EXPECT_GT(node.availability(), 0.95);
  EXPECT_EQ(node.state(), NodeState::kOk);
}

TEST(TriadNode, PeerAnswersCarryErrorBounds) {
  // A peer's PeerTimeResponse includes its self-reported error bound,
  // which the receiving policy sees in its samples.
  Cluster c(2);
  c.start_all();
  c.sim->run_until(seconds(30));
  // Make node 2's bound large by aging it: no sync for 10 minutes.
  c.sim->run_for(minutes(10));
  const Duration bound = c.nodes[1]->current_error_bound();
  EXPECT_GT(bound, milliseconds(100));  // 500 ppm * 600 s = 300 ms
  EXPECT_LT(bound, milliseconds(600));
}

TEST(TriadNode, LongWindowCalibrationConvergesToTrueFrequency) {
  TriadConfig base;
  base.long_window_calibration = true;
  base.long_window_min = seconds(60);
  Cluster c(1, microseconds(200), base);
  c.start_all();
  c.sim->run_until(seconds(30));

  // Corrupt the calibrated frequency as an F-style attack would, then
  // force TA reference refreshes a long window apart.
  auto& node = *c.nodes[0];
  ASSERT_EQ(node.state(), NodeState::kOk);

  node.monitoring_thread().deliver_aex();  // -> TA (solo node)
  c.sim->run_for(seconds(2));
  c.sim->run_for(seconds(120));
  node.monitoring_thread().deliver_aex();  // second TA anchor, 120 s later
  c.sim->run_for(seconds(2));

  EXPECT_NEAR(node.calibrated_frequency_hz(), tsc::kPaperTscFrequencyHz,
              0.3e4);  // ~1 ppm of 2.9 GHz ≈ 2.9 kHz
}

}  // namespace
}  // namespace triad
