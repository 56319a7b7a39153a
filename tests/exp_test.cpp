// Experiment harness: Scenario wiring and Recorder instrumentation.
#include <gtest/gtest.h>

#include "exp/recorder.h"
#include "exp/scenario.h"

namespace triad::exp {
namespace {

TEST(Scenario, AddressingIsStable) {
  ScenarioConfig cfg;
  cfg.seed = 1;
  cfg.node_count = 4;
  Scenario sc(std::move(cfg));
  EXPECT_EQ(sc.node_address(0), 1u);
  EXPECT_EQ(sc.node_address(3), 4u);
  EXPECT_EQ(sc.ta_address(), 5u);
  EXPECT_EQ(sc.node_count(), 4u);
}

TEST(Scenario, NodesGetFullPeerLists) {
  ScenarioConfig cfg;
  cfg.seed = 1;
  cfg.node_count = 3;
  Scenario sc(std::move(cfg));
  for (std::size_t i = 0; i < 3; ++i) {
    const auto& config = sc.node(i).config();
    EXPECT_EQ(config.peers.size(), 2u);
    EXPECT_EQ(config.ta_address, sc.ta_address());
    for (NodeId peer : config.peers) {
      EXPECT_NE(peer, config.id);
    }
  }
}

TEST(Scenario, MakeDistributionCoversEnvironments) {
  EXPECT_NE(make_distribution(AexEnvironment::kTriadLike), nullptr);
  EXPECT_NE(make_distribution(AexEnvironment::kLowAex), nullptr);
  EXPECT_EQ(make_distribution(AexEnvironment::kNone), nullptr);
}

TEST(Scenario, NoneEnvironmentSeesNoAex) {
  ScenarioConfig cfg;
  cfg.seed = 2;
  cfg.machine_interrupts = false;
  cfg.environments = {AexEnvironment::kNone, AexEnvironment::kNone,
                      AexEnvironment::kNone};
  Scenario sc(std::move(cfg));
  sc.start();
  sc.run_until(minutes(30));
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(sc.node(i).stats().aex_count, 0u);
  }
}

TEST(Scenario, TriadLikeEnvironmentProducesExpectedAexRate) {
  ScenarioConfig cfg;
  cfg.seed = 3;
  cfg.machine_interrupts = false;
  Scenario sc(std::move(cfg));
  sc.start();
  sc.run_until(minutes(10));
  // Mean inter-AEX gap = (10+532+1590)/3 ms ≈ 710 ms -> ~845 per 10 min.
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_NEAR(static_cast<double>(sc.node(i).stats().aex_count), 845.0,
                120.0);
  }
}

TEST(Scenario, EnvironmentSwitchChangesAexRate) {
  ScenarioConfig cfg;
  cfg.seed = 4;
  cfg.machine_interrupts = false;
  cfg.environments = {AexEnvironment::kNone, AexEnvironment::kNone,
                      AexEnvironment::kNone};
  Scenario sc(std::move(cfg));
  sc.switch_environment_at(0, AexEnvironment::kTriadLike, minutes(5));
  sc.start();
  sc.run_until(minutes(5));
  EXPECT_EQ(sc.node(0).stats().aex_count, 0u);
  sc.run_until(minutes(10));
  EXPECT_GT(sc.node(0).stats().aex_count, 300u);
  EXPECT_EQ(sc.node(1).stats().aex_count, 0u);  // others untouched
}

TEST(Scenario, MachineInterruptsHitMultipleNodesTogether) {
  ScenarioConfig cfg;
  cfg.seed = 5;
  cfg.machine_full_hit_probability = 1.0;
  cfg.environments = {AexEnvironment::kLowAex, AexEnvironment::kLowAex,
                      AexEnvironment::kLowAex};
  Scenario sc(std::move(cfg));
  sc.start();
  sc.run_until(hours(1));
  ASSERT_NE(sc.machine_hub(), nullptr);
  EXPECT_GT(sc.machine_hub()->interrupts_fired(), 5u);
  // All nodes saw exactly the hub's interrupts.
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(sc.node(i).stats().aex_count,
              sc.machine_hub()->interrupts_fired());
  }
}

TEST(Scenario, MachinesGetIndependentInterruptHubs) {
  ScenarioConfig cfg;
  cfg.seed = 10;
  cfg.machine_full_hit_probability = 1.0;
  cfg.environments = {AexEnvironment::kLowAex, AexEnvironment::kLowAex,
                      AexEnvironment::kLowAex};
  cfg.machine_of = {0, 0, 1};  // node 3 on its own machine
  Scenario sc(std::move(cfg));
  EXPECT_EQ(sc.machine_count(), 2u);
  sc.start();
  sc.run_until(hours(2));
  // Nodes 1 and 2 share every interrupt; node 3's are independent.
  EXPECT_EQ(sc.node(0).stats().aex_count, sc.node(1).stats().aex_count);
  EXPECT_EQ(sc.node(0).monitoring_thread().last_aex_time(),
            sc.node(1).monitoring_thread().last_aex_time());
  EXPECT_NE(sc.node(2).monitoring_thread().last_aex_time(),
            sc.node(0).monitoring_thread().last_aex_time());
}

TEST(Scenario, WanLinksApplyBetweenMachinesOnly) {
  ScenarioConfig cfg;
  cfg.seed = 11;
  cfg.machine_interrupts = false;
  cfg.machine_of = {0, 0, 1};
  cfg.wan_base_delay = milliseconds(50);
  cfg.wan_jitter = microseconds(100);
  Scenario sc(std::move(cfg));

  // Round-trip probe node1 <-> node2 (same machine) vs node1 <-> node3.
  SimTime local_arrival = -1, wan_arrival = -1;
  sc.network().attach(90, [&](const net::Packet& p) {
    (void)p;
  });
  // Measure one-way delays directly via raw sends to the nodes; the
  // nodes will drop unauthenticated junk but the delivery time is what
  // the middlebox-free network decides. Attach probes instead:
  sc.network().attach(91, [&](const net::Packet&) {
    local_arrival = sc.simulation().now();
  });
  sc.network().attach(92, [&](const net::Packet&) {
    wan_arrival = sc.simulation().now();
  });
  // 91/92 are extra endpoints on no particular machine; use node
  // addresses as sources to exercise the per-link override.
  sc.network().send(sc.node_address(0), 91, Bytes{1});  // default delay
  sc.simulation().run_until(seconds(1));
  // node1 -> node3 crosses machines.
  SimTime n3_arrival = -1;
  sc.network().detach(sc.node_address(2));
  sc.network().attach(sc.node_address(2), [&](const net::Packet&) {
    n3_arrival = sc.simulation().now();
  });
  const SimTime sent_at = sc.simulation().now();
  sc.network().send(sc.node_address(0), sc.node_address(2), Bytes{1});
  sc.run_for(seconds(1));
  EXPECT_GE(n3_arrival - sent_at, milliseconds(50));
  EXPECT_LT(n3_arrival - sent_at, milliseconds(60));
  // The probe through the default path was LAN-fast.
  EXPECT_GE(local_arrival, 0);
  EXPECT_LT(local_arrival, milliseconds(5));
}

TEST(Scenario, GeoDistributedClusterStillCalibrates) {
  ScenarioConfig cfg;
  cfg.seed = 12;
  cfg.machine_of = {0, 1, 2};  // one node per site
  Scenario sc(std::move(cfg));
  sc.start();
  sc.run_until(minutes(10));
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(sc.node(i).state(), NodeState::kOk);
    // Symmetric WAN delay cancels in the slope: F_calib stays accurate.
    EXPECT_NEAR(sc.node(i).calibrated_frequency_hz(),
                tsc::kPaperTscFrequencyHz, 1.5e6);
  }
  // Reference offset of a TA-remote node ≈ one-way WAN delay (~20 ms
  // behind), visible as negative drift right after calibration.
  EXPECT_LT(sc.node(1).current_time() - sc.simulation().now(),
            -milliseconds(5));
}

TEST(Scenario, AttestedKeysRunTheFullProtocol) {
  // Production path: channel keys come from X25519 attestation
  // handshakes instead of a provisioned secret; the protocol must behave
  // identically.
  ScenarioConfig cfg;
  cfg.seed = 13;
  cfg.attested_keys = true;
  Scenario sc(std::move(cfg));
  sc.start();
  sc.run_until(minutes(5));
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(sc.node(i).state(), NodeState::kOk);
    EXPECT_NEAR(sc.node(i).calibrated_frequency_hz(),
                tsc::kPaperTscFrequencyHz, 0.6e6);
    EXPECT_EQ(sc.node(i).stats().bad_frames, 0u);
  }
  EXPECT_EQ(sc.time_authority().stats().rejected_frames, 0u);
}

TEST(Recorder, SeriesNamesAndSampling) {
  ScenarioConfig cfg;
  cfg.seed = 6;
  Scenario sc(std::move(cfg));
  Recorder rec(sc, seconds(2));
  sc.start();
  sc.run_until(minutes(2));

  EXPECT_EQ(rec.drift_ms(0).name(), "drift_ms_node1");
  EXPECT_EQ(rec.ta_references(2).name(), "ta_refs_node3");
  // 2 s sampling over 120 s -> 60 samples for counters; drift starts
  // only after calibration completes.
  EXPECT_EQ(rec.aex_count(0).samples().size(), 60u);
  EXPECT_GT(rec.drift_ms(0).samples().size(), 30u);
  EXPECT_LT(rec.drift_ms(0).samples().size(), 61u);
}

TEST(Recorder, StateChangesRecorded) {
  ScenarioConfig cfg;
  cfg.seed = 7;
  Scenario sc(std::move(cfg));
  Recorder rec(sc);
  sc.start();
  sc.run_until(minutes(2));
  // Every node at least went FullCalib -> Ok.
  bool saw_calib_to_ok = false;
  for (const auto& ev : rec.state_changes()) {
    if (ev.from == NodeState::kFullCalib && ev.to == NodeState::kOk) {
      saw_calib_to_ok = true;
    }
  }
  EXPECT_TRUE(saw_calib_to_ok);
  // State series mirror the change log.
  EXPECT_FALSE(rec.state(0).empty());
}

TEST(Recorder, AdoptionsCarrySourceAndStep) {
  ScenarioConfig cfg;
  cfg.seed = 8;
  Scenario sc(std::move(cfg));
  Recorder rec(sc);
  sc.start();
  sc.run_until(minutes(5));
  ASSERT_FALSE(rec.adoptions().empty());
  for (const auto& adoption : rec.adoptions()) {
    EXPECT_LT(adoption.node, 3u);
    EXPECT_NE(adoption.source, 0u);
    EXPECT_GT(adoption.at, 0);
  }
}

TEST(Recorder, EventsMatchTraceRing) {
  // The Recorder is a leg of the same tee as the ring and the detector
  // bank, so its adoptions and state changes are the ring's kAdoption
  // and kStateChange events, one for one and in order.
  ScenarioConfig cfg;
  cfg.seed = 17;
  cfg.trace_capacity = 1 << 20;
  cfg.enable_detectors = true;
  Scenario sc(std::move(cfg));
  attacks::DelayAttackConfig attack;
  attack.kind = attacks::AttackKind::kFMinus;
  attack.victim = sc.node_address(2);
  attack.ta_address = sc.ta_address();
  sc.add_delay_attack(attack);
  Recorder rec(sc);
  sc.start();
  sc.run_until(minutes(5));
  ASSERT_EQ(sc.trace()->dropped(), 0u);

  std::size_t adoptions = 0;
  std::size_t state_changes = 0;
  std::size_t peer_adoptions = 0;
  sc.trace()->for_each([&](const obs::TraceEvent& event) {
    if (event.type == obs::TraceEventType::kAdoption) {
      ASSERT_LT(adoptions, rec.adoptions().size());
      const AdoptionEvent& got = rec.adoptions()[adoptions++];
      EXPECT_EQ(got.at, event.at);
      EXPECT_EQ(sc.node_address(got.node), event.node);
      EXPECT_EQ(got.local_before, event.a);
      EXPECT_EQ(got.adopted, event.b);
      EXPECT_EQ(got.source, event.peer);
      if (got.source != sc.ta_address()) ++peer_adoptions;
    } else if (event.type == obs::TraceEventType::kStateChange) {
      ASSERT_LT(state_changes, rec.state_changes().size());
      const StateChangeEvent& got = rec.state_changes()[state_changes++];
      EXPECT_EQ(got.at, event.at);
      EXPECT_EQ(sc.node_address(got.node), event.node);
      EXPECT_EQ(static_cast<std::int64_t>(got.from), event.a);
      EXPECT_EQ(static_cast<std::int64_t>(got.to), event.b);
    }
  });
  EXPECT_EQ(adoptions, rec.adoptions().size());
  EXPECT_EQ(state_changes, rec.state_changes().size());
  EXPECT_GT(peer_adoptions, 0u);
  EXPECT_GT(state_changes, 3u);
}

TEST(Recorder, DriftRateOfCleanNodeIsSmall) {
  ScenarioConfig cfg;
  cfg.seed = 9;
  cfg.machine_interrupts = false;
  cfg.environments = {AexEnvironment::kNone, AexEnvironment::kNone,
                      AexEnvironment::kNone};
  Scenario sc(std::move(cfg));
  Recorder rec(sc);
  sc.start();
  sc.run_until(minutes(10));
  // Pure extrapolation at the calibrated frequency: |rate| < 1 ms/s.
  EXPECT_LT(std::abs(rec.drift_rate_ms_per_s(0, minutes(1), minutes(10))),
            1.0);
}

}  // namespace
}  // namespace triad::exp
