// T3E baseline: TPM clock model (drift envelope, command latency,
// attacker delays) and the T3E node's quota/stall semantics.
#include <gtest/gtest.h>

#include "runtime/sim_env.h"
#include "sim/simulation.h"
#include "t3e/t3e_node.h"
#include "t3e/tpm.h"

namespace triad::t3e {
namespace {

struct TpmFixture {
  sim::Simulation sim{42};
  runtime::SimEnv env{sim};
  Tpm tpm{env, TpmParams{}, Rng(7)};
};

TEST(Tpm, ClockAdvancesAtConfiguredRate) {
  sim::Simulation sim;
  runtime::SimEnv env{sim};
  Tpm tpm(env, TpmParams{.rate = 1.0}, Rng(1));
  sim.run_until(seconds(10));
  EXPECT_NEAR(static_cast<double>(tpm.clock_now()),
              static_cast<double>(seconds(10)), 2.0);
}

TEST(Tpm, MisconfiguredRateDrifts) {
  sim::Simulation sim;
  runtime::SimEnv env{sim};
  Tpm tpm(env, TpmParams{.rate = 1.325}, Rng(1));  // spec maximum
  sim.run_until(seconds(100));
  EXPECT_NEAR(to_seconds(tpm.clock_now()), 132.5, 0.01);
}

TEST(Tpm, RateChangeKeepsClockContinuous) {
  sim::Simulation sim;
  runtime::SimEnv env{sim};
  Tpm tpm(env, TpmParams{}, Rng(1));
  sim.run_until(seconds(5));
  const SimTime before = tpm.clock_now();
  tpm.configure_rate(0.675);
  EXPECT_NEAR(static_cast<double>(tpm.clock_now()),
              static_cast<double>(before), 2.0);
  sim.run_until(seconds(15));
  EXPECT_NEAR(to_seconds(tpm.clock_now()), 5.0 + 10.0 * 0.675, 0.01);
}

TEST(Tpm, RateOutsideSpecEnvelopeThrows) {
  sim::Simulation sim;
  runtime::SimEnv env{sim};
  EXPECT_THROW(Tpm(env, TpmParams{.rate = 0.5}, Rng(1)),
               std::invalid_argument);
  Tpm tpm(env, TpmParams{}, Rng(1));
  EXPECT_THROW(tpm.configure_rate(1.4), std::invalid_argument);
  EXPECT_THROW(tpm.configure_rate(0.6), std::invalid_argument);
}

TEST(Tpm, ReadClockDeliversAfterLatency) {
  TpmFixture f;
  SimTime delivered_at = -1;
  SimTime value = -1;
  f.tpm.read_clock([&](SimTime t) {
    delivered_at = f.sim.now();
    value = t;
  });
  f.sim.run();
  EXPECT_GE(delivered_at, milliseconds(3));
  EXPECT_LT(delivered_at, milliseconds(5));
  // Sampled mid-flight, before the response travelled back.
  EXPECT_LT(value, delivered_at);
  EXPECT_EQ(f.tpm.commands_served(), 1u);
}

TEST(Tpm, AttackerDelayHookPostponesDelivery) {
  TpmFixture f;
  f.tpm.set_response_delay_hook([] { return seconds(1); });
  SimTime delivered_at = -1;
  SimTime value = -1;
  f.tpm.read_clock([&](SimTime t) {
    delivered_at = f.sim.now();
    value = t;
  });
  f.sim.run();
  EXPECT_GE(delivered_at, seconds(1));
  // The sampled value is from before the delay: the timestamp is stale
  // by ~1 s on arrival — exactly what T3E's quotas defend against.
  EXPECT_LT(value, milliseconds(10));
}

TEST(Tpm, NullCallbackThrows) {
  TpmFixture f;
  EXPECT_THROW(f.tpm.read_clock(nullptr), std::invalid_argument);
}

struct T3eFixture {
  T3eFixture() { node.start(); }
  sim::Simulation sim{42};
  runtime::SimEnv env{sim};
  Tpm tpm{env, TpmParams{}, Rng(7)};
  T3eConfig config{};
  T3eNode node{env, tpm, config};
};

TEST(T3eNode, ServesAfterFirstRead) {
  T3eFixture f;
  EXPECT_FALSE(f.node.serve_timestamp().has_value());  // nothing yet
  f.sim.run_until(milliseconds(10));
  const auto ts = f.node.serve_timestamp();
  ASSERT_TRUE(ts.has_value());
  // TPM honest: served time within refresh-period + latency of truth.
  EXPECT_LT(std::abs(*ts - f.sim.now()), milliseconds(10));
}

TEST(T3eNode, TimestampsMonotonic) {
  T3eFixture f;
  f.sim.run_until(milliseconds(10));
  SimTime prev = 0;
  for (int i = 0; i < 50; ++i) {
    f.sim.run_for(milliseconds(1));
    if (const auto ts = f.node.serve_timestamp()) {
      EXPECT_GT(*ts, prev);
      prev = *ts;
    }
  }
}

TEST(T3eNode, HonestStalenessBoundedByRefreshPeriod) {
  T3eFixture f;
  f.sim.run_until(seconds(10));
  const auto ts = f.node.serve_timestamp();
  ASSERT_TRUE(ts.has_value());
  // Raw reading: behind truth by at most refresh period + latency.
  EXPECT_LT(f.sim.now() - *ts,
            f.config.refresh_period + milliseconds(10));
  EXPECT_GE(f.sim.now() - *ts, 0);
}

TEST(T3eNode, UseQuotaStallsServing) {
  sim::Simulation sim(1);
  runtime::SimEnv env{sim};
  Tpm tpm(env, TpmParams{}, Rng(2));
  T3eConfig config;
  config.max_uses = 5;
  config.refresh_period = seconds(10);  // no refresh within the test
  T3eNode node(env, tpm, config);
  node.start();
  sim.run_until(milliseconds(10));

  for (int i = 0; i < 5; ++i) {
    EXPECT_TRUE(node.serve_timestamp().has_value()) << i;
  }
  EXPECT_FALSE(node.available());
  EXPECT_FALSE(node.serve_timestamp().has_value());
  EXPECT_EQ(node.stats().stalled, 1u);
}

TEST(T3eNode, QuotaReplenishedByFreshReading) {
  sim::Simulation sim(1);
  runtime::SimEnv env{sim};
  Tpm tpm(env, TpmParams{}, Rng(2));
  T3eConfig config;
  config.max_uses = 2;
  config.refresh_period = milliseconds(20);
  T3eNode node(env, tpm, config);
  node.start();
  sim.run_until(milliseconds(10));
  EXPECT_TRUE(node.serve_timestamp().has_value());
  EXPECT_TRUE(node.serve_timestamp().has_value());
  EXPECT_FALSE(node.serve_timestamp().has_value());
  sim.run_until(milliseconds(40));  // next refresh landed
  EXPECT_TRUE(node.serve_timestamp().has_value());
}

TEST(T3eNode, BlockingTpmResponsesCausesStallNotSilentStretch) {
  // The §II-A contrast with Triad: to stretch one timestamp forever the
  // attacker must block fresh readings — then the quota depletes and the
  // node goes loudly unavailable instead of serving stretched time.
  sim::Simulation sim(1);
  runtime::SimEnv env{sim};
  Tpm tpm(env, TpmParams{}, Rng(2));
  T3eConfig config;
  config.max_uses = 10;
  config.refresh_period = milliseconds(50);
  T3eNode node(env, tpm, config);
  node.start();
  sim.run_until(seconds(1));  // healthy warm-up

  tpm.set_response_delay_hook([] { return hours(10); });  // blockade
  int served = 0, refused = 0;
  runtime::PeriodicTimer load(env, milliseconds(5), [&] {
    if (node.serve_timestamp()) {
      ++served;
    } else {
      ++refused;
    }
  });
  sim.run_until(seconds(11));
  // At most one quota's worth of answers after the blockade begins.
  EXPECT_LE(served, 10 + 1);
  EXPECT_GT(refused, 1900);
}

TEST(T3eNode, SteadyDelayShiftsTimeBoundedByDelay) {
  // Uniform 300 ms response delaying: served time lags truth by ~300 ms
  // plus the refresh period — bounded, unlike Triad's compounding F-.
  sim::Simulation sim(1);
  runtime::SimEnv env{sim};
  Tpm tpm(env, TpmParams{}, Rng(2));
  tpm.set_response_delay_hook([] { return milliseconds(300); });
  T3eNode node(env, tpm, T3eConfig{});
  node.start();
  sim.run_until(seconds(10));
  const auto ts = node.serve_timestamp();
  ASSERT_TRUE(ts.has_value());
  const Duration lag = sim.now() - *ts;
  EXPECT_GT(lag, milliseconds(280));
  EXPECT_LT(lag, milliseconds(400));
}

TEST(T3eNode, TpmRateAttackIsInvisibleToT3e) {
  // ±32.5 % TPM drift: the node keeps serving happily while its notion
  // of time races ahead — T3E has no cross-check (unlike Triad's INC
  // monitor + peers).
  sim::Simulation sim(1);
  runtime::SimEnv env{sim};
  Tpm tpm(env, TpmParams{.rate = 1.325}, Rng(2));
  T3eNode node(env, tpm, T3eConfig{});
  node.start();
  sim.run_until(seconds(100));
  const auto ts = node.serve_timestamp();
  ASSERT_TRUE(ts.has_value());
  // ~32.5 s of silent forward drift after 100 s.
  EXPECT_GT(*ts - sim.now(), seconds(30));
  EXPECT_EQ(node.stats().stalled, 0u);
}

TEST(T3eNode, StaleReorderedReadingIgnored) {
  sim::Simulation sim(1);
  runtime::SimEnv env{sim};
  Tpm tpm(env, TpmParams{}, Rng(2));
  // First response delayed 500 ms, later ones fast: the late (older)
  // response must not overwrite a newer reading.
  int call = 0;
  tpm.set_response_delay_hook([&call]() -> Duration {
    return ++call == 1 ? milliseconds(500) : 0;
  });
  T3eConfig config;
  config.refresh_period = milliseconds(50);
  T3eNode node(env, tpm, config);
  node.start();
  sim.run_until(seconds(2));
  const auto ts = node.serve_timestamp();
  ASSERT_TRUE(ts.has_value());
  EXPECT_LT(std::abs(*ts - sim.now()), milliseconds(60));
}

TEST(T3eNode, InvalidConfigThrows) {
  sim::Simulation sim(1);
  runtime::SimEnv env{sim};
  Tpm tpm(env, TpmParams{}, Rng(2));
  T3eConfig bad;
  bad.max_uses = 0;
  EXPECT_THROW(T3eNode(env, tpm, bad), std::invalid_argument);
  bad = {};
  bad.refresh_period = 0;
  EXPECT_THROW(T3eNode(env, tpm, bad), std::invalid_argument);
}

TEST(T3eNode, StartTwiceThrows) {
  T3eFixture f;
  EXPECT_THROW(f.node.start(), std::logic_error);
}

}  // namespace
}  // namespace triad::t3e
