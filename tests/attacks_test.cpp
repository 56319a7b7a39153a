// DelayAttack middlebox: traffic classification and targeting, plus the
// original-policy unit behaviour it exploits.
#include <gtest/gtest.h>

#include "attacks/delay_attack.h"
#include "attacks/ramp_attack.h"
#include "triad/policy.h"

namespace triad::attacks {
namespace {

net::Packet packet(NodeId src, NodeId dst) {
  return net::Packet{src, dst, {}, 0, 0};
}

struct AttackFixture {
  DelayAttackConfig config{.kind = AttackKind::kFPlus,
                           .victim = 3,
                           .ta_address = 100,
                           .added_delay = milliseconds(100)};
};

TEST(DelayAttack, FPlusDelaysOnlySlowResponses) {
  AttackFixture f;
  DelayAttack attack(f.config);

  // 1 s-sleep round-trip: request at t=0, response at t=1s.
  EXPECT_EQ(attack.on_packet(packet(3, 100), 0).extra_delay, 0);
  const auto slow = attack.on_packet(packet(100, 3), seconds(1));
  EXPECT_EQ(slow.extra_delay, milliseconds(100));
  EXPECT_FALSE(slow.drop);

  // 0 s-sleep round-trip: response 1 ms later -> untouched.
  EXPECT_EQ(attack.on_packet(packet(3, 100), seconds(2)).extra_delay, 0);
  const auto fast = attack.on_packet(packet(100, 3),
                                     seconds(2) + milliseconds(1));
  EXPECT_EQ(fast.extra_delay, 0);
}

TEST(DelayAttack, FMinusDelaysOnlyFastResponses) {
  AttackFixture f;
  f.config.kind = AttackKind::kFMinus;
  DelayAttack attack(f.config);

  attack.on_packet(packet(3, 100), 0);
  EXPECT_EQ(attack.on_packet(packet(100, 3), seconds(1)).extra_delay, 0);

  attack.on_packet(packet(3, 100), seconds(2));
  EXPECT_EQ(attack
                .on_packet(packet(100, 3), seconds(2) + milliseconds(1))
                .extra_delay,
            milliseconds(100));
}

TEST(DelayAttack, IgnoresOtherTraffic) {
  AttackFixture f;
  DelayAttack attack(f.config);
  // Peer-to-peer and other nodes' TA traffic pass untouched.
  EXPECT_EQ(attack.on_packet(packet(1, 2), 0).extra_delay, 0);
  EXPECT_EQ(attack.on_packet(packet(1, 100), 0).extra_delay, 0);
  EXPECT_EQ(attack.on_packet(packet(100, 1), seconds(1)).extra_delay, 0);
  EXPECT_EQ(attack.stats().requests_observed, 0u);
}

TEST(DelayAttack, UnsolicitedResponseNotClassified) {
  AttackFixture f;
  DelayAttack attack(f.config);
  // Response with no observed request: nothing to infer, no delay.
  EXPECT_EQ(attack.on_packet(packet(100, 3), seconds(5)).extra_delay, 0);
}

TEST(DelayAttack, DeactivationStopsInterference) {
  AttackFixture f;
  DelayAttack attack(f.config);
  attack.set_active(false);
  attack.on_packet(packet(3, 100), 0);
  EXPECT_EQ(attack.on_packet(packet(100, 3), seconds(1)).extra_delay, 0);
  attack.set_active(true);
  attack.on_packet(packet(3, 100), seconds(2));
  EXPECT_EQ(attack.on_packet(packet(100, 3), seconds(3)).extra_delay,
            milliseconds(100));
}

TEST(DelayAttack, StatsCountObservationsAndDelays) {
  AttackFixture f;
  DelayAttack attack(f.config);
  attack.on_packet(packet(3, 100), 0);
  attack.on_packet(packet(100, 3), seconds(1));     // delayed
  attack.on_packet(packet(3, 100), seconds(2));
  attack.on_packet(packet(100, 3), seconds(2) + 1);  // not delayed
  EXPECT_EQ(attack.stats().requests_observed, 2u);
  EXPECT_EQ(attack.stats().responses_observed, 2u);
  EXPECT_EQ(attack.stats().responses_delayed, 1u);
}

TEST(RampAttack, DelayGrowsLinearlyThenSaturates) {
  RampAttackConfig config;
  config.victim = 3;
  config.ta_address = 100;
  config.ramp_per_second = 10e-3;  // +10 ms per second
  config.max_delay = milliseconds(100);
  RampAttack attack(config);

  // First targeted packet starts the ramp.
  EXPECT_EQ(attack.on_packet(packet(100, 3), seconds(10)).extra_delay, 0);
  EXPECT_EQ(attack.on_packet(packet(100, 3), seconds(15)).extra_delay,
            milliseconds(50));
  // Saturation after 10 s of ramp.
  EXPECT_EQ(attack.on_packet(packet(100, 3), seconds(60)).extra_delay,
            milliseconds(100));
}

TEST(RampAttack, OnlyTaToVictimTargeted) {
  RampAttackConfig config;
  config.victim = 3;
  config.ta_address = 100;
  RampAttack attack(config);
  attack.on_packet(packet(100, 3), 0);  // start ramp
  EXPECT_EQ(attack.on_packet(packet(3, 100), seconds(10)).extra_delay, 0);
  EXPECT_EQ(attack.on_packet(packet(100, 1), seconds(10)).extra_delay, 0);
  EXPECT_EQ(attack.on_packet(packet(1, 2), seconds(10)).extra_delay, 0);
}

TEST(RampAttack, DeactivationStopsDelay) {
  RampAttackConfig config;
  config.victim = 3;
  config.ta_address = 100;
  RampAttack attack(config);
  attack.on_packet(packet(100, 3), 0);
  attack.set_active(false);
  EXPECT_EQ(attack.on_packet(packet(100, 3), seconds(50)).extra_delay, 0);
}

TEST(RampAttack, InvalidConfigThrows) {
  EXPECT_THROW(RampAttack({.victim = 5, .ta_address = 5}),
               std::invalid_argument);
  EXPECT_THROW(RampAttack({.victim = 1, .ta_address = 2,
                           .ramp_per_second = 0}),
               std::invalid_argument);
}

TEST(DelayAttack, InvalidConfigThrows) {
  EXPECT_THROW(DelayAttack({.victim = 5, .ta_address = 5}),
               std::invalid_argument);
  EXPECT_THROW(DelayAttack({.victim = 1,
                            .ta_address = 2,
                            .added_delay = -1}),
               std::invalid_argument);
}

}  // namespace
}  // namespace triad::attacks

namespace triad {
namespace {

TEST(OriginalPolicy, AdoptsHigherTimestamp) {
  OriginalUntaintPolicy policy;
  const auto d = policy.decide(
      seconds(10), 0, {PeerSample{2, seconds(11), 0, seconds(10)}});
  EXPECT_EQ(d.action, UntaintPolicy::Decision::Action::kAdopt);
  EXPECT_EQ(d.adopted_time, seconds(11));
  EXPECT_EQ(d.source, 2u);
}

TEST(OriginalPolicy, KeepsLocalOnLowerTimestamp) {
  OriginalUntaintPolicy policy;
  const auto d = policy.decide(
      seconds(10), 0, {PeerSample{2, seconds(9), 0, seconds(10)}});
  EXPECT_EQ(d.action, UntaintPolicy::Decision::Action::kKeepLocal);
}

TEST(OriginalPolicy, EqualTimestampKeepsLocal) {
  OriginalUntaintPolicy policy;
  const auto d = policy.decide(
      seconds(10), 0, {PeerSample{2, seconds(10), 0, seconds(10)}});
  EXPECT_EQ(d.action, UntaintPolicy::Decision::Action::kKeepLocal);
}

TEST(OriginalPolicy, NoSamplesAsksTa) {
  OriginalUntaintPolicy policy;
  const auto d = policy.decide(seconds(10), 0, {});
  EXPECT_EQ(d.action, UntaintPolicy::Decision::Action::kAskTimeAuthority);
}

TEST(OriginalPolicy, IsFirstResponseMode) {
  EXPECT_EQ(OriginalUntaintPolicy().mode(),
            UntaintPolicy::Mode::kFirstResponse);
  EXPECT_EQ(make_original_policy()->mode(),
            UntaintPolicy::Mode::kFirstResponse);
}

}  // namespace
}  // namespace triad
