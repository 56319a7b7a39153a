// Adversarial-input fuzzing (deterministic, seeded): attacker-controlled
// bytes must never crash, leak, or be accepted.
//
//  * proto::decode on random garbage and on random mutations of valid
//    messages;
//  * SecureChannel::open on garbage, mutated frames, and spliced frames;
//  * end-to-end: a malicious host injecting garbage datagrams at every
//    protocol participant.
#include <gtest/gtest.h>

#include "crypto/channel.h"
#include "exp/scenario.h"
#include "triad/messages.h"
#include "util/rng.h"

namespace triad {
namespace {

Bytes random_bytes(Rng& rng, std::size_t max_len) {
  Bytes out(rng.next_below(max_len + 1));
  for (auto& b : out) b = static_cast<std::uint8_t>(rng.next_u64());
  return out;
}

class FuzzSeeds : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FuzzSeeds, ProtoDecodeNeverThrowsOnGarbage) {
  Rng rng(GetParam());
  for (int i = 0; i < 2000; ++i) {
    const Bytes garbage = random_bytes(rng, 64);
    EXPECT_NO_THROW((void)proto::decode(garbage));
  }
}

TEST_P(FuzzSeeds, ProtoDecodeSurvivesMutatedValidMessages) {
  Rng rng(GetParam());
  const proto::Message messages[] = {
      proto::TaRequest{1, seconds(1)},
      proto::TaResponse{2, seconds(99), 0},
      proto::PeerTimeRequest{3},
      proto::PeerTimeResponse{4, seconds(5), milliseconds(1), false},
  };
  for (int i = 0; i < 2000; ++i) {
    Bytes encoded = proto::encode(messages[rng.next_below(4)]);
    // Random mutation: flip bits, truncate, or extend.
    switch (rng.next_below(3)) {
      case 0:
        if (!encoded.empty()) {
          encoded[rng.next_below(encoded.size())] ^=
              static_cast<std::uint8_t>(1u << rng.next_below(8));
        }
        break;
      case 1:
        encoded.resize(rng.next_below(encoded.size() + 1));
        break;
      case 2:
        encoded.push_back(static_cast<std::uint8_t>(rng.next_u64()));
        break;
    }
    EXPECT_NO_THROW((void)proto::decode(encoded));
  }
}

TEST_P(FuzzSeeds, ChannelOpenRejectsGarbageWithoutThrowing) {
  Rng rng(GetParam());
  crypto::ClusterKeyring keyring{Bytes(32, 0x11)};
  crypto::SecureChannel receiver(2, keyring);
  for (int i = 0; i < 500; ++i) {
    const Bytes garbage = random_bytes(rng, 128);
    std::optional<crypto::SecureChannel::Opened> opened;
    EXPECT_NO_THROW(opened = receiver.open(garbage));
    EXPECT_FALSE(opened.has_value());
  }
}

TEST_P(FuzzSeeds, ChannelOpenRejectsEveryMutatedFrame) {
  Rng rng(GetParam());
  crypto::ClusterKeyring keyring{Bytes(32, 0x11)};
  crypto::SecureChannel sender(1, keyring);
  crypto::SecureChannel receiver(2, keyring);
  for (int i = 0; i < 300; ++i) {
    Bytes frame = sender.seal(2, random_bytes(rng, 48));
    const std::size_t pos = rng.next_below(frame.size());
    const auto mask = static_cast<std::uint8_t>(1u << rng.next_below(8));
    frame[pos] ^= mask;
    std::optional<crypto::SecureChannel::Opened> opened;
    EXPECT_NO_THROW(opened = receiver.open(frame));
    // Flipping the receiver field may merely misroute; everything else
    // must fail authentication. Either way, never accepted as-is by the
    // intended receiver with intact content:
    if (opened) {
      // Only possible if the flipped bit was in the receiver id and the
      // frame became addressed to... no: receiver 2 only accepts frames
      // for 2, and the AAD covers the header. Acceptance is a bug.
      ADD_FAILURE() << "mutated frame accepted at byte " << pos;
    }
  }
}

TEST_P(FuzzSeeds, SplicedFramesRejected) {
  // Cut-and-paste across two valid frames: header of one, body of
  // another.
  Rng rng(GetParam());
  crypto::ClusterKeyring keyring{Bytes(32, 0x11)};
  crypto::SecureChannel sender(1, keyring);
  crypto::SecureChannel receiver(2, keyring);
  for (int i = 0; i < 200; ++i) {
    const Bytes a = sender.seal(2, random_bytes(rng, 32));
    const Bytes b = sender.seal(2, random_bytes(rng, 32));
    const std::size_t cut = rng.next_below(std::min(a.size(), b.size()));
    Bytes spliced(a.begin(), a.begin() + static_cast<long>(cut));
    spliced.insert(spliced.end(), b.begin() + static_cast<long>(cut),
                   b.end());
    if (spliced == a || spliced == b) continue;  // degenerate cut
    EXPECT_FALSE(receiver.open(spliced).has_value());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzSeeds,
                         ::testing::Values(101, 202, 303));

TEST(EndToEndFuzz, GarbageDatagramStormDoesNotDisturbProtocol) {
  exp::ScenarioConfig cfg;
  cfg.seed = 4711;
  exp::Scenario sc(std::move(cfg));
  sc.start();

  // A malicious host injects garbage at every participant continuously.
  Rng rng(99);
  runtime::PeriodicTimer storm(sc.env(), milliseconds(3), [&] {
    const NodeId target = static_cast<NodeId>(1 + rng.next_below(4));
    sc.network().send(77, target, random_bytes(rng, 96));
  });
  sc.run_until(minutes(5));

  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(sc.node(i).state(), NodeState::kOk);
    EXPECT_GT(sc.node(i).stats().bad_frames, 0u);  // storm was seen
    EXPECT_NEAR(sc.node(i).calibrated_frequency_hz(),
                tsc::kPaperTscFrequencyHz, 0.6e6);
  }
  EXPECT_GT(sc.time_authority().stats().rejected_frames, 0u);
}

}  // namespace
}  // namespace triad
