// SecureChannel: key derivation, framing, authentication, replay and
// misdelivery handling — the guarantees the Triad attacker must NOT be
// able to break (it can only delay/drop/reorder) — plus the frame
// parser's length rules and the channel's allocation budget.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <cstring>
#include <new>
#include <vector>

#include "crypto/channel.h"

// This binary replaces the global operator new so a test can count heap
// allocations around one call.
namespace {
std::atomic<long> g_allocations{0};

void* counted_allocate(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
}  // namespace

void* operator new(std::size_t size) { return counted_allocate(size); }
void* operator new[](std::size_t size) { return counted_allocate(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace triad::crypto {
namespace {

Bytes secret() { return Bytes(32, 0x5a); }

TEST(ClusterKeyring, DirectionKeysAreDistinct) {
  ClusterKeyring keyring(secret());
  const Bytes k12 = keyring.direction_key(1, 2);
  const Bytes k21 = keyring.direction_key(2, 1);
  const Bytes k13 = keyring.direction_key(1, 3);
  EXPECT_EQ(k12.size(), kAes256KeySize);
  EXPECT_NE(k12, k21);
  EXPECT_NE(k12, k13);
}

TEST(ClusterKeyring, DeterministicDerivation) {
  ClusterKeyring a(secret());
  ClusterKeyring b(secret());
  EXPECT_EQ(a.direction_key(4, 9), b.direction_key(4, 9));
}

TEST(ClusterKeyring, DifferentMasterSecretsDiffer) {
  ClusterKeyring a(secret());
  ClusterKeyring b(Bytes(32, 0xa5));
  EXPECT_NE(a.direction_key(1, 2), b.direction_key(1, 2));
}

class SecureChannelTest : public ::testing::Test {
 protected:
  ClusterKeyring keyring_{secret()};
  SecureChannel alice_{1, keyring_};
  SecureChannel bob_{2, keyring_};
  SecureChannel carol_{3, keyring_};
};

TEST_F(SecureChannelTest, RoundTrip) {
  const Bytes msg = {10, 20, 30};
  const Bytes frame = alice_.seal(2, msg);
  const auto opened = bob_.open(frame);
  ASSERT_TRUE(opened.has_value());
  EXPECT_EQ(opened->sender, 1u);
  EXPECT_EQ(opened->plaintext, msg);
}

TEST_F(SecureChannelTest, CiphertextHidesPlaintext) {
  const Bytes msg(64, 0x77);
  const Bytes frame = alice_.seal(2, msg);
  // The payload bytes must not appear in the clear anywhere in the frame.
  for (std::size_t i = 0; i + msg.size() <= frame.size(); ++i) {
    EXPECT_NE(0, std::memcmp(frame.data() + i, msg.data(), msg.size()));
  }
}

TEST_F(SecureChannelTest, WrongReceiverRejected) {
  const Bytes frame = alice_.seal(2, Bytes{1});
  OpenError err{};
  EXPECT_FALSE(carol_.open(frame, &err).has_value());
  EXPECT_EQ(err, OpenError::kWrongReceiver);
}

TEST_F(SecureChannelTest, TamperedFrameRejected) {
  Bytes frame = alice_.seal(2, Bytes{1, 2, 3, 4});
  frame[frame.size() - 1] ^= 0x01;  // flip a tag bit
  OpenError err{};
  EXPECT_FALSE(bob_.open(frame, &err).has_value());
  EXPECT_EQ(err, OpenError::kAuthFailed);
}

TEST_F(SecureChannelTest, TamperedHeaderRejected) {
  Bytes frame = alice_.seal(2, Bytes{1, 2, 3, 4});
  frame[0] ^= 0x02;  // corrupt sender id (part of AAD)
  OpenError err{};
  EXPECT_FALSE(bob_.open(frame, &err).has_value());
  EXPECT_EQ(err, OpenError::kAuthFailed);
}

TEST_F(SecureChannelTest, TruncatedFrameMalformed) {
  Bytes frame = alice_.seal(2, Bytes{1, 2, 3, 4});
  frame.resize(frame.size() / 2);
  OpenError err{};
  EXPECT_FALSE(bob_.open(frame, &err).has_value());
  EXPECT_EQ(err, OpenError::kMalformed);
}

TEST_F(SecureChannelTest, EmptyFrameMalformed) {
  OpenError err{};
  EXPECT_FALSE(bob_.open(Bytes{}, &err).has_value());
  EXPECT_EQ(err, OpenError::kMalformed);
}

TEST_F(SecureChannelTest, ReplayRejected) {
  const Bytes frame = alice_.seal(2, Bytes{5});
  EXPECT_TRUE(bob_.open(frame).has_value());
  OpenError err{};
  EXPECT_FALSE(bob_.open(frame, &err).has_value());
  EXPECT_EQ(err, OpenError::kReplayed);
}

TEST_F(SecureChannelTest, ReorderedFrameWithinWindowAccepted) {
  // UDP reorders datagrams; the sliding window must tolerate that.
  const Bytes f1 = alice_.seal(2, Bytes{1});
  const Bytes f2 = alice_.seal(2, Bytes{2});
  EXPECT_TRUE(bob_.open(f2).has_value());
  const auto late = bob_.open(f1);
  ASSERT_TRUE(late.has_value());
  EXPECT_EQ(late->plaintext, Bytes{1});
  // ...but the late frame still cannot be replayed afterwards.
  OpenError err{};
  EXPECT_FALSE(bob_.open(f1, &err).has_value());
  EXPECT_EQ(err, OpenError::kReplayed);
}

TEST_F(SecureChannelTest, FrameOlderThanWindowRejected) {
  const Bytes ancient = alice_.seal(2, Bytes{0});
  for (int i = 0; i < 70; ++i) {
    ASSERT_TRUE(bob_.open(alice_.seal(2, Bytes{1})).has_value());
  }
  OpenError err{};
  EXPECT_FALSE(bob_.open(ancient, &err).has_value());
  EXPECT_EQ(err, OpenError::kReplayed);
}

TEST_F(SecureChannelTest, HeavyReorderingAllFramesAcceptedOnce) {
  // Deliver 64 frames in reverse order: all fresh, then all replays.
  std::vector<Bytes> frames;
  for (int i = 0; i < 64; ++i) {
    frames.push_back(alice_.seal(2, Bytes{static_cast<std::uint8_t>(i)}));
  }
  for (auto it = frames.rbegin(); it != frames.rend(); ++it) {
    EXPECT_TRUE(bob_.open(*it).has_value());
  }
  for (const Bytes& frame : frames) {
    EXPECT_FALSE(bob_.open(frame).has_value());
  }
}

TEST_F(SecureChannelTest, CountersIndependentPerSender) {
  const Bytes fa = alice_.seal(2, Bytes{1});
  const Bytes fc = carol_.seal(2, Bytes{2});
  EXPECT_TRUE(bob_.open(fa).has_value());
  EXPECT_TRUE(bob_.open(fc).has_value());
}

TEST_F(SecureChannelTest, ManyMessagesBothDirections) {
  for (int i = 0; i < 100; ++i) {
    const Bytes msg = {static_cast<std::uint8_t>(i)};
    const auto to_bob = bob_.open(alice_.seal(2, msg));
    ASSERT_TRUE(to_bob.has_value());
    EXPECT_EQ(to_bob->plaintext, msg);
    const auto to_alice = alice_.open(bob_.seal(1, msg));
    ASSERT_TRUE(to_alice.has_value());
    EXPECT_EQ(to_alice->sender, 2u);
  }
}

TEST_F(SecureChannelTest, CrossChannelFramesDoNotConfuse) {
  // A frame alice->bob must not open as carol->bob even if delivered to
  // the right node (distinct direction keys).
  const Bytes frame = alice_.seal(2, Bytes{9});
  const auto opened = bob_.open(frame);
  ASSERT_TRUE(opened.has_value());
  EXPECT_EQ(opened->sender, 1u);
}

TEST_F(SecureChannelTest, EmptyPayloadSupported) {
  const auto opened = bob_.open(alice_.seal(2, Bytes{}));
  ASSERT_TRUE(opened.has_value());
  EXPECT_TRUE(opened->plaintext.empty());
}

// ---- Frame parser: exact length, header first ----
//
// Frame layout: sender u32, receiver u32, counter u64, ct_len u32 (all
// little-endian), ciphertext, 16-byte tag.

constexpr std::size_t kCtLenOffset = 16;
constexpr std::size_t kFrameOverhead = 20 + kGcmTagSize;

void set_ct_len(Bytes& frame, std::uint32_t ct_len) {
  for (std::size_t i = 0; i < 4; ++i) {
    frame[kCtLenOffset + i] = static_cast<std::uint8_t>(ct_len >> (8 * i));
  }
}

OpenError open_error(SecureChannel& channel, const Bytes& frame) {
  OpenError err{};
  EXPECT_FALSE(channel.open(frame, &err).has_value());
  return err;
}

TEST_F(SecureChannelTest, FrameIsHeaderPlusCiphertextPlusTag) {
  const Bytes frame = alice_.seal(2, Bytes(5, 0x11));
  ASSERT_EQ(frame.size(), kFrameOverhead + 5);
  EXPECT_EQ(frame[kCtLenOffset], 5);
}

TEST_F(SecureChannelTest, HeaderOnlyFrameMalformed) {
  Bytes frame = alice_.seal(2, Bytes{});
  frame.resize(20);  // header with ct_len 0, no tag
  EXPECT_EQ(open_error(bob_, frame), OpenError::kMalformed);
}

TEST_F(SecureChannelTest, CiphertextLengthPastFrameMalformed) {
  Bytes frame = alice_.seal(2, Bytes{1, 2, 3, 4});
  set_ct_len(frame, 5);
  EXPECT_EQ(open_error(bob_, frame), OpenError::kMalformed);
}

TEST_F(SecureChannelTest, CiphertextLengthOverflowMalformed) {
  Bytes frame = alice_.seal(2, Bytes{1, 2, 3, 4});
  set_ct_len(frame, 0xFFFFFFFFu);
  EXPECT_EQ(open_error(bob_, frame), OpenError::kMalformed);
}

TEST_F(SecureChannelTest, TrailingByteMalformed) {
  Bytes frame = alice_.seal(2, Bytes{1, 2, 3, 4});
  frame.push_back(0);
  EXPECT_EQ(open_error(bob_, frame), OpenError::kMalformed);
}

TEST_F(SecureChannelTest, ShortTagMalformed) {
  Bytes frame = alice_.seal(2, Bytes{1, 2, 3, 4});
  frame.pop_back();  // ct_len still 4, so the tag is 15 bytes
  EXPECT_EQ(open_error(bob_, frame), OpenError::kMalformed);
}

TEST_F(SecureChannelTest, WrongReceiverReportedBeforeAuthentication) {
  Bytes frame = alice_.seal(2, Bytes{1});
  frame.back() ^= 0x01;  // forged tag: authentication would fail
  EXPECT_EQ(open_error(carol_, frame), OpenError::kWrongReceiver);
}

// ---- Allocation budget ----

TEST_F(SecureChannelTest, SealAndOpenAllocateOnlyTheirResults) {
  const Bytes message(64, 0x42);
  // Warm-up: derives the direction key and creates the send counter and
  // the replay window.
  ASSERT_TRUE(bob_.open(alice_.seal(2, message)).has_value());

  long before = g_allocations.load();
  const Bytes frame = alice_.seal(2, message);
  const long seal_allocations = g_allocations.load() - before;

  Bytes forged = frame;
  forged.back() ^= 0x01;
  OpenError err{};
  before = g_allocations.load();
  const bool forged_opened = bob_.open(forged, &err).has_value();
  const long forged_allocations = g_allocations.load() - before;

  before = g_allocations.load();
  const auto opened = bob_.open(frame);
  const long open_allocations = g_allocations.load() - before;

  EXPECT_EQ(seal_allocations, 1) << "seal: only the returned frame";
  EXPECT_FALSE(forged_opened);
  EXPECT_EQ(err, OpenError::kAuthFailed);
  EXPECT_EQ(forged_allocations, 0) << "a forged frame allocates nothing";
  EXPECT_EQ(open_allocations, 1) << "open: only the plaintext";
  ASSERT_TRUE(opened.has_value());
  EXPECT_EQ(opened->plaintext, message);
}

}  // namespace
}  // namespace triad::crypto
