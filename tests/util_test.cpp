// Unit tests for util: RNG determinism and distributions, byte
// serialization round-trips and bounds checking, hex codec, narrowing.
#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "util/bytes.h"
#include "util/checked.h"
#include "util/hex.h"
#include "util/parse.h"
#include "util/rng.h"
#include "util/types.h"

namespace triad {
namespace {

TEST(TimeUnits, ConversionsAreExact) {
  EXPECT_EQ(microseconds(1), 1'000);
  EXPECT_EQ(milliseconds(1), 1'000'000);
  EXPECT_EQ(seconds(1), 1'000'000'000);
  EXPECT_EQ(minutes(2), seconds(120));
  EXPECT_EQ(hours(1), minutes(60));
  EXPECT_DOUBLE_EQ(to_seconds(milliseconds(1500)), 1.5);
  EXPECT_DOUBLE_EQ(to_milliseconds(microseconds(2500)), 2.5);
  EXPECT_EQ(from_seconds(1.5), milliseconds(1500));
  EXPECT_EQ(from_seconds(-0.25), -milliseconds(250));
}

TEST(Rng, SameSeedSameStream) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.next_u64(), b.next_u64());
  }
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.next_u64() == b.next_u64()) ++same;
  }
  EXPECT_EQ(same, 0);
}

TEST(Rng, ForkDecorrelatesByLabel) {
  Rng root1(7);
  Rng root2(7);
  Rng a = root1.fork("alpha");
  Rng b = root2.fork("beta");
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.next_u64() == b.next_u64()) ++same;
  }
  EXPECT_EQ(same, 0);
}

TEST(Rng, ForkSameLabelReproducible) {
  Rng root1(7);
  Rng root2(7);
  Rng a = root1.fork("net");
  Rng b = root2.fork("net");
  for (int i = 0; i < 20; ++i) {
    EXPECT_EQ(a.next_u64(), b.next_u64());
  }
}

TEST(Rng, NextBelowInRangeAndCoversValues) {
  Rng rng(3);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const std::uint64_t v = rng.next_below(7);
    ASSERT_LT(v, 7u);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 7u);
}

TEST(Rng, NextBelowZeroThrows) {
  Rng rng(3);
  EXPECT_THROW(rng.next_below(0), std::invalid_argument);
}

TEST(Rng, UniformIntBoundsInclusive) {
  Rng rng(9);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const std::int64_t v = rng.uniform_int(-3, 3);
    ASSERT_GE(v, -3);
    ASSERT_LE(v, 3);
    saw_lo |= (v == -3);
    saw_hi |= (v == 3);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, ExponentialMeanApproximatelyCorrect) {
  Rng rng(11);
  double sum = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += rng.exponential(5.0);
  EXPECT_NEAR(sum / n, 5.0, 0.15);
}

TEST(Rng, NormalMomentsApproximatelyCorrect) {
  Rng rng(13);
  double sum = 0, sum_sq = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double v = rng.normal(10.0, 2.0);
    sum += v;
    sum_sq += v * v;
  }
  const double mean = sum / n;
  const double var = sum_sq / n - mean * mean;
  EXPECT_NEAR(mean, 10.0, 0.1);
  EXPECT_NEAR(std::sqrt(var), 2.0, 0.1);
}

TEST(Rng, ChanceExtremes) {
  Rng rng(17);
  for (int i = 0; i < 50; ++i) {
    EXPECT_FALSE(rng.chance(0.0));
    EXPECT_TRUE(rng.chance(1.0));
  }
}

TEST(Rng, PickWeightedRespectsZeroWeights) {
  Rng rng(19);
  const double weights[] = {0.0, 1.0, 0.0};
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(rng.pick_weighted(weights, 3), 1u);
  }
}

TEST(Rng, PickWeightedApproximatesProportions) {
  Rng rng(23);
  const double weights[] = {1.0, 1.0, 2.0};
  int counts[3] = {};
  const int n = 40000;
  for (int i = 0; i < n; ++i) ++counts[rng.pick_weighted(weights, 3)];
  EXPECT_NEAR(counts[0] / static_cast<double>(n), 0.25, 0.02);
  EXPECT_NEAR(counts[1] / static_cast<double>(n), 0.25, 0.02);
  EXPECT_NEAR(counts[2] / static_cast<double>(n), 0.50, 0.02);
}

TEST(Rng, PickWeightedAllZeroThrows) {
  Rng rng(29);
  const double weights[] = {0.0, 0.0};
  EXPECT_THROW(rng.pick_weighted(weights, 2), std::invalid_argument);
}

TEST(Bytes, RoundTripAllTypes) {
  ByteWriter w;
  w.put_u8(0xab);
  w.put_u16(0x1234);
  w.put_u32(0xdeadbeef);
  w.put_u64(0x0123456789abcdefULL);
  w.put_i64(-42);
  w.put_f64(3.14159);
  w.put_string("hello");
  const Bytes blob = {1, 2, 3};
  w.put_var_bytes(blob);

  ByteReader r(w.data());
  EXPECT_EQ(r.get_u8(), 0xab);
  EXPECT_EQ(r.get_u16(), 0x1234);
  EXPECT_EQ(r.get_u32(), 0xdeadbeefu);
  EXPECT_EQ(r.get_u64(), 0x0123456789abcdefULL);
  EXPECT_EQ(r.get_i64(), -42);
  EXPECT_DOUBLE_EQ(r.get_f64(), 3.14159);
  EXPECT_EQ(r.get_string(), "hello");
  EXPECT_EQ(r.get_var_bytes(), blob);
  EXPECT_NO_THROW(r.expect_end());
}

TEST(Bytes, TruncatedReadThrows) {
  ByteWriter w;
  w.put_u32(5);
  ByteReader r(w.data());
  EXPECT_EQ(r.get_u16(), 5);
  EXPECT_THROW(r.get_u32(), DecodeError);
}

TEST(Bytes, VarBytesWithLyingLengthThrows) {
  ByteWriter w;
  w.put_u32(1000);  // claims 1000 bytes follow
  w.put_u8(1);
  ByteReader r(w.data());
  EXPECT_THROW(r.get_var_bytes(), DecodeError);
}

TEST(Bytes, ExpectEndThrowsOnTrailingData) {
  ByteWriter w;
  w.put_u8(1);
  w.put_u8(2);
  ByteReader r(w.data());
  r.get_u8();
  EXPECT_THROW(r.expect_end(), DecodeError);
}

TEST(Bytes, LittleEndianLayout) {
  ByteWriter w;
  w.put_u32(0x01020304);
  ASSERT_EQ(w.size(), 4u);
  EXPECT_EQ(w.data()[0], 0x04);
  EXPECT_EQ(w.data()[3], 0x01);
}

TEST(Hex, RoundTrip) {
  const Bytes data = {0x00, 0x7f, 0x80, 0xff, 0x12};
  EXPECT_EQ(to_hex(data), "007f80ff12");
  EXPECT_EQ(from_hex("007f80ff12"), data);
  EXPECT_EQ(from_hex("007F80FF12"), data);  // case-insensitive
}

TEST(Hex, InvalidInputThrows) {
  EXPECT_THROW(from_hex("abc"), DecodeError);   // odd length
  EXPECT_THROW(from_hex("zz"), DecodeError);    // bad chars
}

TEST(Parse, WholeTextOrFail) {
  std::uint64_t n = 0;
  EXPECT_TRUE(parse_u64("42", &n));
  EXPECT_EQ(n, 42u);
  for (const char* bad :
       {"", "-1", "1e3", "12abc", "+1", "18446744073709551616"}) {
    EXPECT_FALSE(parse_u64(bad, &n)) << bad;
  }
  Duration d = 0;
  EXPECT_TRUE(parse_duration("90s", &d));
  EXPECT_EQ(d, seconds(90));
  EXPECT_FALSE(parse_duration("10", &d));
  EXPECT_FALSE(parse_duration("9999999999h", &d));  // overflows a Duration
  EXPECT_TRUE(parse_duration("2562047h", &d));
  double x = 0;
  EXPECT_TRUE(parse_non_negative("0.25", &x));
  EXPECT_EQ(x, 0.25);
  for (const char* bad : {"nan", "inf", "-1", "1x", ""}) {
    EXPECT_FALSE(parse_non_negative(bad, &x)) << bad;
  }
  NodeId id = 0;
  EXPECT_TRUE(parse_node_id("4294967295", &id));
  EXPECT_EQ(id, 4294967295u);
  for (const char* bad : {"0", "abc", "12abc", "0x2", "4294967296"}) {
    EXPECT_FALSE(parse_node_id(bad, &id)) << bad;
  }
}

TEST(Narrow, PreservingConversionsPass) {
  EXPECT_EQ(narrow<std::uint8_t>(255), 255);
  EXPECT_EQ(narrow<std::int32_t>(std::int64_t{-5}), -5);
}

TEST(Narrow, LossyConversionsThrow) {
  EXPECT_THROW(narrow<std::uint8_t>(256), std::range_error);
  EXPECT_THROW(narrow<std::uint32_t>(-1), std::range_error);
}

}  // namespace
}  // namespace triad
