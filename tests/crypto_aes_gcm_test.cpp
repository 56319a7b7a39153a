// AES-256 against FIPS 197 / SP 800-38A vectors and AES-256-GCM against
// the classic GCM specification test cases (256-bit key set), plus
// tamper-rejection property tests and a differential test between the
// portable and hardware backends.
#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <vector>

#include "crypto/aes.h"
#include "crypto/gcm.h"
#include "crypto/gcm_impl.h"
#include "util/hex.h"
#include "util/rng.h"

namespace triad::crypto {
namespace {

GcmIv iv_from_hex(const std::string& hex) {
  const Bytes raw = from_hex(hex);
  GcmIv iv{};
  std::copy(raw.begin(), raw.end(), iv.begin());
  return iv;
}

std::string tag_hex(const GcmTag& tag) {
  return to_hex(BytesView(tag.data(), tag.size()));
}

// SP 800-38A F.1.5: AES-256 ECB encryption.
constexpr const char* kSp80038aKey =
    "603deb1015ca71be2b73aef0857d77811f352c073b6108d72d9810a30914dff4";
constexpr struct {
  const char* pt;
  const char* ct;
} kSp80038aBlocks[] = {
    {"6bc1bee22e409f96e93d7e117393172a", "f3eed1bdb5d2a03c064b5a7e3db181f8"},
    {"ae2d8a571e03ac9c9eb76fac45af8e51", "591ccb10d410ed26dc5ba74a31362870"},
    {"30c81c46a35ce411e5fbc1191a0a52ef", "b6ed21b99ca6f4f9f153e7b1beafed1d"},
    {"f69f2445df4f9b17ad2b417be66c3710", "23304b7a39f9f3ff067d8d8f9e24ecc7"},
};

// FIPS 197 Appendix C.3 example.
constexpr const char* kFips197Key =
    "000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f";
constexpr const char* kFips197Pt = "00112233445566778899aabbccddeeff";
constexpr const char* kFips197Ct = "8ea2b7ca516745bfeafc49904b496089";

// The classic GCM specification test cases, 256-bit key set.
struct GcmVector {
  const char* key;
  const char* iv;
  const char* pt;
  const char* aad;
  const char* ct;
  const char* tag;
};

constexpr const char* kZeroKey =
    "0000000000000000000000000000000000000000000000000000000000000000";
constexpr const char* kSpecKey =
    "feffe9928665731c6d6a8f9467308308feffe9928665731c6d6a8f9467308308";
constexpr const char* kSpecPt =
    "d9313225f88406e5a55909c5aff5269a86a7a9531534f7da2e4c303d8a318a72"
    "1c3c0c95956809532fcf0e2449a6b525b16aedf5aa0de657ba637b391aafd255";
constexpr const char* kSpecCt =
    "522dc1f099567d07f47f37a32a84427d643a8cdcbfe5c0c97598a2bd2555d1aa"
    "8cb08e48590dbb3da7b08b1056828838c5f61e6393ba7a0abcc9f662898015ad";

// Case 13: zero key, empty plaintext.
constexpr GcmVector kCase13{kZeroKey, "000000000000000000000000", "", "", "",
                            "530f8afbc74536b9a963b4f1c4cb738b"};
// Case 14: zero key, 16 zero bytes.
constexpr GcmVector kCase14{kZeroKey, "000000000000000000000000",
                            "00000000000000000000000000000000", "",
                            "cea7403d4d606b6e074ec5d3baf39d18",
                            "d0d1c8a799996bf0265b98b5d48ab919"};
// Case 15: 4 blocks, no AAD.
constexpr GcmVector kCase15{kSpecKey, "cafebabefacedbaddecaf888", kSpecPt, "",
                            kSpecCt, "b094dac5d93471bdec1a502270e3cc6c"};
// Case 16: truncated plaintext with AAD (both lengths off a block edge).
constexpr GcmVector kCase16{
    kSpecKey,
    "cafebabefacedbaddecaf888",
    "d9313225f88406e5a55909c5aff5269a86a7a9531534f7da2e4c303d8a318a72"
    "1c3c0c95956809532fcf0e2449a6b525b16aedf5aa0de657ba637b39",
    "feedfacedeadbeeffeedfacedeadbeefabaddad2",
    "522dc1f099567d07f47f37a32a84427d643a8cdcbfe5c0c97598a2bd2555d1aa"
    "8cb08e48590dbb3da7b08b1056828838c5f61e6393ba7a0abcc9f662",
    "76fc6ece0f4e1768cddf8853bb2d551b"};

// Seals `v` through the public API and checks ciphertext and tag.
void expect_seals(const GcmVector& v) {
  Aes256Gcm gcm(from_hex(v.key));
  const auto sealed = gcm.seal(iv_from_hex(v.iv), from_hex(v.pt),
                               from_hex(v.aad));
  EXPECT_EQ(to_hex(sealed.ciphertext), v.ct);
  EXPECT_EQ(tag_hex(sealed.tag), v.tag);
}

TEST(Aes256, Sp80038aEcbVectors) {
  Aes256 aes(from_hex(kSp80038aKey));
  for (const auto& c : kSp80038aBlocks) {
    const Bytes pt = from_hex(c.pt);
    Bytes ct(16);
    aes.encrypt_block(pt.data(), ct.data());
    EXPECT_EQ(to_hex(ct), c.ct);
  }
}

TEST(Aes256, Fips197AppendixC3) {
  Aes256 aes(from_hex(kFips197Key));
  const Bytes pt = from_hex(kFips197Pt);
  Bytes ct(16);
  aes.encrypt_block(pt.data(), ct.data());
  EXPECT_EQ(to_hex(ct), kFips197Ct);
}

TEST(Aes256, InPlaceEncryptionAllowed) {
  Aes256 aes(from_hex(kFips197Key));
  Bytes buf = from_hex(kFips197Pt);
  aes.encrypt_block(buf.data(), buf.data());
  EXPECT_EQ(to_hex(buf), kFips197Ct);
}

TEST(Aes256, WrongKeySizeThrows) {
  const Bytes short_key(16, 0);
  EXPECT_THROW(Aes256{BytesView(short_key)}, std::invalid_argument);
}

TEST(Aes256Gcm, Case13EmptyPlaintext) { expect_seals(kCase13); }

TEST(Aes256Gcm, Case14OneBlock) { expect_seals(kCase14); }

TEST(Aes256Gcm, Case15FourBlocks) { expect_seals(kCase15); }

TEST(Aes256Gcm, Case16WithAad) { expect_seals(kCase16); }

TEST(Aes256Gcm, OpenRoundTrip) {
  Aes256Gcm gcm(Bytes(32, 7));
  const Bytes pt = {1, 2, 3, 4, 5};
  const Bytes aad = {9, 9};
  const GcmIv iv{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12};
  const auto sealed = gcm.seal(iv, pt, aad);
  const auto opened = gcm.open(iv, sealed.ciphertext, aad, sealed.tag);
  ASSERT_TRUE(opened.has_value());
  EXPECT_EQ(*opened, pt);
}

TEST(Aes256Gcm, TamperedCiphertextRejected) {
  Aes256Gcm gcm(Bytes(32, 7));
  const Bytes pt(40, 0xaa);
  const GcmIv iv{};
  auto sealed = gcm.seal(iv, pt, {});
  sealed.ciphertext[17] ^= 0x01;
  EXPECT_FALSE(gcm.open(iv, sealed.ciphertext, {}, sealed.tag).has_value());
}

TEST(Aes256Gcm, TamperedTagRejected) {
  Aes256Gcm gcm(Bytes(32, 7));
  const GcmIv iv{};
  auto sealed = gcm.seal(iv, Bytes{1, 2, 3}, {});
  sealed.tag[0] ^= 0x80;
  EXPECT_FALSE(gcm.open(iv, sealed.ciphertext, {}, sealed.tag).has_value());
}

TEST(Aes256Gcm, TamperedAadRejected) {
  Aes256Gcm gcm(Bytes(32, 7));
  const GcmIv iv{};
  const auto sealed = gcm.seal(iv, Bytes{1, 2, 3}, Bytes{1});
  EXPECT_FALSE(
      gcm.open(iv, sealed.ciphertext, Bytes{2}, sealed.tag).has_value());
}

TEST(Aes256Gcm, WrongIvRejected) {
  Aes256Gcm gcm(Bytes(32, 7));
  const auto sealed = gcm.seal(GcmIv{1}, Bytes{1, 2, 3}, {});
  EXPECT_FALSE(
      gcm.open(GcmIv{2}, sealed.ciphertext, {}, sealed.tag).has_value());
}

TEST(Aes256Gcm, WrongKeyRejected) {
  Aes256Gcm a(Bytes(32, 1));
  Aes256Gcm b(Bytes(32, 2));
  const GcmIv iv{};
  const auto sealed = a.seal(iv, Bytes{1, 2, 3}, {});
  EXPECT_FALSE(b.open(iv, sealed.ciphertext, {}, sealed.tag).has_value());
}

// Property: round trip for many random sizes, keys, and IVs.
class GcmRoundTrip : public ::testing::TestWithParam<std::size_t> {};

TEST_P(GcmRoundTrip, SealOpenIdentity) {
  Rng rng(GetParam() * 1000 + 17);
  Bytes key(32);
  for (auto& b : key) b = static_cast<std::uint8_t>(rng.next_u64());
  Aes256Gcm gcm(key);

  Bytes pt(GetParam());
  for (auto& b : pt) b = static_cast<std::uint8_t>(rng.next_u64());
  Bytes aad(GetParam() % 23);
  for (auto& b : aad) b = static_cast<std::uint8_t>(rng.next_u64());
  GcmIv iv;
  for (auto& b : iv) b = static_cast<std::uint8_t>(rng.next_u64());

  const auto sealed = gcm.seal(iv, pt, aad);
  EXPECT_EQ(sealed.ciphertext.size(), pt.size());
  if (!pt.empty()) {
    EXPECT_NE(sealed.ciphertext, pt);
  }
  const auto opened = gcm.open(iv, sealed.ciphertext, aad, sealed.tag);
  ASSERT_TRUE(opened.has_value());
  EXPECT_EQ(*opened, pt);
}

INSTANTIATE_TEST_SUITE_P(Sizes, GcmRoundTrip,
                         ::testing::Values(0, 1, 15, 16, 17, 31, 32, 33, 63,
                                           64, 100, 255, 1024, 4096));

// ---- Both backends by name (crypto/gcm_impl.h) ----
//
// Aes256/Aes256Gcm run one backend per process; these tests run the
// portable T-table/Shoup code and the AES-NI/PCLMULQDQ code directly,
// each against the published vectors and against each other.

using detail::Backend;
using detail::Backends;

constexpr const char* kNoHardware =
    "this CPU lacks AES-NI, PCLMULQDQ or SSSE3 (or the build is not "
    "x86-64), so the hardware AES-256-GCM backend cannot run here";

GcmSealed seal_with(Backend backend, const Aes256Gcm& gcm, const GcmIv& iv,
                    BytesView pt, BytesView aad) {
  GcmSealed sealed;
  sealed.ciphertext.resize(pt.size());
  Backends::seal(backend, gcm, iv, pt, aad, sealed.ciphertext.data(),
                 sealed.tag.data());
  return sealed;
}

std::optional<Bytes> open_with(Backend backend, const Aes256Gcm& gcm,
                               const GcmIv& iv, const GcmSealed& sealed,
                               BytesView aad) {
  Bytes pt;
  if (!Backends::open(backend, gcm, iv, sealed.ciphertext, aad,
                      sealed.tag.data(), pt)) {
    return std::nullopt;
  }
  return pt;
}

class BackendVectors : public ::testing::TestWithParam<Backend> {
 protected:
  void SetUp() override {
    if (GetParam() == Backend::kHardware && !detail::hardware_supported()) {
      GTEST_SKIP() << kNoHardware;
    }
  }

  std::string encrypt(const Aes256& aes, const char* pt_hex) const {
    const Bytes pt = from_hex(pt_hex);
    Bytes ct(16);
    Backends::encrypt_block(GetParam(), aes, pt.data(), ct.data());
    return to_hex(ct);
  }

  // Seals `v`, checks ciphertext and tag, then opens it back.
  void expect_vector(const GcmVector& v) const {
    const Aes256Gcm gcm(from_hex(v.key));
    const GcmIv iv = iv_from_hex(v.iv);
    const Bytes pt = from_hex(v.pt);
    const Bytes aad = from_hex(v.aad);
    const GcmSealed sealed = seal_with(GetParam(), gcm, iv, pt, aad);
    EXPECT_EQ(to_hex(sealed.ciphertext), v.ct);
    EXPECT_EQ(tag_hex(sealed.tag), v.tag);
    EXPECT_EQ(open_with(GetParam(), gcm, iv, sealed, aad), pt);
  }
};

TEST_P(BackendVectors, Sp80038aEcbVectors) {
  const Aes256 aes(from_hex(kSp80038aKey));
  for (const auto& c : kSp80038aBlocks) EXPECT_EQ(encrypt(aes, c.pt), c.ct);
}

TEST_P(BackendVectors, Fips197AppendixC3) {
  EXPECT_EQ(encrypt(Aes256(from_hex(kFips197Key)), kFips197Pt), kFips197Ct);
}

TEST_P(BackendVectors, GcmCase13EmptyPlaintext) { expect_vector(kCase13); }

TEST_P(BackendVectors, GcmCase14OneBlock) { expect_vector(kCase14); }

TEST_P(BackendVectors, GcmCase15FourBlocks) { expect_vector(kCase15); }

TEST_P(BackendVectors, GcmCase16WithAad) { expect_vector(kCase16); }

TEST_P(BackendVectors, ForgedTagLeavesPlaintextUntouched) {
  const Aes256Gcm gcm(from_hex(kSpecKey));
  const GcmIv iv = iv_from_hex("cafebabefacedbaddecaf888");
  GcmSealed sealed = seal_with(GetParam(), gcm, iv, from_hex(kSpecPt), {});
  sealed.tag[15] ^= 0x01;
  Bytes pt = {7, 7, 7};
  EXPECT_FALSE(Backends::open(GetParam(), gcm, iv, sealed.ciphertext, {},
                              sealed.tag.data(), pt));
  EXPECT_EQ(pt, (Bytes{7, 7, 7}));
}

INSTANTIATE_TEST_SUITE_P(
    Backends, BackendVectors,
    ::testing::Values(Backend::kPortable, Backend::kHardware),
    [](const ::testing::TestParamInfo<Backend>& param) {
      return param.param == Backend::kPortable ? "Portable" : "Hardware";
    });

TEST(GcmBackends, ActiveBackendIsHardwareWhenSupported) {
  EXPECT_EQ(detail::active_backend(), detail::hardware_supported()
                                          ? Backend::kHardware
                                          : Backend::kPortable);
}

// Differential: seeded random keys, IVs and messages (every plaintext
// length 0–64, then random lengths up to 1 KiB; AAD lengths off the
// block edge). Both backends must agree byte for byte, and each must
// open what the other sealed.
TEST(GcmBackends, HardwareMatchesPortableOnSeededInputs) {
  if (!detail::hardware_supported()) GTEST_SKIP() << kNoHardware;
  Rng rng(0x7e57ae5);
  auto random_bytes = [&](std::size_t n) {
    Bytes out(n);
    for (auto& b : out) b = static_cast<std::uint8_t>(rng.next_u64());
    return out;
  };
  std::vector<std::size_t> lengths;
  for (std::size_t n = 0; n <= 64; ++n) lengths.push_back(n);
  for (int i = 0; i < 64; ++i) lengths.push_back(rng.next_below(1025));

  for (const std::size_t pt_len : lengths) {
    SCOPED_TRACE("plaintext length " + std::to_string(pt_len));
    const Aes256Gcm gcm(random_bytes(kAes256KeySize));
    GcmIv iv;
    for (auto& b : iv) b = static_cast<std::uint8_t>(rng.next_u64());
    const std::size_t aad_len = 16 * rng.next_below(4) + 1 + rng.next_below(15);
    ASSERT_NE(aad_len % 16, 0u);
    const Bytes aad = random_bytes(aad_len);
    const Bytes pt = random_bytes(pt_len);

    const GcmSealed portable = seal_with(Backend::kPortable, gcm, iv, pt, aad);
    const GcmSealed hardware = seal_with(Backend::kHardware, gcm, iv, pt, aad);
    ASSERT_EQ(hardware.ciphertext, portable.ciphertext);
    ASSERT_EQ(hardware.tag, portable.tag);
    EXPECT_EQ(open_with(Backend::kHardware, gcm, iv, portable, aad), pt);
    EXPECT_EQ(open_with(Backend::kPortable, gcm, iv, hardware, aad), pt);
  }
}

TEST(GcmBackends, HardwareAesMatchesPortableOnSeededBlocks) {
  if (!detail::hardware_supported()) GTEST_SKIP() << kNoHardware;
  Rng rng(0xae5b10c);
  for (int i = 0; i < 256; ++i) {
    Bytes key(kAes256KeySize);
    AesBlock in{};
    for (auto& b : key) b = static_cast<std::uint8_t>(rng.next_u64());
    for (auto& b : in) b = static_cast<std::uint8_t>(rng.next_u64());
    const Aes256 aes(key);
    AesBlock portable{};
    AesBlock hardware{};
    Backends::encrypt_block(Backend::kPortable, aes, in.data(),
                            portable.data());
    Backends::encrypt_block(Backend::kHardware, aes, in.data(),
                            hardware.data());
    ASSERT_EQ(hardware, portable) << "block " << i;
  }
}

}  // namespace
}  // namespace triad::crypto
