#include "crypto/aes.h"

#include <cstring>
#include <stdexcept>

#include "crypto/gcm_impl.h"

namespace triad::crypto {
namespace {

constexpr std::array<std::uint8_t, 256> kSbox = {
    0x63, 0x7c, 0x77, 0x7b, 0xf2, 0x6b, 0x6f, 0xc5, 0x30, 0x01, 0x67, 0x2b,
    0xfe, 0xd7, 0xab, 0x76, 0xca, 0x82, 0xc9, 0x7d, 0xfa, 0x59, 0x47, 0xf0,
    0xad, 0xd4, 0xa2, 0xaf, 0x9c, 0xa4, 0x72, 0xc0, 0xb7, 0xfd, 0x93, 0x26,
    0x36, 0x3f, 0xf7, 0xcc, 0x34, 0xa5, 0xe5, 0xf1, 0x71, 0xd8, 0x31, 0x15,
    0x04, 0xc7, 0x23, 0xc3, 0x18, 0x96, 0x05, 0x9a, 0x07, 0x12, 0x80, 0xe2,
    0xeb, 0x27, 0xb2, 0x75, 0x09, 0x83, 0x2c, 0x1a, 0x1b, 0x6e, 0x5a, 0xa0,
    0x52, 0x3b, 0xd6, 0xb3, 0x29, 0xe3, 0x2f, 0x84, 0x53, 0xd1, 0x00, 0xed,
    0x20, 0xfc, 0xb1, 0x5b, 0x6a, 0xcb, 0xbe, 0x39, 0x4a, 0x4c, 0x58, 0xcf,
    0xd0, 0xef, 0xaa, 0xfb, 0x43, 0x4d, 0x33, 0x85, 0x45, 0xf9, 0x02, 0x7f,
    0x50, 0x3c, 0x9f, 0xa8, 0x51, 0xa3, 0x40, 0x8f, 0x92, 0x9d, 0x38, 0xf5,
    0xbc, 0xb6, 0xda, 0x21, 0x10, 0xff, 0xf3, 0xd2, 0xcd, 0x0c, 0x13, 0xec,
    0x5f, 0x97, 0x44, 0x17, 0xc4, 0xa7, 0x7e, 0x3d, 0x64, 0x5d, 0x19, 0x73,
    0x60, 0x81, 0x4f, 0xdc, 0x22, 0x2a, 0x90, 0x88, 0x46, 0xee, 0xb8, 0x14,
    0xde, 0x5e, 0x0b, 0xdb, 0xe0, 0x32, 0x3a, 0x0a, 0x49, 0x06, 0x24, 0x5c,
    0xc2, 0xd3, 0xac, 0x62, 0x91, 0x95, 0xe4, 0x79, 0xe7, 0xc8, 0x37, 0x6d,
    0x8d, 0xd5, 0x4e, 0xa9, 0x6c, 0x56, 0xf4, 0xea, 0x65, 0x7a, 0xae, 0x08,
    0xba, 0x78, 0x25, 0x2e, 0x1c, 0xa6, 0xb4, 0xc6, 0xe8, 0xdd, 0x74, 0x1f,
    0x4b, 0xbd, 0x8b, 0x8a, 0x70, 0x3e, 0xb5, 0x66, 0x48, 0x03, 0xf6, 0x0e,
    0x61, 0x35, 0x57, 0xb9, 0x86, 0xc1, 0x1d, 0x9e, 0xe1, 0xf8, 0x98, 0x11,
    0x69, 0xd9, 0x8e, 0x94, 0x9b, 0x1e, 0x87, 0xe9, 0xce, 0x55, 0x28, 0xdf,
    0x8c, 0xa1, 0x89, 0x0d, 0xbf, 0xe6, 0x42, 0x68, 0x41, 0x99, 0x2d, 0x0f,
    0xb0, 0x54, 0xbb, 0x16};

constexpr std::array<std::uint8_t, 15> kRcon = {
    0x00, 0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40,
    0x80, 0x1b, 0x36, 0x6c, 0xd8, 0xab, 0x4d};

constexpr std::uint8_t xtime(std::uint8_t x) {
  return static_cast<std::uint8_t>((x << 1) ^ ((x >> 7) * 0x1b));
}

/// T-table for the fused SubBytes+ShiftRows+MixColumns round: entry x of
/// table r is the MixColumns image of S[x] rotated into row r, so one
/// round is 16 table lookups + XORs instead of byte-wise field math.
///
/// This is the portable backend: the fallback on CPUs without AES-NI and
/// the oracle the differential test checks the hardware path against.
/// Its lookups are indexed by secret state and therefore not
/// cache-timing hardened — acceptable for a fallback inside this model,
/// whose attacker (the OS/network) times messages and never shares a
/// cache with enclave key material. The AES-NI path, which every CPU
/// with the instructions runs, has no secret-indexed lookups.
constexpr std::array<std::uint32_t, 256> make_te(int rotate_bytes) {
  std::array<std::uint32_t, 256> table{};
  for (int i = 0; i < 256; ++i) {
    const std::uint8_t s = kSbox[static_cast<std::size_t>(i)];
    const std::uint8_t s2 = xtime(s);
    const std::uint8_t s3 = static_cast<std::uint8_t>(s2 ^ s);
    const std::uint32_t word = (static_cast<std::uint32_t>(s2) << 24) |
                               (static_cast<std::uint32_t>(s) << 16) |
                               (static_cast<std::uint32_t>(s) << 8) |
                               static_cast<std::uint32_t>(s3);
    const int shift = 8 * rotate_bytes;
    table[static_cast<std::size_t>(i)] =
        shift == 0 ? word : (word >> shift) | (word << (32 - shift));
  }
  return table;
}

constexpr std::array<std::uint32_t, 256> kTe0 = make_te(0);
constexpr std::array<std::uint32_t, 256> kTe1 = make_te(1);
constexpr std::array<std::uint32_t, 256> kTe2 = make_te(2);
constexpr std::array<std::uint32_t, 256> kTe3 = make_te(3);

std::uint32_t load_be32(const std::uint8_t* p) {
  return (static_cast<std::uint32_t>(p[0]) << 24) |
         (static_cast<std::uint32_t>(p[1]) << 16) |
         (static_cast<std::uint32_t>(p[2]) << 8) |
         static_cast<std::uint32_t>(p[3]);
}

void store_be32(std::uint32_t v, std::uint8_t* p) {
  p[0] = static_cast<std::uint8_t>(v >> 24);
  p[1] = static_cast<std::uint8_t>(v >> 16);
  p[2] = static_cast<std::uint8_t>(v >> 8);
  p[3] = static_cast<std::uint8_t>(v);
}

void t_table_encrypt(const std::uint32_t* rk, const std::uint8_t* in,
                     std::uint8_t* out) {
  std::uint32_t s0 = load_be32(in) ^ rk[0];
  std::uint32_t s1 = load_be32(in + 4) ^ rk[1];
  std::uint32_t s2 = load_be32(in + 8) ^ rk[2];
  std::uint32_t s3 = load_be32(in + 12) ^ rk[3];

  for (std::size_t round = 1; round < 14; ++round) {
    rk += 4;
    const std::uint32_t t0 = kTe0[s0 >> 24] ^ kTe1[(s1 >> 16) & 0xff] ^
                             kTe2[(s2 >> 8) & 0xff] ^ kTe3[s3 & 0xff] ^ rk[0];
    const std::uint32_t t1 = kTe0[s1 >> 24] ^ kTe1[(s2 >> 16) & 0xff] ^
                             kTe2[(s3 >> 8) & 0xff] ^ kTe3[s0 & 0xff] ^ rk[1];
    const std::uint32_t t2 = kTe0[s2 >> 24] ^ kTe1[(s3 >> 16) & 0xff] ^
                             kTe2[(s0 >> 8) & 0xff] ^ kTe3[s1 & 0xff] ^ rk[2];
    const std::uint32_t t3 = kTe0[s3 >> 24] ^ kTe1[(s0 >> 16) & 0xff] ^
                             kTe2[(s1 >> 8) & 0xff] ^ kTe3[s2 & 0xff] ^ rk[3];
    s0 = t0;
    s1 = t1;
    s2 = t2;
    s3 = t3;
  }

  // Final round: SubBytes + ShiftRows + AddRoundKey, no MixColumns.
  rk += 4;
  const auto sub_word = [](std::uint32_t a, std::uint32_t b, std::uint32_t c,
                           std::uint32_t d) {
    return (static_cast<std::uint32_t>(kSbox[a >> 24]) << 24) |
           (static_cast<std::uint32_t>(kSbox[(b >> 16) & 0xff]) << 16) |
           (static_cast<std::uint32_t>(kSbox[(c >> 8) & 0xff]) << 8) |
           static_cast<std::uint32_t>(kSbox[d & 0xff]);
  };
  store_be32(sub_word(s0, s1, s2, s3) ^ rk[0], out);
  store_be32(sub_word(s1, s2, s3, s0) ^ rk[1], out + 4);
  store_be32(sub_word(s2, s3, s0, s1) ^ rk[2], out + 8);
  store_be32(sub_word(s3, s0, s1, s2) ^ rk[3], out + 12);
}

#if defined(__x86_64__)
TRIAD_CRYPTO_HW_TARGET void aesni_encrypt_block(const std::uint8_t* schedule,
                                                const std::uint8_t* in,
                                                std::uint8_t* out) {
  __m128i rk[15];
  detail::load_round_keys(schedule, rk);
  __m128i block = _mm_loadu_si128(reinterpret_cast<const __m128i*>(in));
  detail::aesni_encrypt<1>(&block, rk);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(out), block);
}
#endif

}  // namespace

Aes256::Aes256(const Aes256Key& key) { expand_key(key.data()); }

Aes256::Aes256(BytesView key) {
  if (key.size() != kAes256KeySize) {
    throw std::invalid_argument("Aes256: key must be 32 bytes");
  }
  expand_key(key.data());
}

void Aes256::expand_key(const std::uint8_t* key) {
  // Nk = 8 words, Nb = 4, Nr = 14 -> 60 words.
  std::memcpy(round_keys_.data(), key, 32);
  for (std::size_t i = 8; i < 60; ++i) {
    std::uint8_t temp[4];
    std::memcpy(temp, round_keys_.data() + 4 * (i - 1), 4);
    if (i % 8 == 0) {
      // RotWord + SubWord + Rcon.
      const std::uint8_t t0 = temp[0];
      temp[0] = static_cast<std::uint8_t>(kSbox[temp[1]] ^ kRcon[i / 8]);
      temp[1] = kSbox[temp[2]];
      temp[2] = kSbox[temp[3]];
      temp[3] = kSbox[t0];
    } else if (i % 8 == 4) {
      for (auto& b : temp) b = kSbox[b];
    }
    for (int j = 0; j < 4; ++j) {
      round_keys_[4 * i + static_cast<std::size_t>(j)] =
          round_keys_[4 * (i - 8) + static_cast<std::size_t>(j)] ^ temp[j];
    }
  }
  for (std::size_t i = 0; i < 60; ++i) {
    round_keys_words_[i] = load_be32(round_keys_.data() + 4 * i);
  }
}

void Aes256::encrypt_block(const std::uint8_t* in, std::uint8_t* out) const {
  detail::Backends::encrypt_block(detail::active_backend(), *this, in, out);
}

AesBlock Aes256::encrypt_block(const AesBlock& in) const {
  AesBlock out;
  encrypt_block(in.data(), out.data());
  return out;
}

namespace detail {

bool hardware_supported() {
#if defined(__x86_64__)
  __builtin_cpu_init();
  return __builtin_cpu_supports("aes") && __builtin_cpu_supports("pclmul") &&
         __builtin_cpu_supports("ssse3");
#else
  return false;
#endif
}

Backend active_backend() {
  static const Backend backend =
      hardware_supported() ? Backend::kHardware : Backend::kPortable;
  return backend;
}

void Backends::encrypt_block(Backend backend, const Aes256& aes,
                             const std::uint8_t* in, std::uint8_t* out) {
#if defined(__x86_64__)
  if (backend == Backend::kHardware) {
    aesni_encrypt_block(aes.round_keys_.data(), in, out);
    return;
  }
#endif
  t_table_encrypt(aes.round_keys_words_.data(), in, out);
}

}  // namespace detail
}  // namespace triad::crypto
