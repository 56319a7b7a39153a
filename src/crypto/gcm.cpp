#include "crypto/gcm.h"

#include <algorithm>
#include <cstring>

#include "crypto/gcm_impl.h"
#include "obs/prof.h"

namespace triad::crypto {
namespace {

using Block128 = std::array<std::uint64_t, 2>;

Block128 load_block(const std::uint8_t* p) {
  Block128 b{};
  for (int i = 0; i < 8; ++i) {
    b[0] = (b[0] << 8) | p[i];
    b[1] = (b[1] << 8) | p[8 + i];
  }
  return b;
}

void store_block(const Block128& b, std::uint8_t* p) {
  for (int i = 0; i < 8; ++i) {
    p[i] = static_cast<std::uint8_t>(b[0] >> (56 - 8 * i));
    p[8 + i] = static_cast<std::uint8_t>(b[1] >> (56 - 8 * i));
  }
}

/// Multiplies a field element by x (one right shift in the bit-reflected
/// representation NIST specifies, reducing by the GCM polynomial).
Block128 mul_by_x(const Block128& v) {
  Block128 r;
  const bool lsb = (v[1] & 1) != 0;
  r[1] = (v[1] >> 1) | (v[0] << 63);
  r[0] = v[0] >> 1;
  if (lsb) r[0] ^= 0xe100000000000000ULL;
  return r;
}

/// Reduction constants for a 4-bit right shift (Shoup's method): entry n
/// is what XORs into the top 16 bits of the 128-bit value when the
/// nibble n falls off the low end — the image of n·x^128 under the GCM
/// polynomial, accumulated across the four single-bit shifts.
constexpr std::array<std::uint16_t, 16> kShiftReduction = {
    0x0000, 0x1c20, 0x3840, 0x2460, 0x7080, 0x6ca0, 0x48c0, 0x54e0,
    0xe100, 0xfd20, 0xd940, 0xc560, 0x9180, 0x8da0, 0xa9c0, 0xb5e0,
};

/// GF(2^128) multiply by H via its 4-bit Shoup table: Horner over the 32
/// nibbles of x, highest-degree nibble first. ~4x fewer iterations and
/// no data-dependent branches compared to the bit-serial loop this
/// replaced.
Block128 gf_mul(const Block128& x, const std::array<Block128, 16>& table) {
  Block128 z{0, 0};
  for (int half = 1; half >= 0; --half) {
    std::uint64_t word = x[half];
    for (int nibble = 0; nibble < 16; ++nibble) {
      const std::uint64_t out = z[1] & 0xf;
      z[1] = (z[1] >> 4) | (z[0] << 60);
      z[0] = (z[0] >> 4) ^
             (static_cast<std::uint64_t>(kShiftReduction[out]) << 48);
      const Block128& add = table[word & 0xf];
      z[0] ^= add[0];
      z[1] ^= add[1];
      word >>= 4;
    }
  }
  return z;
}

void increment32(std::uint8_t* counter_block) {
  for (int i = 15; i >= 12; --i) {
    if (++counter_block[i] != 0) break;
  }
}

/// Pre-counter block J0 for a 96-bit IV: IV || 0^31 || 1.
void make_j0(const GcmIv& iv, std::uint8_t* j0) {
  std::memcpy(j0, iv.data(), kGcmIvSize);
  j0[12] = j0[13] = j0[14] = 0;
  j0[15] = 1;
}

bool constant_time_equal(const std::uint8_t* a, const std::uint8_t* b,
                         std::size_t n) {
  std::uint8_t diff = 0;
  for (std::size_t i = 0; i < n; ++i) diff |= a[i] ^ b[i];
  return diff == 0;
}

// ---- Portable backend: T-table AES, Shoup GHASH. ----

void portable_encrypt(const Aes256& aes, const std::uint8_t* in,
                      std::uint8_t* out) {
  detail::Backends::encrypt_block(detail::Backend::kPortable, aes, in, out);
}

Block128 portable_ghash(const std::array<Block128, 16>& h_table,
                        BytesView aad, BytesView ciphertext) {
  Block128 y{0, 0};
  auto absorb = [&](BytesView data) {
    std::size_t offset = 0;
    while (offset + 16 <= data.size()) {
      const Block128 x = load_block(data.data() + offset);
      y[0] ^= x[0];
      y[1] ^= x[1];
      y = gf_mul(y, h_table);
      offset += 16;
    }
    if (offset < data.size()) {
      std::uint8_t block[16] = {};
      std::memcpy(block, data.data() + offset, data.size() - offset);
      const Block128 x = load_block(block);
      y[0] ^= x[0];
      y[1] ^= x[1];
      y = gf_mul(y, h_table);
    }
  };
  absorb(aad);
  absorb(ciphertext);
  // Length block: 64-bit bit-lengths of AAD and ciphertext.
  Block128 lens{static_cast<std::uint64_t>(aad.size()) * 8,
                static_cast<std::uint64_t>(ciphertext.size()) * 8};
  y[0] ^= lens[0];
  y[1] ^= lens[1];
  return gf_mul(y, h_table);
}

/// CTR over `in` into `out`, counters from J0 + 1.
void portable_ctr(const Aes256& aes, const GcmIv& iv, BytesView in,
                  std::uint8_t* out) {
  std::uint8_t counter[16];
  make_j0(iv, counter);
  std::size_t offset = 0;
  while (offset < in.size()) {
    increment32(counter);
    std::uint8_t keystream[16];
    portable_encrypt(aes, counter, keystream);
    const std::size_t take = std::min<std::size_t>(16, in.size() - offset);
    for (std::size_t i = 0; i < take; ++i) {
      out[offset + i] = in[offset + i] ^ keystream[i];
    }
    offset += take;
  }
}

void portable_tag(const Aes256& aes, const std::array<Block128, 16>& h_table,
                  const GcmIv& iv, BytesView aad, BytesView ciphertext,
                  std::uint8_t* tag) {
  const Block128 s = portable_ghash(h_table, aad, ciphertext);
  std::uint8_t j0[16];
  make_j0(iv, j0);
  std::uint8_t ekj0[16];
  portable_encrypt(aes, j0, ekj0);
  std::uint8_t s_bytes[16];
  store_block(s, s_bytes);
  for (std::size_t i = 0; i < kGcmTagSize; ++i) tag[i] = ekj0[i] ^ s_bytes[i];
}

// ---- Hardware backend: AES-NI, PCLMULQDQ GHASH. ----
//
// Field elements live in __m128i in byte-reflected form: the 16 bytes of
// a block reversed, so the register holds the block as one big-endian
// 128-bit integer (H is h_table_[8]'s hi:lo halves). Counter blocks stay
// byte-reversed too, which puts GCM's 32-bit big-endian counter in lane 0
// where _mm_add_epi32 is exactly inc32.

#if defined(__x86_64__)

TRIAD_CRYPTO_HW_TARGET inline __m128i load16(const std::uint8_t* p) {
  return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
}

TRIAD_CRYPTO_HW_TARGET inline void store16(std::uint8_t* p, __m128i x) {
  _mm_storeu_si128(reinterpret_cast<__m128i*>(p), x);
}

TRIAD_CRYPTO_HW_TARGET inline __m128i reverse_bytes(__m128i x) {
  return _mm_shuffle_epi8(
      x, _mm_set_epi8(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15));
}

/// First `n` < 16 bytes of `p`, zero-padded to a block.
TRIAD_CRYPTO_HW_TARGET inline __m128i load_partial(const std::uint8_t* p,
                                                   std::size_t n) {
  std::uint8_t block[16] = {};
  std::memcpy(block, p, n);
  return load16(block);
}

/// GF(2^128) product of two byte-reflected elements: the gfmul code
/// sample (Algorithms 1 and 5) of Gueron & Kounavis, "Intel Carry-Less
/// Multiplication Instruction and its Usage for Computing the GCM Mode".
/// Four PCLMULQDQ give the 256-bit carry-less product, a one-bit left
/// shift undoes GCM's bit reflection, and two shift-and-XOR phases reduce
/// by x^128 + x^7 + x^2 + x + 1.
TRIAD_CRYPTO_HW_TARGET inline __m128i clmul_gf_mul(__m128i a, __m128i b) {
  __m128i lo = _mm_clmulepi64_si128(a, b, 0x00);
  __m128i mid = _mm_xor_si128(_mm_clmulepi64_si128(a, b, 0x10),
                              _mm_clmulepi64_si128(a, b, 0x01));
  __m128i hi = _mm_clmulepi64_si128(a, b, 0x11);
  lo = _mm_xor_si128(lo, _mm_slli_si128(mid, 8));
  hi = _mm_xor_si128(hi, _mm_srli_si128(mid, 8));

  // Shift the 256-bit product hi:lo left by one bit.
  const __m128i lo_carry = _mm_srli_epi32(lo, 31);
  const __m128i hi_carry = _mm_srli_epi32(hi, 31);
  lo = _mm_or_si128(_mm_slli_epi32(lo, 1), _mm_slli_si128(lo_carry, 4));
  hi = _mm_or_si128(_mm_slli_epi32(hi, 1), _mm_slli_si128(hi_carry, 4));
  hi = _mm_or_si128(hi, _mm_srli_si128(lo_carry, 12));

  // Reduction, first phase.
  __m128i t = _mm_xor_si128(
      _mm_xor_si128(_mm_slli_epi32(lo, 31), _mm_slli_epi32(lo, 30)),
      _mm_slli_epi32(lo, 25));
  const __m128i carry = _mm_srli_si128(t, 4);
  lo = _mm_xor_si128(lo, _mm_slli_si128(t, 12));
  // Second phase.
  t = _mm_xor_si128(
      _mm_xor_si128(_mm_srli_epi32(lo, 1), _mm_srli_epi32(lo, 2)),
      _mm_xor_si128(_mm_srli_epi32(lo, 7), carry));
  return _mm_xor_si128(hi, _mm_xor_si128(lo, t));
}

TRIAD_CRYPTO_HW_TARGET inline __m128i ghash_block(__m128i y, __m128i h,
                                                  __m128i block) {
  return clmul_gf_mul(_mm_xor_si128(y, reverse_bytes(block)), h);
}

TRIAD_CRYPTO_HW_TARGET __m128i ghash_absorb(__m128i y, __m128i h,
                                            BytesView data) {
  const std::size_t full = data.size() & ~std::size_t{15};
  for (std::size_t offset = 0; offset < full; offset += 16) {
    y = ghash_block(y, h, load16(data.data() + offset));
  }
  if (full < data.size()) {
    y = ghash_block(y, h, load_partial(data.data() + full, data.size() - full));
  }
  return y;
}

/// Absorbs the length block and returns the GHASH output, byte order
/// restored.
TRIAD_CRYPTO_HW_TARGET inline __m128i ghash_finish(__m128i y, __m128i h,
                                                   std::size_t aad_size,
                                                   std::size_t ct_size) {
  const __m128i lengths =
      _mm_set_epi64x(static_cast<long long>(aad_size * 8),
                     static_cast<long long>(ct_size * 8));
  return reverse_bytes(clmul_gf_mul(_mm_xor_si128(y, lengths), h));
}

/// J0 in the byte-reversed counter form.
TRIAD_CRYPTO_HW_TARGET inline __m128i counter_j0(const GcmIv& iv) {
  std::uint8_t j0[16];
  make_j0(iv, j0);
  return reverse_bytes(load16(j0));
}

/// Encrypts the four counter blocks from *counter into `keystream` and
/// advances *counter past them.
TRIAD_CRYPTO_HW_TARGET inline void next_keystream(const __m128i* rk,
                                                  __m128i* counter,
                                                  __m128i* keystream) {
  const __m128i one = _mm_set_epi32(0, 0, 0, 1);
  for (int i = 0; i < 4; ++i) {
    keystream[i] = reverse_bytes(*counter);
    *counter = _mm_add_epi32(*counter, one);
  }
  detail::aesni_encrypt<4>(keystream, rk);
}

/// XORs the CTR keystream for J0 + 1, J0 + 2, ... over `in` into `out`
/// and returns E_K(J0), the tag mask. AES runs four counters per batch,
/// J0 first, so the tag mask costs no extra pass. With `y` set, each
/// ciphertext block (the output: this is seal) is absorbed into the GHASH
/// state *y as it is produced.
TRIAD_CRYPTO_HW_TARGET __attribute__((always_inline)) inline __m128i
ctr_crypt(const __m128i* rk, const GcmIv& iv, BytesView in, std::uint8_t* out,
          __m128i h, __m128i* y) {
  __m128i counter = counter_j0(iv);
  __m128i keystream[4];
  next_keystream(rk, &counter, keystream);
  const __m128i ekj0 = keystream[0];
  std::size_t next = 1;  // keystream[next] is the next unused block
  for (std::size_t offset = 0; offset < in.size(); offset += 16) {
    if (next == 4) {
      next_keystream(rk, &counter, keystream);
      next = 0;
    }
    const std::size_t take = std::min<std::size_t>(16, in.size() - offset);
    __m128i block;
    if (take == 16) {
      block = _mm_xor_si128(load16(in.data() + offset), keystream[next]);
      store16(out + offset, block);
    } else {
      std::uint8_t tail[16] = {};
      std::memcpy(tail, in.data() + offset, take);
      store16(tail, _mm_xor_si128(load16(tail), keystream[next]));
      std::memcpy(out + offset, tail, take);
      std::memset(tail + take, 0, 16 - take);  // GHASH pads with zeros
      block = load16(tail);
    }
    if (y != nullptr) *y = ghash_block(*y, h, block);
    ++next;
  }
  return ekj0;
}

TRIAD_CRYPTO_HW_TARGET void hardware_seal(const std::uint8_t* schedule,
                                          const Block128& h_words,
                                          const GcmIv& iv,
                                          BytesView plaintext, BytesView aad,
                                          std::uint8_t* ciphertext,
                                          std::uint8_t* tag) {
  __m128i rk[15];
  detail::load_round_keys(schedule, rk);
  const __m128i h = _mm_set_epi64x(static_cast<long long>(h_words[0]),
                                   static_cast<long long>(h_words[1]));
  __m128i y = ghash_absorb(_mm_setzero_si128(), h, aad);
  const __m128i ekj0 = ctr_crypt(rk, iv, plaintext, ciphertext, h, &y);
  store16(tag, _mm_xor_si128(
                   ghash_finish(y, h, aad.size(), plaintext.size()), ekj0));
}

/// Checks the tag, then (only on success) decrypts into `plaintext`.
TRIAD_CRYPTO_HW_TARGET bool hardware_open(const std::uint8_t* schedule,
                                          const Block128& h_words,
                                          const GcmIv& iv,
                                          BytesView ciphertext, BytesView aad,
                                          const std::uint8_t* tag,
                                          Bytes& plaintext) {
  __m128i rk[15];
  detail::load_round_keys(schedule, rk);
  const __m128i h = _mm_set_epi64x(static_cast<long long>(h_words[0]),
                                   static_cast<long long>(h_words[1]));
  std::uint8_t j0[16];
  make_j0(iv, j0);
  __m128i ekj0 = load16(j0);
  detail::aesni_encrypt<1>(&ekj0, rk);
  __m128i y = ghash_absorb(_mm_setzero_si128(), h, aad);
  y = ghash_absorb(y, h, ciphertext);
  const __m128i expected =
      _mm_xor_si128(ghash_finish(y, h, aad.size(), ciphertext.size()), ekj0);
  // Constant time: every byte is compared, no early exit.
  const __m128i equal = _mm_cmpeq_epi8(expected, load16(tag));
  if (_mm_movemask_epi8(equal) != 0xffff) return false;
  plaintext.resize(ciphertext.size());
  (void)ctr_crypt(rk, iv, ciphertext, plaintext.data(), h, nullptr);
  return true;
}

#endif  // defined(__x86_64__)

}  // namespace

Aes256Gcm::Aes256Gcm(BytesView key) : aes_(key) {
  AesBlock zero{};
  const AesBlock h_bytes = aes_.encrypt_block(zero);
  const Block128 h = load_block(h_bytes.data());
  // Shoup table: powers of x at the single-bit indices (bit 3 of the
  // index is the x^0 coefficient — see gf_mul), XOR combinations at the
  // rest.
  h_table_[8] = h;
  h_table_[4] = mul_by_x(h_table_[8]);
  h_table_[2] = mul_by_x(h_table_[4]);
  h_table_[1] = mul_by_x(h_table_[2]);
  for (int base = 2; base < 16; base *= 2) {
    for (int add = 1; add < base; ++add) {
      h_table_[base + add] = {h_table_[base][0] ^ h_table_[add][0],
                              h_table_[base][1] ^ h_table_[add][1]};
    }
  }
}

GcmSealed Aes256Gcm::seal(const GcmIv& iv, BytesView plaintext,
                          BytesView aad) const {
  GcmSealed sealed;
  sealed.ciphertext.resize(plaintext.size());
  seal_to(iv, plaintext, aad, sealed.ciphertext.data(), sealed.tag.data());
  return sealed;
}

std::optional<Bytes> Aes256Gcm::open(const GcmIv& iv, BytesView ciphertext,
                                     BytesView aad, const GcmTag& tag) const {
  Bytes plaintext;
  if (!open_to(iv, ciphertext, aad, tag.data(), plaintext)) {
    return std::nullopt;
  }
  return plaintext;
}

void Aes256Gcm::seal_to(const GcmIv& iv, BytesView plaintext, BytesView aad,
                        std::uint8_t* ciphertext, std::uint8_t* tag) const {
  PROF_SCOPE("crypto/gcm_seal");
  detail::Backends::seal(detail::active_backend(), *this, iv, plaintext, aad,
                         ciphertext, tag);
}

bool Aes256Gcm::open_to(const GcmIv& iv, BytesView ciphertext, BytesView aad,
                        const std::uint8_t* tag, Bytes& plaintext) const {
  PROF_SCOPE("crypto/gcm_open");
  return detail::Backends::open(detail::active_backend(), *this, iv,
                                ciphertext, aad, tag, plaintext);
}

namespace detail {

void Backends::seal(Backend backend, const Aes256Gcm& gcm, const GcmIv& iv,
                    BytesView plaintext, BytesView aad,
                    std::uint8_t* ciphertext, std::uint8_t* tag) {
#if defined(__x86_64__)
  if (backend == Backend::kHardware) {
    hardware_seal(gcm.aes_.round_keys_.data(), gcm.h_table_[8], iv,
                  plaintext, aad, ciphertext, tag);
    return;
  }
#endif
  portable_ctr(gcm.aes_, iv, plaintext, ciphertext);
  portable_tag(gcm.aes_, gcm.h_table_, iv, aad,
               BytesView(ciphertext, plaintext.size()), tag);
}

bool Backends::open(Backend backend, const Aes256Gcm& gcm, const GcmIv& iv,
                    BytesView ciphertext, BytesView aad,
                    const std::uint8_t* tag, Bytes& plaintext) {
#if defined(__x86_64__)
  if (backend == Backend::kHardware) {
    return hardware_open(gcm.aes_.round_keys_.data(), gcm.h_table_[8], iv,
                         ciphertext, aad, tag, plaintext);
  }
#endif
  std::uint8_t expected[kGcmTagSize];
  portable_tag(gcm.aes_, gcm.h_table_, iv, aad, ciphertext, expected);
  if (!constant_time_equal(expected, tag, kGcmTagSize)) return false;
  plaintext.resize(ciphertext.size());
  portable_ctr(gcm.aes_, iv, ciphertext, plaintext.data());
  return true;
}

}  // namespace detail
}  // namespace triad::crypto
