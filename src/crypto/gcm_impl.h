// Internal seam between Aes256/Aes256Gcm and their two implementations.
// Not part of the crypto API: production code calls Aes256/Aes256Gcm,
// which run active_backend(); the differential test calls each backend
// by name and checks one against the other.
//
//   kPortable  T-table AES + Shoup 4-bit GHASH in plain C++. Runs on any
//              CPU; the fallback and the test oracle.
//   kHardware  AES-NI + PCLMULQDQ (x86-64 builds on CPUs that have them).
//              No secret-indexed table lookups.
#pragma once

#include <cstdint>

#include "crypto/aes.h"
#include "crypto/gcm.h"
#include "util/bytes.h"

#if defined(__x86_64__)
#include <immintrin.h>
#endif

namespace triad::crypto::detail {

enum class Backend : std::uint8_t { kPortable, kHardware };

/// True on x86-64 builds when CPUID reports AES-NI, PCLMULQDQ and SSSE3.
[[nodiscard]] bool hardware_supported();

/// kHardware when hardware_supported(), else kPortable; probed once per
/// process.
[[nodiscard]] Backend active_backend();

/// One backend run by name. A friend of Aes256 and Aes256Gcm for their
/// key schedules; kHardware requires hardware_supported().
struct Backends {
  static void encrypt_block(Backend backend, const Aes256& aes,
                            const std::uint8_t* in, std::uint8_t* out);
  /// Aes256Gcm::seal_to through `backend`.
  static void seal(Backend backend, const Aes256Gcm& gcm, const GcmIv& iv,
                   BytesView plaintext, BytesView aad,
                   std::uint8_t* ciphertext, std::uint8_t* tag);
  /// Aes256Gcm::open_to through `backend`.
  [[nodiscard]] static bool open(Backend backend, const Aes256Gcm& gcm,
                                 const GcmIv& iv, BytesView ciphertext,
                                 BytesView aad, const std::uint8_t* tag,
                                 Bytes& plaintext);
};

#if defined(__x86_64__)
// Every hardware-path function carries this, so the rest of the build
// stays at the baseline ISA; callers check hardware_supported() first.
#define TRIAD_CRYPTO_HW_TARGET __attribute__((target("aes,pclmul,ssse3")))

/// The 15 AES-256 round keys as aesenc operands: the FIPS 197 byte
/// schedule loads as is.
TRIAD_CRYPTO_HW_TARGET inline void load_round_keys(
    const std::uint8_t* schedule, __m128i* rk) {
  for (int i = 0; i < 15; ++i) {
    rk[i] = _mm_loadu_si128(
        reinterpret_cast<const __m128i*>(schedule + 16 * i));
  }
}

/// Encrypts N independent blocks in lockstep, round by round, so each
/// aesenc's latency hides behind the other blocks'. Fully unrolled: the
/// blocks and round keys stay in registers.
template <int N>
TRIAD_CRYPTO_HW_TARGET __attribute__((always_inline)) inline void
aesni_encrypt(__m128i* blocks, const __m128i* rk) {
#pragma GCC unroll 4
  for (int i = 0; i < N; ++i) blocks[i] = _mm_xor_si128(blocks[i], rk[0]);
#pragma GCC unroll 13
  for (int round = 1; round < 14; ++round) {
#pragma GCC unroll 4
    for (int i = 0; i < N; ++i) {
      blocks[i] = _mm_aesenc_si128(blocks[i], rk[round]);
    }
  }
#pragma GCC unroll 4
  for (int i = 0; i < N; ++i) {
    blocks[i] = _mm_aesenclast_si128(blocks[i], rk[14]);
  }
}
#endif

}  // namespace triad::crypto::detail
