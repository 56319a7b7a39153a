// AES-256-GCM authenticated encryption (NIST SP 800-38D).
//
// All Triad protocol traffic is sealed with this AEAD, as in the paper's
// implementation (which uses the SGX-AES-256 library, backed by AES-NI).
// 96-bit IVs only; 128-bit tags. Each call runs AES-NI + PCLMULQDQ when
// the CPU has them and the portable T-table/Shoup code otherwise; the
// choice is made once per process (crypto/gcm_impl.h) and both produce
// the same bytes.
#pragma once

#include <array>
#include <optional>

#include "crypto/aes.h"
#include "util/bytes.h"

namespace triad::crypto {

inline constexpr std::size_t kGcmIvSize = 12;
inline constexpr std::size_t kGcmTagSize = 16;

using GcmIv = std::array<std::uint8_t, kGcmIvSize>;
using GcmTag = std::array<std::uint8_t, kGcmTagSize>;

struct GcmSealed {
  Bytes ciphertext;  // same length as plaintext
  GcmTag tag;
};

/// AES-256-GCM with a fixed key; IVs are supplied per call and must never
/// repeat for the same key (the SecureChannel enforces this with counter
/// nonces).
class Aes256Gcm {
 public:
  explicit Aes256Gcm(BytesView key);

  /// Encrypts and authenticates plaintext with associated data.
  [[nodiscard]] GcmSealed seal(const GcmIv& iv, BytesView plaintext,
                               BytesView aad) const;

  /// Verifies tag then decrypts; nullopt on authentication failure.
  [[nodiscard]] std::optional<Bytes> open(const GcmIv& iv,
                                          BytesView ciphertext,
                                          BytesView aad,
                                          const GcmTag& tag) const;

  /// seal() into caller-owned memory: writes plaintext.size() bytes of
  /// ciphertext to `ciphertext` and kGcmTagSize bytes to `tag`; neither
  /// may overlap the inputs.
  void seal_to(const GcmIv& iv, BytesView plaintext, BytesView aad,
               std::uint8_t* ciphertext, std::uint8_t* tag) const;

  /// open() into caller-owned memory. Checks the kGcmTagSize-byte `tag`
  /// in constant time first; only on success sizes `plaintext` to
  /// ciphertext.size() (reusing its capacity) and decrypts into it. On
  /// failure returns false and leaves `plaintext` untouched, so a forged
  /// message costs no allocation. `ciphertext` must not view `plaintext`.
  [[nodiscard]] bool open_to(const GcmIv& iv, BytesView ciphertext,
                             BytesView aad, const std::uint8_t* tag,
                             Bytes& plaintext) const;

 private:
  friend struct detail::Backends;

  using Block128 = std::array<std::uint64_t, 2>;  // big-endian hi/lo halves

  Aes256 aes_;
  /// Shoup 4-bit table for the GHASH subkey H = E_K(0^128): entry n is
  /// (bit3(n) + bit2(n)·x + bit1(n)·x² + bit0(n)·x³)·H, letting the
  /// portable GHASH multiply by H in 32 table lookups per block instead
  /// of a 128-iteration bit-serial loop. 256 bytes per cipher instance,
  /// built once at key setup. The lookups are indexed by secret data;
  /// only the portable fallback (and test oracle) uses the table. The
  /// PCLMULQDQ path reads H itself from entry 8 and has no secret-indexed
  /// lookups.
  std::array<Block128, 16> h_table_{};
};

}  // namespace triad::crypto
