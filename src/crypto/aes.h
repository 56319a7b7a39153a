// AES-256 block cipher (FIPS 197). Only encryption is exposed: GCM uses
// the forward cipher for both directions. Two implementations sit behind
// the class (AES-NI, and a portable T-table fallback); crypto/gcm_impl.h
// picks one per process.
#pragma once

#include <array>
#include <cstdint>

#include "util/bytes.h"

namespace triad::crypto {

namespace detail {
struct Backends;
}  // namespace detail

inline constexpr std::size_t kAesBlockSize = 16;
inline constexpr std::size_t kAes256KeySize = 32;

using AesBlock = std::array<std::uint8_t, kAesBlockSize>;
using Aes256Key = std::array<std::uint8_t, kAes256KeySize>;

/// AES-256 with a precomputed key schedule.
class Aes256 {
 public:
  explicit Aes256(const Aes256Key& key);
  /// Accepts any 32-byte view; throws std::invalid_argument otherwise.
  explicit Aes256(BytesView key);

  /// Encrypts one 16-byte block (in may alias out) with the process's
  /// backend (see crypto/gcm_impl.h).
  void encrypt_block(const std::uint8_t* in, std::uint8_t* out) const;
  [[nodiscard]] AesBlock encrypt_block(const AesBlock& in) const;

 private:
  friend struct detail::Backends;

  void expand_key(const std::uint8_t* key);
  // 15 round keys of 16 bytes (Nr = 14), in FIPS 197 byte order — also
  // the operand order of AES-NI's aesenc.
  std::array<std::uint8_t, 16 * 15> round_keys_{};
  // The same schedule as big-endian words, for the portable T-table
  // round function (one word per state column).
  std::array<std::uint32_t, 60> round_keys_words_{};
};

}  // namespace triad::crypto
