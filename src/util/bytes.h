// Bounds-checked binary serialization used for every wire message.
//
// Encoding is little-endian, fixed width. Readers never trust lengths:
// every get_* checks remaining bytes and throws DecodeError on truncation,
// which callers at trust boundaries (network input) catch and treat as a
// malformed datagram.
#pragma once

#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace triad {

using Bytes = std::vector<std::uint8_t>;
using BytesView = std::span<const std::uint8_t>;

/// Thrown by ByteReader when input is truncated or malformed.
class DecodeError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Appends fixed-width little-endian values to a growing buffer.
class ByteWriter {
 public:
  ByteWriter() = default;
  /// Writes into `buf` from its start, reusing its capacity.
  explicit ByteWriter(Bytes buf) : buf_(std::move(buf)) { buf_.clear(); }

  void put_u8(std::uint8_t v);
  void put_u16(std::uint16_t v);
  void put_u32(std::uint32_t v);
  void put_u64(std::uint64_t v);
  void put_i64(std::int64_t v);
  void put_f64(double v);
  void put_bytes(BytesView data);
  /// Length-prefixed (u32) byte string.
  void put_var_bytes(BytesView data);
  /// Length-prefixed (u32) UTF-8 string.
  void put_string(std::string_view s);

  [[nodiscard]] const Bytes& data() const { return buf_; }
  Bytes take() { return std::move(buf_); }
  [[nodiscard]] std::size_t size() const { return buf_.size(); }

 private:
  Bytes buf_;
};

/// Consumes values from a byte span; throws DecodeError on underflow.
class ByteReader {
 public:
  explicit ByteReader(BytesView data) : data_(data) {}

  std::uint8_t get_u8();
  std::uint16_t get_u16();
  std::uint32_t get_u32();
  std::uint64_t get_u64();
  std::int64_t get_i64();
  double get_f64();
  Bytes get_bytes(std::size_t n);
  Bytes get_var_bytes();
  std::string get_string();

  [[nodiscard]] std::size_t remaining() const { return data_.size() - pos_; }
  [[nodiscard]] bool empty() const { return remaining() == 0; }
  /// Throws DecodeError unless the whole input was consumed.
  void expect_end() const;

 private:
  void require(std::size_t n) const;
  BytesView data_;
  std::size_t pos_ = 0;
};

}  // namespace triad
