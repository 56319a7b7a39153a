// The one compact JSON writer of src/obs: JSONL trace lines (export.cpp)
// and the forensic and cluster reports write their objects through it.
// Numbers use fixed formats, so equal inputs give equal bytes: integers
// in plain decimal (what PRId64/PRIu64 print) and doubles as std::to_chars
// general with precision 10, which is specified to print exactly what
// printf's %.10g prints. Internal to src/obs: no public header includes
// it.
#pragma once

#include <algorithm>
#include <array>
#include <charconv>
#include <cstdarg>
#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>

namespace triad::obs {

/// printf onto the end of *out; one call writes at most 511 bytes.
inline void append(std::string* out, const char* fmt, ...) {
  char buffer[512];
  va_list args;
  va_start(args, fmt);
  const int n = std::vsnprintf(buffer, sizeof(buffer), fmt, args);
  va_end(args);
  if (n > 0) out->append(buffer, std::min<std::size_t>(n, sizeof(buffer) - 1));
}

/// Room for any number's text: 20 digits and a sign, or
/// "-1.797693135e+308".
using NumberBuffer = std::array<char, 32>;

/// The text JsonFields writes for `value`, placed in *buffer.
template <typename Number>
std::string_view number_text(Number value, NumberBuffer* buffer) {
  char* const first = buffer->data();
  char* const last = first + buffer->size();
  if constexpr (std::is_floating_point_v<Number>) {
    return {first, std::to_chars(first, last, value,
                                 std::chars_format::general, 10)
                       .ptr};
  } else {
    return {first, std::to_chars(first, last, value).ptr};
  }
}

/// Writes the `"key":value` members of one JSON object onto *out and
/// places the commas; the caller writes the braces. Keys and string
/// values are field and enum names: never escaped.
class JsonFields {
 public:
  /// `first` = false continues an object that already has members.
  explicit JsonFields(std::string* out, bool first = true)
      : out_(out), first_(first) {}

  void integer(std::string_view key, std::int64_t value) {
    write_number(key, value);
  }
  void uinteger(std::string_view key, std::uint64_t value) {
    write_number(key, value);
  }
  void number(std::string_view key, double value) {
    write_number(key, value);
  }
  void str(std::string_view key, std::string_view value) {
    open(key).append(1, '"').append(value).append(1, '"');
  }
  void boolean(std::string_view key, bool value) {
    open(key).append(value ? "true" : "false");
  }

 private:
  template <typename Number>
  void write_number(std::string_view key, Number value) {
    NumberBuffer buffer;
    open(key).append(number_text(value, &buffer));
  }
  const char* sep() { return std::exchange(first_, false) ? "" : ","; }
  std::string& open(std::string_view key) {
    return out_->append(sep()).append(1, '"').append(key).append("\":");
  }

  std::string* out_;
  bool first_;
};

}  // namespace triad::obs
