// The one compact JSON writer of src/obs: JSONL trace lines (export.cpp)
// and the forensic and cluster reports write their objects through it.
// Numbers use fixed formats, so equal inputs give equal bytes: integers
// in plain decimal (what PRId64/PRIu64 print) and doubles as std::to_chars
// general with precision 10, which is specified to print exactly what
// printf's %.10g prints. Internal to src/obs: no public header includes
// it.
#pragma once

#include <algorithm>
#include <charconv>
#include <cstdarg>
#include <cstdint>
#include <cstdio>
#include <iterator>
#include <string>
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

/// Writes the `"key":value` members of one JSON object onto *out and
/// places the commas; the caller writes the braces. Keys and string
/// values are field and enum names: never escaped.
class JsonFields {
 public:
  /// `first` = false continues an object that already has members.
  explicit JsonFields(std::string* out, bool first = true)
      : out_(out), first_(first) {}

  void integer(const char* key, std::int64_t value) { decimal(key, value); }
  void uinteger(const char* key, std::uint64_t value) { decimal(key, value); }
  void number(const char* key, double value) {
    char buffer[32];  // "-1.797693135e+308" is the longest
    char* end = std::to_chars(buffer, std::end(buffer), value,
                              std::chars_format::general, 10)
                    .ptr;
    open(key).append(buffer, end);
  }
  void str(const char* key, const char* value) {
    open(key).append(1, '"').append(value).append(1, '"');
  }
  void boolean(const char* key, bool value) {
    open(key).append(value ? "true" : "false");
  }

 private:
  template <typename Int>
  void decimal(const char* key, Int value) {
    char buffer[24];  // 20 digits and a sign at most
    char* end = std::to_chars(buffer, std::end(buffer), value).ptr;
    open(key).append(buffer, end);
  }
  const char* sep() { return std::exchange(first_, false) ? "" : ","; }
  std::string& open(const char* key) {
    return out_->append(sep()).append(1, '"').append(key).append("\":");
  }

  std::string* out_;
  bool first_;
};

}  // namespace triad::obs
