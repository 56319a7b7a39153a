#include "util/parse.h"

#include <charconv>
#include <cmath>
#include <limits>

namespace triad {
namespace {

template <typename T>
bool parse_whole(std::string_view text, T* out) {
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, *out);
  return ec == std::errc{} && ptr == end;
}

}  // namespace

bool parse_u64(std::string_view text, std::uint64_t* out) {
  return parse_whole(text, out);
}

bool parse_duration(std::string_view text, Duration* out) {
  std::size_t split = 0;
  while (split < text.size() && text[split] >= '0' && text[split] <= '9') {
    ++split;
  }
  std::uint64_t value = 0;
  if (split == 0 || !parse_u64(text.substr(0, split), &value)) return false;
  const std::string_view unit = text.substr(split);
  Duration unit_ns = 0;
  if (unit == "ms") {
    unit_ns = milliseconds(1);
  } else if (unit == "s") {
    unit_ns = seconds(1);
  } else if (unit == "m") {
    unit_ns = minutes(1);
  } else if (unit == "h") {
    unit_ns = hours(1);
  } else {
    return false;
  }
  // Refuse what a Duration of nanoseconds cannot hold.
  const Duration max = std::numeric_limits<Duration>::max();
  if (value > static_cast<std::uint64_t>(max / unit_ns)) return false;
  *out = static_cast<Duration>(value) * unit_ns;
  return true;
}

bool parse_seed_range(std::string_view text, std::uint64_t* lo,
                      std::uint64_t* hi) {
  const std::size_t dots = text.find("..");
  if (dots == std::string_view::npos) {
    if (!parse_u64(text, lo)) return false;
    *hi = *lo;
    return true;
  }
  return parse_u64(text.substr(0, dots), lo) &&
         parse_u64(text.substr(dots + 2), hi) && *lo <= *hi;
}

bool parse_jobs(std::string_view text, std::size_t* out) {
  std::uint64_t n = 0;
  if (!parse_u64(text, &n) || n == 0 || n > kMaxJobs) return false;
  *out = static_cast<std::size_t>(n);
  return true;
}

bool parse_non_negative(std::string_view text, double* out) {
  return parse_whole(text, out) && std::isfinite(*out) && *out >= 0;
}

bool parse_node_id(std::string_view text, NodeId* out) {
  return parse_whole(text, out) && *out != 0;
}

}  // namespace triad
