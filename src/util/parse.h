// Scalar parsers for command-line flag and spec-file values.
//
// Every parser consumes the whole text or fails: "12abc", "1e3", "-1"
// and out-of-range numbers are rejected rather than truncated, so each
// tool turns a bad value into one `bad --FLAG` line instead of a silent
// default or an exception.
#pragma once

#include <cstdint>
#include <string_view>

#include "util/types.h"

namespace triad {

/// A non-negative decimal integer.
bool parse_u64(std::string_view text, std::uint64_t* out);

/// "<n>ms" | "<n>s" | "<n>m" | "<n>h" into nanoseconds; false when the
/// result does not fit a Duration.
bool parse_duration(std::string_view text, Duration* out);

/// "A..B" (inclusive, A <= B) or a single "A" into [*lo, *hi].
bool parse_seed_range(std::string_view text, std::uint64_t* lo,
                      std::uint64_t* hi);

/// A finite, non-negative decimal number (e.g. milliseconds or seconds).
bool parse_non_negative(std::string_view text, double* out);

/// A decimal node id that fits NodeId. 0 is the reports' "cluster-wide /
/// none" value, so no endpoint can be node 0.
bool parse_node_id(std::string_view text, NodeId* out);

}  // namespace triad
