// Scalar parsers for command-line flag and spec-file values.
//
// Every parser consumes the whole text or fails: "12abc", "1e3", "-1"
// and out-of-range numbers are rejected rather than truncated, so each
// tool turns a bad value into one `bad --FLAG` line instead of a silent
// default or an exception.
#pragma once

#include <cstddef>
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

/// Most seeds one sweep or campaign grid may list (the paper's grids use
/// at most 32). Parsers check it from a range's bounds before building
/// any list, so a range like 0..18446744073709551615 is a bad value
/// rather than an allocation that exhausts memory.
inline constexpr std::uint64_t kMaxSeeds = 4096;

/// Largest cluster a campaign grid or triad_sim run may ask for (the
/// paper's largest grid has 7 nodes). Every node gets a full-mesh peer
/// list, so a typo like 100000 would otherwise ask for ~10^10 entries.
inline constexpr std::uint64_t kMaxNodes = 256;

/// Most worker threads --jobs may start: the bound triad_timed's
/// --workers has.
inline constexpr std::size_t kMaxJobs = 64;

/// A --jobs value: a decimal integer in 1..kMaxJobs.
bool parse_jobs(std::string_view text, std::size_t* out);

/// A finite, non-negative decimal number (e.g. milliseconds or seconds).
bool parse_non_negative(std::string_view text, double* out);

/// A decimal node id that fits NodeId. 0 is the reports' "cluster-wide /
/// none" value, so no endpoint can be node 0.
bool parse_node_id(std::string_view text, NodeId* out);

}  // namespace triad
