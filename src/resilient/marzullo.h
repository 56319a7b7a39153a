// Marzullo's algorithm (Marzullo & Owicki 1983, cited in paper §V).
//
// Given clock readings as intervals [t_i - e_i, t_i + e_i], finds the
// interval consistent with the largest number of clocks. Clocks whose
// interval overlaps that intersection are the "true-chimers"; the rest
// are false-tickers and get ignored by the hardened untaint policy.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "util/types.h"

namespace triad::resilient {

struct Interval {
  SimTime lo = 0;
  SimTime hi = 0;  // must be >= lo
  friend bool operator==(const Interval&, const Interval&) = default;
};

struct MarzulloResult {
  Interval best{};          // intersection satisfied by `count` intervals
  std::size_t count = 0;    // how many source intervals overlap it
  [[nodiscard]] SimTime midpoint() const {
    return best.lo + (best.hi - best.lo) / 2;
  }
};

/// One event of marzullo()'s sweep: +1 at an interval's start, -1 at
/// its end.
struct SweepEvent {
  SimTime at = 0;
  int delta = 0;
};

/// Computes the best intersection. Empty input yields count == 0.
/// Throws std::invalid_argument on an interval with hi < lo. `events` is
/// sweep storage: overwritten, its capacity reused, so a warm caller
/// allocates nothing.
MarzulloResult marzullo(std::span<const Interval> intervals,
                        std::vector<SweepEvent>& events);

/// Indices of intervals overlapping `window` (the true-chimer set), into
/// `out`: overwritten, its capacity reused.
void overlapping(std::span<const Interval> intervals, const Interval& window,
                 std::vector<std::size_t>& out);

}  // namespace triad::resilient
