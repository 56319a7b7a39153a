#include "resilient/marzullo.h"

#include <algorithm>
#include <stdexcept>

namespace triad::resilient {

MarzulloResult marzullo(std::span<const Interval> intervals,
                        std::vector<SweepEvent>& events) {
  MarzulloResult result;
  events.clear();
  if (intervals.empty()) return result;

  // Sweep events: +1 at interval start, -1 past interval end. Starts
  // sort before ends at equal offsets so touching intervals count as
  // overlapping (closed intervals).
  events.reserve(intervals.size() * 2);
  for (const Interval& iv : intervals) {
    if (iv.hi < iv.lo) {
      throw std::invalid_argument("marzullo: interval with hi < lo");
    }
    events.push_back({iv.lo, +1});
    events.push_back({iv.hi, -1});
  }
  std::sort(events.begin(), events.end(),
            [](const SweepEvent& a, const SweepEvent& b) {
              if (a.at != b.at) return a.at < b.at;
              return a.delta > b.delta;  // starts before ends
            });

  std::size_t current = 0;
  SimTime best_lo = 0;
  for (std::size_t i = 0; i < events.size(); ++i) {
    if (events[i].delta > 0) {
      ++current;
      if (current > result.count) {
        result.count = current;
        best_lo = events[i].at;
      }
    } else {
      --current;
    }
  }

  // Second pass: find the end of the maximal overlap that starts at
  // best_lo (the first end event at or after best_lo while the count is
  // maximal).
  current = 0;
  bool in_best = false;
  for (const SweepEvent& ev : events) {
    if (ev.delta > 0) {
      ++current;
      if (current == result.count && ev.at == best_lo) in_best = true;
    } else {
      if (in_best) {
        result.best = {best_lo, ev.at};
        return result;
      }
      --current;
    }
  }
  // All intervals are points at the same place (count events degenerate).
  result.best = {best_lo, best_lo};
  return result;
}

void overlapping(std::span<const Interval> intervals, const Interval& window,
                 std::vector<std::size_t>& out) {
  out.clear();
  for (std::size_t i = 0; i < intervals.size(); ++i) {
    if (intervals[i].hi >= window.lo && intervals[i].lo <= window.hi) {
      out.push_back(i);
    }
  }
}

}  // namespace triad::resilient
