#include "obs/span.h"

#include <algorithm>
#include <tuple>
#include <unordered_map>
#include <unordered_set>

namespace triad::obs {

const char* to_string(SpanKind kind) {
  switch (kind) {
    case SpanKind::kCalibration: return "calibration";
    case SpanKind::kUntaint: return "untaint";
  }
  return "?";
}

bool trace_event_less(const TraceEvent& lhs, const TraceEvent& rhs) {
  return std::tie(lhs.at, lhs.type, lhs.node, lhs.peer, lhs.span, lhs.a,
                  lhs.b, lhs.x, lhs.y) <
         std::tie(rhs.at, rhs.type, rhs.node, rhs.peer, rhs.span, rhs.a,
                  rhs.b, rhs.x, rhs.y);
}

// Streams sort by origin node; two streams claiming the same node (a
// re-shipped dump, a misconfigured id) fall back to content comparison
// so the merge stays a total order either way.
bool node_stream_less(const NodeStream& lhs, const NodeStream& rhs) {
  if (lhs.node != rhs.node) return lhs.node < rhs.node;
  const std::size_t n = std::min(lhs.events.size(), rhs.events.size());
  for (std::size_t i = 0; i < n; ++i) {
    if (trace_event_less(lhs.events[i], rhs.events[i])) return true;
    if (trace_event_less(rhs.events[i], lhs.events[i])) return false;
  }
  return lhs.events.size() < rhs.events.size();
}

std::vector<TraceEvent> merge_node_streams(std::vector<NodeStream> streams) {
  std::sort(streams.begin(), streams.end(), node_stream_less);
  std::size_t total = 0;
  for (const NodeStream& stream : streams) total += stream.events.size();
  std::vector<TraceEvent> merged;
  merged.reserve(total);
  for (const NodeStream& stream : streams) {
    merged.insert(merged.end(), stream.events.begin(), stream.events.end());
  }
  return merged;
}

SpanIndex::SpanIndex(std::vector<TraceEvent> events)
    : events_(std::move(events)) {
  build();
}

SpanIndex::SpanIndex(std::vector<NodeStream> streams)
    : events_(merge_node_streams(std::move(streams))) {
  build();
}

SpanIndex::SpanIndex(const RingTraceSink& sink) : events_(sink.events()) {
  build();
}

void SpanIndex::build() {
  // The span in which each node last completed a frequency calibration,
  // as of the current trace position. An adoption *from* that node is
  // causally downstream of it: the source's clock (rate and offset) is
  // whatever that calibration plus later adoptions made it.
  std::unordered_map<NodeId, SpanId> last_calibration;

  for (std::size_t i = 0; i < events_.size(); ++i) {
    const TraceEvent& event = events_[i];
    if (event.span == 0) continue;
    auto [it, fresh] = positions_.try_emplace(event.span, spans_.size());
    if (fresh) {
      Span span;
      span.id = event.span;
      span.node = span_node(event.span);
      span.start = event.at;
      spans_.push_back(std::move(span));
    }
    Span& span = spans_[it->second];
    span.end = event.at;
    span.events.push_back(i);

    switch (event.type) {
      case TraceEventType::kCalibration:
        span.kind = SpanKind::kCalibration;
        span.has_calibration = true;
        span.calib_slope_hz = event.x;
        span.calib_r2 = event.y;
        span.calib_at = event.at;
        last_calibration[event.node] = event.span;
        break;
      case TraceEventType::kAdoption: {
        span.has_adoption = true;
        span.adoption_source = event.peer;
        span.adoption_at = event.at;
        span.adoption_step_ns = event.b - event.a;
        const auto calib = last_calibration.find(event.peer);
        // Peer-sourced adoptions point at the source's calibration span
        // (the TA never calibrates, so TA adoptions keep cause == 0).
        span.cause = calib != last_calibration.end() ? calib->second : 0;
        break;
      }
      default:
        break;
    }
  }
}

const Span* SpanIndex::find(SpanId id) const {
  const auto it = positions_.find(id);
  return it != positions_.end() ? &spans_[it->second] : nullptr;
}

std::vector<const Span*> SpanIndex::chain(SpanId id) const {
  std::vector<const Span*> out;
  // Positions already on the chain. A malformed trace's cause links may
  // loop; the walk stops before the first repeat, and a set (not a scan
  // of `out`) keeps a long chain linear.
  std::unordered_set<std::size_t> visited;
  for (SpanId next = id; next != 0;) {
    const auto it = positions_.find(next);
    if (it == positions_.end() || !visited.insert(it->second).second) break;
    const Span& span = spans_[it->second];
    out.push_back(&span);
    next = span.cause;
  }
  return out;
}

}  // namespace triad::obs
