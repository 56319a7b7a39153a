// Causal spans over the protocol trace.
//
// A SpanId groups every trace event of one causal episode on one node:
// a taint episode (kAex → kPeerQuery → kPeerResponse* → kPeerOutcome →
// kAdoption | kTaFallback…) or a calibration (kTaRequest/kTaResponse
// round-trips → kCalibration → kAdoption). Nodes assign ids locally —
// the id composes the node address with a per-node sequence number, so
// ids are cluster-unique without coordination — and the id travels
// inside sealed requests (triad/messages.h) so the serving endpoint's
// events (kTaServe) carry the requester's span.
//
// SpanIndex rebuilds the per-episode spans from any recorded event
// stream (a RingTraceSink or a parsed JSONL dump) and links them
// causally *across* nodes: a span that adopted a peer's clock points at
// the span in which that peer last calibrated — the edge that turns an
// F− trace into a propagation chain (victim calibrates a poisoned
// frequency → honest node adopts the victim's clock → …).
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "obs/trace.h"
#include "util/types.h"

namespace triad::obs {

/// Number of low bits holding the opening node's address. 10 bits =
/// 1023 addressable endpoints, leaving 22 bits (~4M episodes per node)
/// for the sequence — weeks of virtual time at protocol rates.
inline constexpr std::uint32_t kSpanNodeBits = 10;
inline constexpr std::uint32_t kSpanNodeMask = (1u << kSpanNodeBits) - 1;

/// Composes a span id. `seq` must be >= 1 (0 would collide with "no
/// span" for node 0).
[[nodiscard]] constexpr SpanId make_span_id(NodeId node, std::uint32_t seq) {
  return (seq << kSpanNodeBits) | (node & kSpanNodeMask);
}

[[nodiscard]] constexpr NodeId span_node(SpanId id) {
  return id & kSpanNodeMask;
}

[[nodiscard]] constexpr std::uint32_t span_seq(SpanId id) {
  return id >> kSpanNodeBits;
}

/// What kind of episode a reconstructed span covers.
enum class SpanKind : std::uint8_t {
  kCalibration,  // contains a completed frequency calibration
  kUntaint,      // AEX recovery / proactive peer round, no calibration
};

[[nodiscard]] const char* to_string(SpanKind kind);

/// One reconstructed causal episode.
struct Span {
  SpanId id = 0;
  NodeId node = 0;  // opening node (== span_node(id))
  SpanKind kind = SpanKind::kUntaint;
  SimTime start = 0;  // first event's timestamp
  SimTime end = 0;    // last event's timestamp
  /// Indices into SpanIndex::events(), in trace order.
  std::vector<std::size_t> events;

  /// Cross-node causal parent: the span in which the adoption source
  /// last calibrated its frequency (0 = none — TA-sourced adoptions and
  /// spans without an adoption have no parent).
  SpanId cause = 0;

  // Summary facts pulled out of the events for cheap downstream use.
  bool has_adoption = false;
  NodeId adoption_source = 0;       // peer or TA address
  SimTime adoption_at = 0;
  std::int64_t adoption_step_ns = 0;
  bool has_calibration = false;
  double calib_slope_hz = 0.0;  // last kCalibration in the span
  double calib_r2 = 0.0;
  SimTime calib_at = 0;
};

/// One node's recorded trace stream, as shipped by its telemetry
/// endpoint (/trace) or dumped at exit (--trace). `node` is the stream's
/// origin — the daemon that recorded it — not necessarily the subject of
/// every event in it (a TA stream carries kTaServe events whose span
/// belongs to a remote requester).
struct NodeStream {
  NodeId node = 0;
  std::vector<TraceEvent> events;
};

/// Total order on events used by the multi-stream merge tie-break:
/// lexicographic on every field (at, type, node, peer, span, a, b, x, y).
[[nodiscard]] bool trace_event_less(const TraceEvent& lhs,
                                    const TraceEvent& rhs);

/// The merge's stream order: origin node first, content as tie-break.
[[nodiscard]] bool node_stream_less(const NodeStream& lhs,
                                    const NodeStream& rhs);

/// Merges per-node trace streams into one deterministic cluster
/// timeline: streams are ordered by (origin node, then event content) and
/// concatenated, each stream keeping its internal order. Node-primary
/// ordering is deliberate — RealEnv timestamps are per-process epochs
/// (ns since daemon start), so cross-node `at` comparison is
/// meaningless; what must survive the merge is each node's event order,
/// which is what the detectors and SpanIndex consume. The result is
/// byte-identical regardless of the order streams are passed in
/// (merge(a,b) == merge(b,a)), the contract DESIGN.md §2.6 pins down.
[[nodiscard]] std::vector<TraceEvent> merge_node_streams(
    std::vector<NodeStream> streams);

/// Rebuilds spans from a recorded event stream. The index owns a copy of
/// the events; spans appear in order of their first event.
class SpanIndex {
 public:
  explicit SpanIndex(std::vector<TraceEvent> events);
  explicit SpanIndex(const RingTraceSink& sink);
  /// Index over a merged cluster timeline (see merge_node_streams). A
  /// span opened on one node and served on another (kTaServe carrying
  /// the requester's id) lands in one Span spanning both streams.
  explicit SpanIndex(std::vector<NodeStream> streams);

  [[nodiscard]] const std::vector<TraceEvent>& events() const {
    return events_;
  }
  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

  /// Looks a span up by id; nullptr when the id never appeared. One
  /// hash lookup.
  [[nodiscard]] const Span* find(SpanId id) const;

  /// Walks the cross-node cause chain starting at `id`: the span itself,
  /// then its cause, then that span's cause… Cycle-safe (each span is
  /// visited at most once); empty when `id` is unknown. One find per
  /// link; the walk stops after `max_spans` spans.
  [[nodiscard]] std::vector<const Span*> chain(
      SpanId id, std::size_t max_spans = SIZE_MAX) const;

 private:
  void build();

  std::vector<TraceEvent> events_;
  std::vector<Span> spans_;
  /// Span id -> position in spans_. Positions, not pointers, so copies
  /// and moves of the index stay valid; never iterated.
  std::unordered_map<SpanId, std::size_t> positions_;
};

}  // namespace triad::obs
