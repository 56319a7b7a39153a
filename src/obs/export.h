// Exporters for the observability layer:
//   * Prometheus text exposition format for the metrics registry;
//   * JSON Lines (one object per line) for protocol traces;
//   * CSV snapshots of the registry.
//
// All exports are deterministic for identical inputs (registration-order
// iteration, fixed float formatting), so seeded runs produce
// byte-identical files — the property the determinism tests pin down.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <optional>
#include <string_view>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace triad::obs {

/// Prometheus text format (# TYPE/# HELP comments + one sample per line;
/// histograms expand to _bucket/_sum/_count).
void write_prometheus(const Registry& registry, std::ostream& out);

/// Registry snapshot as "metric,kind,labels,value,count" rows.
void write_csv(const Registry& registry, std::ostream& out);

/// One event as a single-line JSON object (no trailing newline). The
/// generic a/b/x/y slots are rendered under per-type field names, e.g.
///   {"t":1500000000,"type":"adoption","node":3,"source":4,
///    "before":1499998000,"adopted":1500002000,"step_ns":4000}
void write_json_line(const TraceEvent& event, std::ostream& out);

/// The newest `last` retained events of the ring (all of them by
/// default), oldest first, one line each.
void write_jsonl(const RingTraceSink& sink, std::ostream& out,
                 std::size_t last = SIZE_MAX);

/// Inverse of write_json_line: parses one JSONL line back into an event.
/// It accepts exactly the lines write_json_line prints, whitespace
/// between tokens aside, and refuses everything else (nullopt). So for
/// every accepted line L, write(parse(L)) is L without that whitespace,
/// which is what makes offline analysis of a dumped trace deterministic.
std::optional<TraceEvent> parse_json_line(std::string_view line);

/// Parses a whole JSONL document (one event per line; blank lines are
/// skipped). Unparsable lines are counted into *rejected (when non-null)
/// and dropped — a trace dump may legitimately carry trailing garbage
/// from an interrupted run.
std::vector<TraceEvent> parse_jsonl(std::string_view text,
                                    std::size_t* rejected = nullptr);

}  // namespace triad::obs
