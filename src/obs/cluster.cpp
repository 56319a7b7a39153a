#include "obs/cluster.h"

#include <algorithm>
#include <utility>

#include "obs/json.h"
#include "obs/report.h"

namespace triad::obs {
namespace {

struct NodeFacts {
  NodeId node = 0;
  std::size_t events = 0;
  bool has_slope = false;
  double f_hz = 0.0;
  double ppm_vs_median = 0.0;
  DetectorReplay replay;
};

struct ClusterFacts {
  NodeId ta_address = 0;  // merged-trace inference (cluster timeline)
  std::vector<NodeFacts> nodes;  // merge order (node-primary)
  double slope_median_hz = 0.0;
  std::size_t slope_count = 0;
  double width_ppm = 0.0;  // (max-min)/median, valid when slope_count >= 2
  std::size_t total_alarms = 0;
  std::vector<JumpFact> jumps;  // cross-node adoptions off the merged index
};

// The per-node half of the analysis, run before the streams move into
// the merged index. `streams` must already be in merge order
// (node_stream_less) so the per-node table matches the merged timeline's
// node order.
ClusterFacts analyze_nodes(const std::vector<NodeStream>& streams,
                           const ClusterReportOptions& options) {
  ClusterFacts c;
  for (const NodeStream& stream : streams) {
    NodeFacts facts;
    facts.node = stream.node;
    facts.events = stream.events.size();

    // The same replay triad_trace runs on this node's file alone: same
    // detectors, same per-stream TA inference — per-node verdicts here
    // and there are identical by construction.
    facts.replay =
        replay_detectors(stream.events, options.forensic.detector_config);
    c.total_alarms += facts.replay.alarms.size();

    for (const TraceEvent& event : stream.events) {
      if (event.type == TraceEventType::kCalibration &&
          event.node == stream.node && event.x > 0.0) {
        facts.has_slope = true;
        facts.f_hz = event.x;
      }
    }
    c.nodes.push_back(std::move(facts));
  }

  std::vector<double> slopes;
  for (const NodeFacts& facts : c.nodes) {
    if (facts.has_slope) slopes.push_back(facts.f_hz);
  }
  c.slope_count = slopes.size();
  c.slope_median_hz = median_of(slopes);
  for (NodeFacts& facts : c.nodes) {
    if (facts.has_slope) {
      facts.ppm_vs_median =
          (facts.f_hz - c.slope_median_hz) / c.slope_median_hz * 1e6;
    }
  }
  if (slopes.size() >= 2) {
    const auto [lo, hi] = std::minmax_element(slopes.begin(), slopes.end());
    c.width_ppm = (*hi - *lo) / c.slope_median_hz * 1e6;
  }
  return c;
}

// The cluster half, off the merged span index: a kTaServe in the TA's
// stream and the requester's events merge into one span, so chains cross
// stream boundaries here even though no single node's file contains the
// whole story.
void analyze_cluster(const SpanIndex& merged,
                     const ClusterReportOptions& options, ClusterFacts* c) {
  c->ta_address = options.forensic.detector_config.ta_address != 0
                      ? options.forensic.detector_config.ta_address
                      : infer_ta(merged.events());
  c->jumps = significant_jumps(merged, c->ta_address,
                               options.forensic.min_jump_ms);
}

std::string render_text(const SpanIndex& merged, const ClusterFacts& c,
                        const ClusterReportOptions& options) {
  std::string out;
  append(&out, "cluster: %zu nodes, %zu events, %zu spans\n",
         c.nodes.size(), merged.events().size(), merged.spans().size());
  if (c.ta_address != 0) {
    append(&out, "time authority: address %u\n", c.ta_address);
  }

  append(&out, "per-node (each stream replayed through the standard "
               "detectors):\n");
  for (const NodeFacts& facts : c.nodes) {
    append(&out, "  node %u%s: %zu events, ", facts.node,
           facts.node == c.ta_address ? " [ta]" : "", facts.events);
    if (facts.has_slope) {
      append(&out, "slope %.3f MHz (%+.1f ppm vs cluster median), ",
             facts.f_hz / 1e6, facts.ppm_vs_median);
    } else {
      append(&out, "no calibration, ");
    }
    append(&out, "alarms %zu", facts.replay.alarms.size());
    if (facts.replay.first_alarm_at >= 0) {
      append(&out, " (first at %.3f s)",
             to_seconds(facts.replay.first_alarm_at));
    }
    append(&out, "\n");
    // Timestamps are each node's own epoch (ns since daemon start) —
    // comparable within a line, not across nodes.
    append_alarm_lines(&out, facts.replay.alarms, "    ");
  }

  if (c.slope_count >= 2) {
    append(&out,
           "cluster disagreement: width %.1f ppm across %zu slopes "
           "(median %.3f MHz)\n",
           c.width_ppm, c.slope_count, c.slope_median_hz / 1e6);
  } else {
    append(&out, "cluster disagreement: fewer than 2 calibrated slopes\n");
  }

  if (c.jumps.empty()) {
    append(&out, "infection timeline: no cross-node jumps >= %.1f ms\n",
           options.forensic.min_jump_ms);
  } else {
    append(&out, "infection timeline (cross-node jumps >= %.1f ms):\n",
           options.forensic.min_jump_ms);
    append_jump_lines(&out, c.jumps);
  }

  append(&out, "alarms total: %zu\n", c.total_alarms);
  return out;
}

std::string render_json(const SpanIndex& merged, const ClusterFacts& c,
                        const ClusterReportOptions& options) {
  std::string out = "{";
  JsonFields top(&out);
  top.uinteger("nodes", c.nodes.size());
  top.uinteger("events", merged.events().size());
  top.uinteger("spans", merged.spans().size());
  top.integer("ta", c.ta_address);
  top.number("min_jump_ms", options.forensic.min_jump_ms);

  out += ",\"per_node\":[";
  for (std::size_t i = 0; i < c.nodes.size(); ++i) {
    const NodeFacts& facts = c.nodes[i];
    out += i == 0 ? "{" : ",{";
    JsonFields f(&out);
    f.integer("node", facts.node);
    f.uinteger("events", facts.events);
    if (facts.has_slope) {
      f.number("f_hz", facts.f_hz);
      f.number("ppm_vs_median", facts.ppm_vs_median);
    }
    if (facts.replay.first_alarm_at >= 0) {
      f.number("first_alarm_s", to_seconds(facts.replay.first_alarm_at));
    }
    append_alarms_json(&out, facts.replay.alarms);
    out += "}";
  }
  out += "]";

  JsonFields tail(&out, /*first=*/false);
  if (c.slope_count >= 2) {
    tail.number("disagreement_width_ppm", c.width_ppm);
    tail.number("slope_median_hz", c.slope_median_hz);
  }
  append_jumps_json(&out, c.jumps);
  tail.uinteger("alarms_total", c.total_alarms);
  out += "}\n";
  return out;
}

}  // namespace

std::string cluster_report(std::vector<NodeStream> streams,
                           const ClusterReportOptions& options) {
  std::sort(streams.begin(), streams.end(), node_stream_less);
  ClusterFacts c = analyze_nodes(streams, options);
  const SpanIndex merged(std::move(streams));
  analyze_cluster(merged, options, &c);
  return options.json ? render_json(merged, c, options)
                      : render_text(merged, c, options);
}

}  // namespace triad::obs
