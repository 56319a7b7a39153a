#include "obs/forensic.h"

#include <cmath>
#include <map>
#include <optional>
#include <utility>

#include "obs/json.h"
#include "obs/report.h"

namespace triad::obs {
namespace {

struct SlopeFact {
  NodeId node = 0;
  double f_hz = 0.0;
  double ppm_vs_median = 0.0;
};

struct Analysis {
  DetectorReplay replay;
  std::vector<SlopeFact> slopes;  // ordered by node address
  std::optional<SlopeFact> suspect;  // the worst outlier past tolerance
  std::vector<JumpFact> jumps;   // significant peer-sourced forward steps
  SimTime first_jump_at = -1;
};

Analysis analyze(const SpanIndex& index, const ForensicOptions& options) {
  Analysis a;
  const std::vector<TraceEvent>& events = index.events();
  a.replay = replay_detectors(events, options.detector_config);

  // Latest calibrated slope per node, cluster median, worst outlier.
  std::map<NodeId, double> last_slope;
  for (const TraceEvent& event : events) {
    if (event.type == TraceEventType::kCalibration && event.x > 0.0) {
      last_slope[event.node] = event.x;
    }
  }
  std::vector<double> values;
  values.reserve(last_slope.size());
  for (const auto& [node, f] : last_slope) values.push_back(f);
  const double median = median_of(values);
  for (const auto& [node, f] : last_slope) {
    const SlopeFact fact{node, f, (f - median) / median * 1e6};
    a.slopes.push_back(fact);
    if (last_slope.size() >= kSlopeQuorum &&
        std::abs(fact.ppm_vs_median) > kSlopeTolerancePpm &&
        (!a.suspect || std::abs(fact.ppm_vs_median) >
                           std::abs(a.suspect->ppm_vs_median))) {
      a.suspect = fact;
    }
  }

  // Infection timeline: significant forward peer adoptions + their
  // cross-node cause chains.
  a.jumps = significant_jumps(index, a.replay.ta_address, options.min_jump_ms);
  for (const JumpFact& jump : a.jumps) {
    if (a.first_jump_at < 0 || jump.span->adoption_at < a.first_jump_at) {
      a.first_jump_at = jump.span->adoption_at;
    }
  }
  return a;
}

std::string render_text(const SpanIndex& index, const Analysis& a,
                        const ForensicOptions& options) {
  std::string out;
  const std::vector<TraceEvent>& events = index.events();
  const SimTime t_end = events.empty() ? 0 : events.back().at;
  const SimTime first_alarm_at = a.replay.first_alarm_at;
  append(&out, "trace: %zu events, %zu spans, %.3f s of virtual time\n",
         events.size(), index.spans().size(), to_seconds(t_end));
  if (a.replay.ta_address != 0) {
    append(&out, "time authority: address %u\n", a.replay.ta_address);
  }

  if (!a.slopes.empty()) {
    append(&out, "calibrated slopes (latest per node):\n");
    for (const SlopeFact& fact : a.slopes) {
      append(&out, "  node %u: %.3f MHz (%+.1f ppm vs median)%s\n",
             fact.node, fact.f_hz / 1e6, fact.ppm_vs_median,
             a.suspect && fact.node == a.suspect->node ? "  ** outlier"
                                                       : "");
    }
  }

  if (a.replay.alarms.empty()) {
    append(&out, "alarms: none\n");
  } else {
    append(&out, "alarms: %zu (first at %.3f s)\n", a.replay.alarms.size(),
           to_seconds(first_alarm_at));
    append_alarm_lines(&out, a.replay.alarms, "  ");
  }

  if (a.jumps.empty()) {
    append(&out, "infection timeline: no peer-sourced jumps >= %.1f ms\n",
           options.min_jump_ms);
  } else {
    append(&out, "infection timeline (jumps >= %.1f ms):\n",
           options.min_jump_ms);
    append_jump_lines(&out, a.jumps);
  }

  if (a.suspect) {
    append(&out, "suspect: node %u (slope %+.1f ppm off cluster median)\n",
           a.suspect->node, a.suspect->ppm_vs_median);
  } else {
    append(&out, "suspect: none\n");
  }

  if (first_alarm_at >= 0 && a.first_jump_at >= 0) {
    append(&out,
           "detection latency: %+.3f s (first alarm %.3f s, first "
           "significant jump %.3f s)\n",
           to_seconds(a.first_jump_at - first_alarm_at),
           to_seconds(first_alarm_at), to_seconds(a.first_jump_at));
  } else if (first_alarm_at >= 0) {
    append(&out, "detection latency: first alarm %.3f s, no jumps\n",
           to_seconds(first_alarm_at));
  }
  return out;
}

std::string render_json(const SpanIndex& index, const Analysis& a,
                        const ForensicOptions& options) {
  std::string out = "{";
  JsonFields top(&out);
  top.uinteger("events", index.events().size());
  top.uinteger("spans", index.spans().size());
  top.integer("ta", a.replay.ta_address);
  top.number("min_jump_ms", options.min_jump_ms);

  out += ",\"slopes\":[";
  for (std::size_t i = 0; i < a.slopes.size(); ++i) {
    const SlopeFact& fact = a.slopes[i];
    out += i == 0 ? "{" : ",{";
    JsonFields f(&out);
    f.integer("node", fact.node);
    f.number("f_hz", fact.f_hz);
    f.number("ppm_vs_median", fact.ppm_vs_median);
    out += "}";
  }
  out += "]";
  append_alarms_json(&out, a.replay.alarms);
  append_jumps_json(&out, a.jumps);

  if (a.suspect) {
    out += ",\"suspect\":{";
    JsonFields f(&out);
    f.integer("node", a.suspect->node);
    f.number("ppm_vs_median", a.suspect->ppm_vs_median);
    out += "}";
  }
  const SimTime first_alarm_at = a.replay.first_alarm_at;
  JsonFields tail(&out, /*first=*/false);
  if (first_alarm_at >= 0) {
    tail.number("first_alarm_s", to_seconds(first_alarm_at));
  }
  if (a.first_jump_at >= 0) {
    tail.number("first_jump_s", to_seconds(a.first_jump_at));
  }
  if (first_alarm_at >= 0 && a.first_jump_at >= 0) {
    tail.number("detection_latency_s",
                to_seconds(a.first_jump_at - first_alarm_at));
  }
  out += "}\n";
  return out;
}

}  // namespace

std::string forensic_report(std::vector<TraceEvent> events,
                            const ForensicOptions& options) {
  const SpanIndex index(std::move(events));
  const Analysis a = analyze(index, options);
  return options.json ? render_json(index, a, options)
                      : render_text(index, a, options);
}

}  // namespace triad::obs
