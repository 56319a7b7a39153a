#include "obs/report.h"

#include "obs/json.h"

namespace triad::obs {
namespace {

std::string span_str(SpanId id) {
  std::string s;
  append(&s, "%u:%u", span_node(id), span_seq(id));
  return s;
}

/// index.chain(start.id).size(), memoised in `memo` (one slot per span,
/// 0 = not measured) so k linked spans cost O(k) finds in total.
std::size_t chain_length(const SpanIndex& index, const Span& start,
                         std::vector<std::size_t>* memo) {
  const Span* const first = index.spans().data();
  const std::size_t on_path = index.spans().size() + 1;  // + path index
  std::vector<std::size_t> path;  // walked, not yet measured
  std::size_t length = 0;         // chain length after path's last span
  for (const Span* s = &start; s != nullptr; s = index.find(s->cause)) {
    std::size_t& slot = (*memo)[s - first];
    if (slot >= on_path) {  // a cause loop: chain() walks it whole
      const std::size_t loop_start = slot - on_path;
      length = path.size() - loop_start;
      for (std::size_t i = loop_start; i < path.size(); ++i) {
        (*memo)[path[i]] = length;
      }
      path.resize(loop_start);
      break;
    }
    if (slot != 0) {
      length = slot;
      break;
    }
    slot = on_path + path.size();
    path.push_back(s - first);
  }
  for (auto it = path.rbegin(); it != path.rend(); ++it) {
    (*memo)[*it] = ++length;
  }
  return (*memo)[&start - first];
}

}  // namespace

NodeId infer_ta(const std::vector<TraceEvent>& events) {
  for (const TraceEvent& event : events) {
    if (event.type == TraceEventType::kTaServe) return event.node;
  }
  return 0;
}

DetectorReplay replay_detectors(const std::vector<TraceEvent>& events,
                                DetectorConfig config) {
  if (config.ta_address == 0) config.ta_address = infer_ta(events);
  DetectorBank bank(config, nullptr, nullptr);
  for (const TraceEvent& event : events) bank.emit(event);
  return DetectorReplay{config.ta_address, bank.alarms(),
                        bank.first_alarm_at()};
}

std::vector<JumpFact> significant_jumps(const SpanIndex& index,
                                        NodeId ta_address,
                                        double min_jump_ms) {
  std::vector<JumpFact> jumps;
  std::vector<std::size_t> chain_lengths(index.spans().size(), 0);
  for (const Span& span : index.spans()) {
    if (!span.has_adoption || span.adoption_source == 0) continue;
    if (span.adoption_source == ta_address) continue;
    const double step_ms = static_cast<double>(span.adoption_step_ns) / 1e6;
    if (step_ms < min_jump_ms) continue;
    JumpFact jump{&span, step_ms, index.chain(span.id, 1 + kMaxChainLinks)};
    jump.chain_more =
        chain_length(index, span, &chain_lengths) - jump.chain.size();
    jumps.push_back(std::move(jump));
  }
  return jumps;
}

void append_alarm_lines(std::string* out, const std::vector<Alarm>& alarms,
                        const char* indent) {
  for (const Alarm& alarm : alarms) {
    append(out, "%st=%.3fs %s ", indent, to_seconds(alarm.at),
           to_string(alarm.detector));
    if (alarm.node != 0) {
      append(out, "node %u", alarm.node);
    } else {
      append(out, "cluster-wide");
    }
    if (alarm.source != 0) append(out, " (source node %u)", alarm.source);
    append(out, " value=%.1f threshold=%.1f", alarm.value, alarm.threshold);
    if (alarm.span != 0) append(out, " span=%s", span_str(alarm.span).c_str());
    append(out, "\n");
  }
}

void append_jump_lines(std::string* out, const std::vector<JumpFact>& jumps) {
  for (const JumpFact& jump : jumps) {
    append(out, "  t=%.3fs node %u jumped %+.1f ms <- adoption from node %u",
           to_seconds(jump.span->adoption_at), jump.span->node, jump.step_ms,
           jump.span->adoption_source);
    for (std::size_t i = 1; i < jump.chain.size(); ++i) {
      const Span* s = jump.chain[i];
      if (s->has_calibration) {
        append(out, " <- node %u calibrated slope %.3f MHz (span %s)",
               s->node, s->calib_slope_hz / 1e6, span_str(s->id).c_str());
      } else {
        append(out, " <- span %s on node %u", span_str(s->id).c_str(),
               s->node);
      }
    }
    if (jump.chain_more > 0) {
      append(out, " <- … (%zu more)", jump.chain_more);
    }
    append(out, "\n");
  }
}

void append_alarms_json(std::string* out, const std::vector<Alarm>& alarms) {
  *out += ",\"alarms\":[";
  for (std::size_t i = 0; i < alarms.size(); ++i) {
    const Alarm& alarm = alarms[i];
    *out += i == 0 ? "{" : ",{";
    JsonFields f(out);
    f.number("t", to_seconds(alarm.at));
    f.str("detector", to_string(alarm.detector));
    f.integer("node", alarm.node);
    if (alarm.source != 0) f.integer("source", alarm.source);
    if (alarm.span != 0) f.integer("span", alarm.span);
    f.number("value", alarm.value);
    f.number("threshold", alarm.threshold);
    *out += "}";
  }
  *out += "]";
}

void append_jumps_json(std::string* out, const std::vector<JumpFact>& jumps) {
  *out += ",\"jumps\":[";
  for (std::size_t i = 0; i < jumps.size(); ++i) {
    const JumpFact& jump = jumps[i];
    *out += i == 0 ? "{" : ",{";
    JsonFields f(out);
    f.number("t", to_seconds(jump.span->adoption_at));
    f.integer("node", jump.span->node);
    f.number("step_ms", jump.step_ms);
    f.integer("source", jump.span->adoption_source);
    f.integer("span", jump.span->id);
    *out += ",\"chain\":[";
    for (std::size_t c = 1; c < jump.chain.size(); ++c) {
      const Span* s = jump.chain[c];
      *out += c == 1 ? "{" : ",{";
      JsonFields cf(out);
      cf.integer("span", s->id);
      cf.integer("node", s->node);
      cf.str("kind", to_string(s->kind));
      if (s->has_calibration) cf.number("f_hz", s->calib_slope_hz);
      *out += "}";
    }
    *out += "]";
    if (jump.chain_more > 0) f.uinteger("chain_more", jump.chain_more);
    *out += "}";
  }
  *out += "]";
}

}  // namespace triad::obs
