// The shared core of the two forensic reports: forensic_report
// (forensic.cpp, `triad_trace`, one trace) and cluster_report
// (cluster.cpp, `triad_mon`, one stream per node). Both replay events
// through the standard detector bank and collect significant
// peer-sourced clock jumps off a SpanIndex; both render alarms and jumps
// with the helpers below, so the lines and objects the two reports share
// are the same bytes. (Their slope medians come from median_of in
// detect.h.) Internal to src/obs.
#pragma once

#include <string>
#include <vector>

#include "obs/detect.h"
#include "obs/span.h"

namespace triad::obs {

/// The detector bank's verdict on one event stream.
struct DetectorReplay {
  NodeId ta_address = 0;  // the TA address the detectors ran with
  std::vector<Alarm> alarms;
  SimTime first_alarm_at = -1;
};

/// The endpoint serving kTaServe events in `events`, or 0 if none does.
[[nodiscard]] NodeId infer_ta(const std::vector<TraceEvent>& events);

/// Replays `events` through the detectors the online path runs; they are
/// pure trace functions, so the verdicts are identical by construction.
/// config.ta_address 0 = infer_ta(events).
[[nodiscard]] DetectorReplay replay_detectors(
    const std::vector<TraceEvent>& events, DetectorConfig config);

/// Most cause spans a jump's chain carries past the jump's own span. A
/// crafted trace of k linked jumps would otherwise print k² chain links;
/// recorded chains are far shorter.
inline constexpr std::size_t kMaxChainLinks = 16;

/// A significant forward clock step adopted from a peer.
struct JumpFact {
  const Span* span = nullptr;
  double step_ms = 0.0;
  std::vector<const Span*> chain;  // starts at `span`, capped
  std::size_t chain_more = 0;      // cause spans past the cap
};

/// Every span of `index` that adopted a peer's clock (not the TA's) with
/// a forward step of at least `min_jump_ms`, in span order, with its
/// cross-node cause chain: at most kMaxChainLinks causes, and the count
/// of the rest.
[[nodiscard]] std::vector<JumpFact> significant_jumps(const SpanIndex& index,
                                                      NodeId ta_address,
                                                      double min_jump_ms);

/// One text line per alarm, each after `indent`.
void append_alarm_lines(std::string* out, const std::vector<Alarm>& alarms,
                        const char* indent);

/// One indented text line per jump, ending in its cause chain and, past
/// the cap, `<- … (N more)`.
void append_jump_lines(std::string* out, const std::vector<JumpFact>& jumps);

/// `,"alarms":[...]`, one object per alarm.
void append_alarms_json(std::string* out, const std::vector<Alarm>& alarms);

/// `,"jumps":[...]`, one object per jump, each with its "chain" and,
/// past the cap, "chain_more".
void append_jumps_json(std::string* out, const std::vector<JumpFact>& jumps);

}  // namespace triad::obs
