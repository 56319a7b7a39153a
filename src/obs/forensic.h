// Offline forensics over a recorded protocol trace.
//
// Takes the event stream a Scenario recorded (or a JSONL dump parsed
// back with obs::parse_jsonl), replays it through the standard detector
// bank, rebuilds causal spans, and renders an attack-propagation report:
// which node calibrated a poisoned frequency, who adopted whose clock,
// how long detection lagged the first infection jump. The `triad_trace`
// CLI (examples/triad_trace.cpp) is a thin wrapper around this.
//
// Output is byte-deterministic for a given event stream: fixed number
// formatting, no timestamps or environment lookups.
#pragma once

#include <string>
#include <vector>

#include "obs/detect.h"
#include "obs/trace.h"

namespace triad::obs {

struct ForensicOptions {
  /// Render a JSON object instead of the human-readable text report.
  bool json = false;
  /// Forward adoption steps below this are drift repair, not infection;
  /// they stay out of the timeline (matches kJumpFloorMs).
  double min_jump_ms = 5.0;
  /// Detector settings for the replay. ta_address 0 = infer it from
  /// the trace (the endpoint serving kTaServe events).
  DetectorConfig detector_config;
};

/// Replays `events` (trace order) and renders the forensic report.
[[nodiscard]] std::string forensic_report(std::vector<TraceEvent> events,
                                          const ForensicOptions& options = {});

}  // namespace triad::obs
