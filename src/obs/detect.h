// Online attack detectors over the protocol trace.
//
// The F+/F− calibration attacks (attacks/delay_attack.h) leave three
// statistical fingerprints the paper's analysis reads off manually:
//   * a calibrated TSC frequency far from the cluster's consensus
//     (F− ≈ 0.9·F, F+ ≈ 1.1·F — §IV-B);
//   * cluster-wide disagreement between calibrated frequencies where
//     honest runs agree to ~100 ppm (the NTP "false chimer" signal,
//     Marzullo-style);
//   * honest nodes taking outsized forward jumps when they adopt the
//     fast clock (Fig. 6 infection steps, orders of magnitude above the
//     sub-ms drift-repair jumps of a healthy cluster).
// Each fingerprint gets a Detector. Detectors are pure trace consumers:
// fed from a TeeTraceSink next to the recording ring, they see exactly
// what a post-hoc reader sees, so the same objects run online inside a
// Scenario and offline inside the `triad_trace` forensic CLI — verdicts
// are identical by construction.
//
// DetectorBank owns a detector set, surfaces alarm counts/first-alarm
// time in the metrics Registry (triad_detector_* families), and appends
// kDetectorAlarm events to the trace so alarms land in causal context.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <span>
#include <vector>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/types.h"

namespace triad::obs {

enum class DetectorKind : std::uint8_t {
  kSlope = 0,         // calibration slope vs cluster median (or nominal)
  kDisagreement = 1,  // width of the cluster's slope spread
  kJump = 2,          // per-adoption forward jump vs recent median
};

[[nodiscard]] const char* to_string(DetectorKind kind);

// Detector thresholds. The live detectors and the forensic reports
// (obs/forensic.cpp) share these, so an offline verdict matches the
// online one.

/// Slope detector: alarm when a node's calibrated frequency deviates
/// more than this (ppm) from the cluster median — honest calibrations
/// land within a few hundred ppm of each other; the paper's F+/F−
/// poison by ±10% (±100000 ppm).
inline constexpr double kSlopeTolerancePpm = 10000.0;
/// Cluster-relative checks need at least this many calibrated nodes
/// (a median of fewer is dominated by the outlier itself).
inline constexpr std::size_t kSlopeQuorum = 3;

/// Disagreement detector: alarm when (max−min)/median of the latest
/// per-node slopes exceeds this width (ppm). Edge-triggered: one alarm
/// per excursion above the threshold, re-armed when the spread heals.
inline constexpr double kDisagreementWidthPpm = 10000.0;

/// Jump detector: a peer-sourced forward step is suspicious when it
/// exceeds max(kJumpFloorMs, kJumpMedianFactor × median of recent
/// steps). The floor separates infection jumps (tens of ms and up,
/// growing +~100 ms/s under the paper F−) from the sub-ms
/// drift-repair steps of a healthy cluster.
inline constexpr double kJumpFloorMs = 5.0;
inline constexpr double kJumpMedianFactor = 8.0;
/// How many recent steps feed the running median.
inline constexpr std::size_t kJumpWindow = 64;

/// What a detector needs to know about the deployment it watches.
struct DetectorConfig {
  /// TA address: TA-sourced adoptions are ground truth and never count
  /// as suspicious jumps. 0 disables the exclusion.
  NodeId ta_address = 0;
  /// Optional prior for the true TSC frequency (Hz). When set, slopes
  /// are also checked against it (works from the first calibration, no
  /// quorum needed); 0 = cluster-relative only.
  double nominal_frequency_hz = 0.0;
};

/// One detector verdict.
struct Alarm {
  SimTime at = 0;
  DetectorKind detector = DetectorKind::kSlope;
  NodeId node = 0;    // implicated endpoint (jump: the node that jumped)
  NodeId source = 0;  // secondary endpoint (jump: adoption source)
  SpanId span = 0;    // causal span of the triggering event
  double value = 0.0;      // measured statistic (ppm or ms)
  double threshold = 0.0;  // limit it crossed
};

/// A pluggable trace analyzer. on_event appends any alarms the event
/// triggers; implementations must be deterministic functions of the
/// event sequence (the online/offline equivalence rests on it).
class Detector {
 public:
  virtual ~Detector() = default;
  [[nodiscard]] virtual DetectorKind kind() const = 0;
  virtual void on_event(const TraceEvent& event,
                        std::vector<Alarm>* out) = 0;
};

[[nodiscard]] std::unique_ptr<Detector> make_slope_detector(
    const DetectorConfig& config);
[[nodiscard]] std::unique_ptr<Detector> make_disagreement_detector();
[[nodiscard]] std::unique_ptr<Detector> make_jump_detector(
    const DetectorConfig& config);

/// Median of a value set, 0 when empty; even counts average the two
/// middles. The slope detectors measure against it, and the forensic
/// reports' "ppm vs median" uses the same one. Reorders `values` (a
/// partial sort, linear on average), so callers can pass a reused buffer.
[[nodiscard]] double median_of(std::span<double> values);

/// Owns a detector set and fans trace events through it.
///
/// Wire it as one leg of a TeeTraceSink (exp::Scenario does this when
/// ScenarioConfig::enable_detectors is set), or feed it a recorded event
/// stream directly for offline analysis. Alarms are collected in order,
/// counted per detector in `registry` (triad_detector_alarms_total,
/// triad_detector_first_alarm_seconds), and appended to `alarm_sink` as
/// kDetectorAlarm events stamped with the triggering event's time and
/// span. Both registry and alarm_sink may be null.
class DetectorBank final : public TraceSink {
 public:
  /// Bank with the three standard detectors.
  DetectorBank(const DetectorConfig& config, Registry* registry,
               TraceSink* alarm_sink);
  /// Bank with a custom detector set (tests, ablations).
  DetectorBank(std::vector<std::unique_ptr<Detector>> detectors,
               Registry* registry, TraceSink* alarm_sink);

  void emit(const TraceEvent& event) override;

  [[nodiscard]] const std::vector<Alarm>& alarms() const { return alarms_; }
  /// Timestamp of the first alarm; -1 while none fired.
  [[nodiscard]] SimTime first_alarm_at() const { return first_alarm_at_; }

 private:
  void register_metrics(Registry* registry);

  std::vector<std::unique_ptr<Detector>> detectors_;
  TraceSink* alarm_sink_;
  std::vector<Alarm> alarms_;
  std::vector<Alarm> scratch_;
  SimTime first_alarm_at_ = -1;
  Counter alarm_counters_[3];  // indexed by DetectorKind
  Gauge first_alarm_gauge_;
};

}  // namespace triad::obs
