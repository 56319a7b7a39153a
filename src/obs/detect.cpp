#include "obs/detect.h"

#include <algorithm>
#include <cmath>

namespace triad::obs {

double median_of(std::span<double> values) {
  const std::size_t n = values.size();
  if (n == 0) return 0.0;
  const auto middle = values.begin() + static_cast<std::ptrdiff_t>(n / 2);
  std::nth_element(values.begin(), middle, values.end());
  if (n % 2 == 1) return *middle;
  // Everything before `middle` is <= it, so the lower middle of the
  // sorted order is the largest of them.
  return (*std::max_element(values.begin(), middle) + *middle) / 2.0;
}

namespace {

/// Latest calibrated slope per node, shared shape between the slope and
/// disagreement detectors. std::map: deterministic iteration.
using SlopeMap = std::map<NodeId, double>;

std::vector<double> slope_values(const SlopeMap& slopes) {
  std::vector<double> values;
  values.reserve(slopes.size());
  for (const auto& [node, slope] : slopes) values.push_back(slope);
  return values;
}

class SlopeDetector final : public Detector {
 public:
  explicit SlopeDetector(const DetectorConfig& config) : config_(config) {}

  DetectorKind kind() const override { return DetectorKind::kSlope; }

  void on_event(const TraceEvent& event, std::vector<Alarm>* out) override {
    if (event.type != TraceEventType::kCalibration || event.x <= 0.0) return;
    latest_[event.node] = event.x;

    double reference = 0.0;
    if (config_.nominal_frequency_hz > 0.0) {
      reference = config_.nominal_frequency_hz;
    } else if (latest_.size() >= kSlopeQuorum) {
      // Median including the node itself: with a single attacked node
      // the median sits on the honest consensus, so the victim's slope
      // shows its full ±10% deviation while honest nodes stay within
      // calibration noise.
      std::vector<double> values = slope_values(latest_);
      reference = median_of(values);
    } else {
      return;  // no baseline yet
    }
    if (reference <= 0.0) return;
    const double deviation_ppm = (event.x - reference) / reference * 1e6;
    if (std::abs(deviation_ppm) <= kSlopeTolerancePpm) return;
    Alarm alarm;
    alarm.at = event.at;
    alarm.detector = DetectorKind::kSlope;
    alarm.node = event.node;
    alarm.span = event.span;
    alarm.value = deviation_ppm;  // sign carries the F−/F+ direction
    alarm.threshold = kSlopeTolerancePpm;
    out->push_back(alarm);
  }

 private:
  DetectorConfig config_;
  SlopeMap latest_;
};

class DisagreementDetector final : public Detector {
 public:
  DetectorKind kind() const override { return DetectorKind::kDisagreement; }

  void on_event(const TraceEvent& event, std::vector<Alarm>* out) override {
    if (event.type != TraceEventType::kCalibration || event.x <= 0.0) return;
    latest_[event.node] = event.x;
    if (latest_.size() < 2) return;

    std::vector<double> values = slope_values(latest_);
    const double median = median_of(values);
    if (median <= 0.0) return;
    const auto [min_it, max_it] =
        std::minmax_element(values.begin(), values.end());
    const double width_ppm = (*max_it - *min_it) / median * 1e6;
    if (width_ppm <= kDisagreementWidthPpm) {
      active_ = false;  // spread healed; re-arm
      return;
    }
    if (active_) return;  // one alarm per excursion
    active_ = true;
    Alarm alarm;
    alarm.at = event.at;
    alarm.detector = DetectorKind::kDisagreement;
    alarm.node = farthest_from(median);
    alarm.span = event.span;
    alarm.value = width_ppm;
    alarm.threshold = kDisagreementWidthPpm;
    out->push_back(alarm);
  }

 private:
  /// The node whose slope sits farthest from the consensus — the
  /// chimer Marzullo's algorithm would exclude. An exact tie (two
  /// slopes: both are equidistant from their midpoint) is
  /// unattributable and returns 0 rather than accusing either side.
  NodeId farthest_from(double median) const {
    NodeId worst = 0;
    double worst_distance = -1.0;
    bool tied = false;
    for (const auto& [node, slope] : latest_) {
      const double distance = std::abs(slope - median);
      if (distance > worst_distance) {
        worst_distance = distance;
        worst = node;
        tied = false;
      } else if (distance == worst_distance) {
        tied = true;
      }
    }
    return tied ? 0 : worst;
  }

  SlopeMap latest_;
  bool active_ = false;
};

class JumpDetector final : public Detector {
 public:
  explicit JumpDetector(const DetectorConfig& config) : config_(config) {}

  DetectorKind kind() const override { return DetectorKind::kJump; }

  void on_event(const TraceEvent& event, std::vector<Alarm>* out) override {
    if (event.type != TraceEventType::kAdoption) return;
    if (event.peer == 0 || event.peer == config_.ta_address) return;
    const double step_ms =
        static_cast<double>(event.b - event.a) / 1e6;
    if (step_ms <= 0.0) return;  // only forward jumps propagate attacks

    double threshold = kJumpFloorMs;
    if (!window_.empty()) {
      scratch_.assign(window_.begin(), window_.end());
      threshold =
          std::max(threshold, kJumpMedianFactor * median_of(scratch_));
    }
    if (step_ms > threshold) {
      Alarm alarm;
      alarm.at = event.at;
      alarm.detector = DetectorKind::kJump;
      alarm.node = event.node;
      alarm.source = event.peer;
      alarm.span = event.span;
      alarm.value = step_ms;
      alarm.threshold = threshold;
      out->push_back(alarm);
    }
    window_.push_back(step_ms);
    if (window_.size() > kJumpWindow) window_.pop_front();
  }

 private:
  DetectorConfig config_;
  std::deque<double> window_;
  std::vector<double> scratch_;  // median_of reorders; window_ keeps order
};

std::vector<std::unique_ptr<Detector>> standard_detectors(
    const DetectorConfig& config) {
  std::vector<std::unique_ptr<Detector>> detectors;
  detectors.push_back(make_slope_detector(config));
  detectors.push_back(make_disagreement_detector());
  detectors.push_back(make_jump_detector(config));
  return detectors;
}

}  // namespace

const char* to_string(DetectorKind kind) {
  switch (kind) {
    case DetectorKind::kSlope: return "slope";
    case DetectorKind::kDisagreement: return "disagreement";
    case DetectorKind::kJump: return "jump";
  }
  return "?";
}

std::unique_ptr<Detector> make_slope_detector(const DetectorConfig& config) {
  return std::make_unique<SlopeDetector>(config);
}

std::unique_ptr<Detector> make_disagreement_detector() {
  return std::make_unique<DisagreementDetector>();
}

std::unique_ptr<Detector> make_jump_detector(const DetectorConfig& config) {
  return std::make_unique<JumpDetector>(config);
}

DetectorBank::DetectorBank(const DetectorConfig& config, Registry* registry,
                           TraceSink* alarm_sink)
    : DetectorBank(standard_detectors(config), registry, alarm_sink) {}

DetectorBank::DetectorBank(std::vector<std::unique_ptr<Detector>> detectors,
                           Registry* registry, TraceSink* alarm_sink)
    : detectors_(std::move(detectors)), alarm_sink_(alarm_sink) {
  register_metrics(registry);
}

void DetectorBank::register_metrics(Registry* registry) {
  if (registry == nullptr) return;
  registry->set_help("triad_detector_alarms_total",
                     "Attack-signature alarms raised, per detector");
  // All three series exist from the start so attack-free runs export
  // explicit zeros (the campaign smoke asserts on them). The label
  // values are spelled literally — they must match to_string(kind) —
  // so the R9 inventory (and the check_prom.awk required-series list
  // generated from it) sees the full detector set.
  alarm_counters_[static_cast<std::size_t>(DetectorKind::kSlope)] =
      registry->counter("triad_detector_alarms_total",
                        {{"detector", "slope"}});
  alarm_counters_[static_cast<std::size_t>(DetectorKind::kDisagreement)] =
      registry->counter("triad_detector_alarms_total",
                        {{"detector", "disagreement"}});
  alarm_counters_[static_cast<std::size_t>(DetectorKind::kJump)] =
      registry->counter("triad_detector_alarms_total",
                        {{"detector", "jump"}});
  registry->set_help("triad_detector_first_alarm_seconds",
                     "Virtual time of the first alarm (-1 = none)");
  first_alarm_gauge_ =
      registry->gauge("triad_detector_first_alarm_seconds", {});
  first_alarm_gauge_.set(-1.0);
}

void DetectorBank::emit(const TraceEvent& event) {
  // Never consume our own output: the alarm sink may be the same ring
  // this bank tees off, and offline replays feed alarms back in.
  if (event.type == TraceEventType::kDetectorAlarm) return;
  for (const std::unique_ptr<Detector>& detector : detectors_) {
    scratch_.clear();
    detector->on_event(event, &scratch_);
    for (const Alarm& alarm : scratch_) {
      alarms_.push_back(alarm);
      if (first_alarm_at_ < 0) {
        first_alarm_at_ = alarm.at;
        first_alarm_gauge_.set(to_seconds(alarm.at));
      }
      alarm_counters_[static_cast<std::size_t>(alarm.detector)].inc();
      if (alarm_sink_ != nullptr) {
        TraceEvent out;
        out.at = alarm.at;
        out.type = TraceEventType::kDetectorAlarm;
        out.node = alarm.node;
        out.peer = alarm.source;
        out.span = alarm.span;
        out.a = static_cast<std::int64_t>(alarm.detector);
        out.b = static_cast<std::int64_t>(alarms_.size());  // 1-based ordinal
        out.x = alarm.value;
        out.y = alarm.threshold;
        alarm_sink_->emit(out);
      }
    }
  }
}

}  // namespace triad::obs
