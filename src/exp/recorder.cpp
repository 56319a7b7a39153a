#include "exp/recorder.h"

#include <string>

#include "stats/regression.h"

namespace triad::exp {

Recorder::Recorder(Scenario& scenario, Duration sample_period)
    : scenario_(scenario) {
  const std::size_t n = scenario.node_count();
  for (std::size_t i = 0; i < n; ++i) {
    const std::string suffix = "_node" + std::to_string(i + 1);
    drift_.push_back(&series_.add("drift_ms" + suffix));
    ta_refs_.push_back(&series_.add("ta_refs" + suffix));
    aex_.push_back(&series_.add("aex" + suffix));
    state_.push_back(&series_.add("state" + suffix));
  }
  net_bytes_sent_ = &series_.add("net_bytes_sent");
  net_bytes_delivered_ = &series_.add("net_bytes_delivered");

  if (obs::Registry* registry = scenario_.metrics(); registry != nullptr) {
    registry->set_help("triad_drift_ms",
                       "Clock drift vs the TA reference (Recorder sample)");
    for (std::size_t i = 0; i < n; ++i) {
      drift_gauges_.push_back(registry->gauge(
          "triad_drift_ms",
          {{"node", std::to_string(scenario.node_address(i))}}));
    }
  } else {
    drift_gauges_.resize(n);  // no-op handles
  }

  scenario_.trace_tee().add(this);
  timer_ = std::make_unique<runtime::PeriodicTimer>(
      scenario_.env(), sample_period, [this] { sample(); });
}

Recorder::~Recorder() { scenario_.trace_tee().remove(this); }

void Recorder::emit(const obs::TraceEvent& event) {
  const bool adoption = event.type == obs::TraceEventType::kAdoption;
  if (!adoption && event.type != obs::TraceEventType::kStateChange) return;
  // Node i lives at node_address(i) = node_address(0) + i; any other
  // endpoint maps past node_count().
  const std::size_t i = event.node - scenario_.node_address(0);
  if (i >= scenario_.node_count()) return;
  if (adoption) {
    adoptions_.push_back(
        AdoptionEvent{event.at, i, event.a, event.b, event.peer});
    return;
  }
  const auto to = static_cast<NodeState>(event.b);
  state_changes_.push_back(
      StateChangeEvent{event.at, i, static_cast<NodeState>(event.a), to});
  state_[i]->record(event.at, static_cast<double>(to));
}

void Recorder::sample() {
  const SimTime now = scenario_.simulation().now();
  for (std::size_t i = 0; i < scenario_.node_count(); ++i) {
    TriadNode& node = scenario_.node(i);
    if (node.calibrated_frequency_hz() > 0) {
      const double drift = to_milliseconds(node.current_time() - now);
      drift_[i]->record(now, drift);
      drift_gauges_[i].set(drift);
    }
    ta_refs_[i]->record(now,
                        static_cast<double>(node.stats().ta_time_references));
    aex_[i]->record(now, static_cast<double>(node.stats().aex_count));
  }
  const net::NetworkStats& net = scenario_.network().stats();
  net_bytes_sent_->record(now, static_cast<double>(net.bytes_sent));
  net_bytes_delivered_->record(now, static_cast<double>(net.bytes_delivered));
}

const stats::TimeSeries& Recorder::drift_ms(std::size_t node) const {
  return *drift_.at(node);
}
const stats::TimeSeries& Recorder::ta_references(std::size_t node) const {
  return *ta_refs_.at(node);
}
const stats::TimeSeries& Recorder::aex_count(std::size_t node) const {
  return *aex_.at(node);
}
const stats::TimeSeries& Recorder::state(std::size_t node) const {
  return *state_.at(node);
}

double Recorder::drift_rate_ms_per_s(std::size_t node, SimTime from,
                                     SimTime to) const {
  stats::LinearRegression reg;
  for (const auto& sample : drift_.at(node)->samples()) {
    if (sample.time >= from && sample.time <= to) {
      reg.add(to_seconds(sample.time), sample.value);
    }
  }
  return reg.fit().slope;
}

}  // namespace triad::exp
