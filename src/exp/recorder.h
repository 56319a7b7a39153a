// Instrumentation for figure reproduction.
//
// Attaches to a Scenario and records, per node:
//   * clock drift vs the TA reference (ms)                -> Figs 2a/3a/4/5/6a
//   * cumulative TA time references                        -> Fig 2b
//   * cumulative AEX count                                 -> Fig 6b
//   * protocol state (timing diagram)                      -> Fig 3b
// plus cluster-wide network traffic (bytes on the wire) and the
// discrete clock-adoption (time-jump) events.
//
// Counters are read from the node and network stats structs — the same
// fields the registry's triad_node_*_total / triad_net_bytes_*_total
// series export, so the two views agree. When the scenario has a metrics
// registry (enable_metrics), the sampled drift is mirrored into the
// triad_drift_ms gauge so the Prometheus export carries it too.
#pragma once

#include <memory>
#include <vector>

#include "exp/scenario.h"
#include "stats/timeseries.h"

namespace triad::exp {

struct AdoptionEvent {
  SimTime at = 0;
  std::size_t node = 0;       // 0-based scenario index
  SimTime local_before = 0;
  SimTime adopted = 0;
  NodeId source = 0;          // peer address or TA address
  [[nodiscard]] Duration step() const { return adopted - local_before; }
};

struct StateChangeEvent {
  SimTime at = 0;
  std::size_t node = 0;
  NodeState from{};
  NodeState to{};
};

class Recorder {
 public:
  /// Attaches hooks immediately; sampling starts at the first period.
  /// At most one Recorder per scenario (it owns the nodes' hooks).
  explicit Recorder(Scenario& scenario, Duration sample_period = seconds(1));

  [[nodiscard]] const stats::TimeSeries& drift_ms(std::size_t node) const;
  [[nodiscard]] const stats::TimeSeries& ta_references(std::size_t node) const;
  [[nodiscard]] const stats::TimeSeries& aex_count(std::size_t node) const;
  [[nodiscard]] const stats::TimeSeries& state(std::size_t node) const;

  [[nodiscard]] const std::vector<AdoptionEvent>& adoptions() const {
    return adoptions_;
  }
  [[nodiscard]] const std::vector<StateChangeEvent>& state_changes() const {
    return state_changes_;
  }

  /// Average drift rate of a node over [from, to], in ms per second,
  /// from the recorded drift series (linear fit).
  [[nodiscard]] double drift_rate_ms_per_s(std::size_t node, SimTime from,
                                           SimTime to) const;

  /// All recorded series, for CSV export.
  [[nodiscard]] const stats::SeriesSet& series() const { return series_; }

 private:
  void sample();

  Scenario& scenario_;
  stats::SeriesSet series_;
  std::vector<stats::TimeSeries*> drift_;
  std::vector<stats::TimeSeries*> ta_refs_;
  std::vector<stats::TimeSeries*> aex_;
  std::vector<stats::TimeSeries*> state_;
  stats::TimeSeries* net_bytes_sent_ = nullptr;
  stats::TimeSeries* net_bytes_delivered_ = nullptr;
  std::vector<obs::Gauge> drift_gauges_;  // triad_drift_ms{node=}; no-op
                                          // without a registry
  std::vector<AdoptionEvent> adoptions_;
  std::vector<StateChangeEvent> state_changes_;
  std::unique_ptr<runtime::PeriodicTimer> timer_;
};

}  // namespace triad::exp
