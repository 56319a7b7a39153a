// Deterministic cross-run aggregation.
//
// Folds the RunResults of a campaign into per-cell statistics (one cell
// = one combination of the non-seed axes; the seed axis is the sample
// dimension). Cells appear in grid order and every float is printed
// with fixed formatting, so the JSON/CSV reports are byte-identical for
// a given spec no matter how many workers executed it or in which order
// runs completed. Failed runs are excluded from the statistics and
// surface as per-cell / campaign failure counts instead.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "campaign/runner.h"
#include "campaign/spec.h"

namespace triad::campaign {

/// Order statistics over the non-failed runs of one cell.
/// Percentiles use the nearest-rank method on the sorted sample.
struct Stat {
  double mean = 0.0;
  double min = 0.0;
  double max = 0.0;
  double p50 = 0.0;
  double p95 = 0.0;
  std::size_t n = 0;  // samples (non-failed runs)

  static Stat of(std::vector<double> values);
};

struct MetricStat {
  std::string name;
  Stat stat;
};

struct CellReport {
  std::size_t cell = 0;
  std::size_t nodes = 0;
  std::string environment;
  std::string policy;
  std::string attack;
  std::size_t runs = 0;
  std::size_t failures = 0;
  /// Built-in metrics in fixed order, then RunResult::extra keys in
  /// sorted order (a key missing from some runs aggregates over the
  /// runs that have it).
  std::vector<MetricStat> metrics;
};

struct CampaignReport {
  std::vector<CellReport> cells;  // grid (cell-index) order
  std::size_t runs = 0;
  std::size_t failures = 0;

  /// Groups `result` by cell. The spec provides the axis labels; it
  /// must be the spec the runs were expanded from.
  static CampaignReport aggregate(const CampaignSpec& spec,
                                  const CampaignResult& result);

  /// Single JSON object, 2-space indented, "%.9g" floats.
  void write_json(std::ostream& out) const;
  /// One row per cell; stat columns are <metric>_mean/min/max/p50/p95.
  void write_csv(std::ostream& out) const;
};

/// Per-cell wall-clock timing: how long runs took (wall_ms) and how
/// long they queued before a worker picked them up (queue_ms).
///
/// Real time, so by the determinism contract it NEVER enters
/// write_json/write_csv — it renders only on the human summary stream
/// (triad_campaign stderr summary, bench_campaign_scaling stdout).
struct CellTiming {
  std::size_t cell = 0;
  Stat wall_ms;
  Stat queue_ms;
};

struct CampaignTiming {
  std::vector<CellTiming> cells;  // grid (cell-index) order
  Stat wall_ms;                   // across every non-failed run
  Stat queue_ms;

  static CampaignTiming of(const CampaignResult& result);

  /// Human-readable per-cell table plus campaign totals.
  void write_summary(std::ostream& out) const;
};

}  // namespace triad::campaign
