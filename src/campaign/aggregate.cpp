#include "campaign/aggregate.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <ostream>
#include <stdexcept>

namespace triad::campaign {
namespace {

struct BuiltinMetric {
  const char* name;
  double (*get)(const RunResult&);
};

constexpr BuiltinMetric kBuiltins[] = {
    {"availability", [](const RunResult& r) { return r.availability; }},
    {"honest_max_abs_drift_ms",
     [](const RunResult& r) { return r.honest_max_abs_drift_ms; }},
    {"honest_max_jump_ms",
     [](const RunResult& r) { return r.honest_max_jump_ms; }},
    {"victim_final_drift_ms",
     [](const RunResult& r) { return r.victim_final_drift_ms; }},
    {"victim_freq_mhz", [](const RunResult& r) { return r.victim_freq_mhz; }},
    {"peer_untaint_rate",
     [](const RunResult& r) { return r.peer_untaint_rate; }},
    {"adoptions", [](const RunResult& r) { return r.adoptions; }},
    {"ta_requests", [](const RunResult& r) { return r.ta_requests; }},
    {"aex_total", [](const RunResult& r) { return r.aex_total; }},
    {"events_executed",
     [](const RunResult& r) { return r.events_executed; }},
    {"detector_alarms",
     [](const RunResult& r) { return r.detector_alarms; }},
    {"detector_first_alarm_s",
     [](const RunResult& r) { return r.detector_first_alarm_s; }},
    {"detector_false_alarms",
     [](const RunResult& r) { return r.detector_false_alarms; }},
};

/// Fixed float formatting: identical doubles always print identically,
/// which is what makes the reports byte-stable.
std::string fmt(double v) {
  char buffer[40];
  std::snprintf(buffer, sizeof buffer, "%.9g", v);
  return buffer;
}

double percentile(const std::vector<double>& sorted, double q) {
  const std::size_t n = sorted.size();
  const auto rank = static_cast<std::size_t>(std::ceil(q * n));
  return sorted[std::min(n - 1, rank == 0 ? 0 : rank - 1)];
}

void write_stat_json(std::ostream& out, const Stat& stat) {
  out << "{\"mean\": " << fmt(stat.mean) << ", \"min\": " << fmt(stat.min)
      << ", \"max\": " << fmt(stat.max) << ", \"p50\": " << fmt(stat.p50)
      << ", \"p95\": " << fmt(stat.p95) << ", \"n\": " << stat.n << "}";
}

}  // namespace

Stat Stat::of(std::vector<double> values) {
  Stat stat;
  stat.n = values.size();
  if (values.empty()) return stat;
  std::sort(values.begin(), values.end());
  double sum = 0.0;
  for (const double v : values) sum += v;
  stat.mean = sum / static_cast<double>(values.size());
  stat.min = values.front();
  stat.max = values.back();
  stat.p50 = percentile(values, 0.50);
  stat.p95 = percentile(values, 0.95);
  return stat;
}

CampaignReport CampaignReport::aggregate(const CampaignSpec& spec,
                                         const CampaignResult& result) {
  if (std::string message = spec.validate(); !message.empty()) {
    throw std::invalid_argument("invalid campaign spec: " + message);
  }
  // Re-expand to recover each cell's axis labels; expansion is
  // deterministic so cell indices line up with the executed runs.
  const std::vector<RunSpec> runs = spec.expand();
  if (runs.size() != result.runs.size()) {
    throw std::invalid_argument("result count does not match spec grid");
  }

  CampaignReport report;
  report.runs = result.runs.size();
  report.failures = result.failures;
  report.cells.resize(spec.cell_count());

  const std::size_t seeds = spec.seeds.size();
  for (std::size_t cell = 0; cell < report.cells.size(); ++cell) {
    CellReport& out = report.cells[cell];
    const RunSpec& first = runs[cell * seeds];
    out.cell = cell;
    out.nodes = first.nodes;
    out.environment = first.environment;
    out.policy = first.policy;
    out.attack = first.attack;
    out.runs = seeds;

    std::vector<const RunResult*> ok;
    ok.reserve(seeds);
    for (std::size_t s = 0; s < seeds; ++s) {
      const RunResult& run = result.runs[cell * seeds + s];
      if (run.failed) {
        ++out.failures;
      } else {
        ok.push_back(&run);
      }
    }

    for (const BuiltinMetric& metric : kBuiltins) {
      std::vector<double> values;
      values.reserve(ok.size());
      for (const RunResult* run : ok) values.push_back(metric.get(*run));
      out.metrics.push_back({metric.name, Stat::of(std::move(values))});
    }
    // Extras: union of keys over the cell's runs, sorted for stable
    // report order (std::map iterates in key order).
    std::map<std::string, std::vector<double>> extras;
    for (const RunResult* run : ok) {
      for (const auto& [key, value] : run->extra) {
        extras[key].push_back(value);
      }
    }
    for (auto& [key, values] : extras) {
      out.metrics.push_back({key, Stat::of(std::move(values))});
    }
  }
  return report;
}

void CampaignReport::write_json(std::ostream& out) const {
  out << "{\n  \"runs\": " << runs << ",\n  \"failures\": " << failures
      << ",\n  \"cells\": [";
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const CellReport& cell = cells[i];
    out << (i == 0 ? "" : ",") << "\n    {\n"
        << "      \"cell\": " << cell.cell << ",\n"
        << "      \"nodes\": " << cell.nodes << ",\n"
        << "      \"environment\": \"" << cell.environment << "\",\n"
        << "      \"policy\": \"" << cell.policy << "\",\n"
        << "      \"attack\": \"" << cell.attack << "\",\n"
        << "      \"runs\": " << cell.runs << ",\n"
        << "      \"failures\": " << cell.failures << ",\n"
        << "      \"metrics\": {";
    for (std::size_t m = 0; m < cell.metrics.size(); ++m) {
      out << (m == 0 ? "" : ",") << "\n        \"" << cell.metrics[m].name
          << "\": ";
      write_stat_json(out, cell.metrics[m].stat);
    }
    out << "\n      }\n    }";
  }
  out << "\n  ]\n}\n";
}

CampaignTiming CampaignTiming::of(const CampaignResult& result) {
  CampaignTiming timing;
  std::map<std::size_t, std::pair<std::vector<double>, std::vector<double>>>
      by_cell;
  std::vector<double> all_wall;
  std::vector<double> all_queue;
  for (const RunResult& run : result.runs) {
    if (run.failed) continue;
    by_cell[run.cell].first.push_back(run.wall_ms);
    by_cell[run.cell].second.push_back(run.queue_ms);
    all_wall.push_back(run.wall_ms);
    all_queue.push_back(run.queue_ms);
  }
  for (auto& [cell, values] : by_cell) {
    CellTiming cell_timing;
    cell_timing.cell = cell;
    cell_timing.wall_ms = Stat::of(std::move(values.first));
    cell_timing.queue_ms = Stat::of(std::move(values.second));
    timing.cells.push_back(std::move(cell_timing));
  }
  timing.wall_ms = Stat::of(std::move(all_wall));
  timing.queue_ms = Stat::of(std::move(all_queue));
  return timing;
}

void CampaignTiming::write_summary(std::ostream& out) const {
  char line[160];
  std::snprintf(line, sizeof line, "%6s %6s %12s %12s %12s %12s\n", "cell",
                "n", "wall_mean", "wall_p95", "queue_mean", "queue_p95");
  out << line;
  for (const CellTiming& cell : cells) {
    std::snprintf(line, sizeof line, "%6zu %6zu %12.1f %12.1f %12.1f %12.1f\n",
                  cell.cell, cell.wall_ms.n, cell.wall_ms.mean,
                  cell.wall_ms.p95, cell.queue_ms.mean, cell.queue_ms.p95);
    out << line;
  }
  std::snprintf(line, sizeof line,
                "all cells: wall mean %.1f ms p95 %.1f ms, queue mean %.1f "
                "ms p95 %.1f ms (n=%zu)\n",
                wall_ms.mean, wall_ms.p95, queue_ms.mean, queue_ms.p95,
                wall_ms.n);
  out << line;
}

void CampaignReport::write_csv(std::ostream& out) const {
  out << "cell,nodes,environment,policy,attack,runs,failures";
  // All cells share the built-in metric set; extras may differ, so the
  // header uses the first cell's metric list (uniform for grid sweeps,
  // where every cell runs the same inspect hook).
  const std::vector<MetricStat>* header =
      cells.empty() ? nullptr : &cells.front().metrics;
  if (header != nullptr) {
    for (const MetricStat& metric : *header) {
      for (const char* suffix : {"mean", "min", "max", "p50", "p95"}) {
        out << ',' << metric.name << '_' << suffix;
      }
    }
  }
  out << '\n';
  for (const CellReport& cell : cells) {
    out << cell.cell << ',' << cell.nodes << ',' << cell.environment << ','
        << cell.policy << ',' << cell.attack << ',' << cell.runs << ','
        << cell.failures;
    for (const MetricStat& metric : cell.metrics) {
      out << ',' << fmt(metric.stat.mean) << ',' << fmt(metric.stat.min)
          << ',' << fmt(metric.stat.max) << ',' << fmt(metric.stat.p50)
          << ',' << fmt(metric.stat.p95);
    }
    out << '\n';
  }
}

}  // namespace triad::campaign
