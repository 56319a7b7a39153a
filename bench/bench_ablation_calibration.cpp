// Calibration-design ablation (§III-C discussion made quantitative).
//
// Triad's frequency estimate comes from short round-trips; the paper
// attributes the ~110 ppm fault-free drift (vs NTP's 15 ppm bound) to
// exactly this. Three sweeps quantify the design space:
//   1. network jitter   — calibration error grows linearly with jitter;
//   2. regression pairs — more samples average jitter away (~1/sqrt(k));
//   3. wait-time spread — a wider 0 s..S s probe spread divides the
//      error by S (the paper's 1 s spread is the unit), which is also
//      why NTP-style long windows (§V) are so much better.
// Per cell: median |F_calib - F_TSC| in ppm over several seeds.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <vector>

#include "bench_common.h"
#include "exp/scenario.h"

namespace {

using namespace triad;

double calibration_error_ppm(Duration jitter, int pairs, Duration wait_high,
                             std::uint64_t seed) {
  exp::ScenarioConfig cfg;
  cfg.seed = seed;
  cfg.node_count = 1;
  cfg.machine_interrupts = false;
  cfg.environments = {exp::AexEnvironment::kNone};
  cfg.net_jitter = jitter;
  cfg.node_template.calib_pairs = pairs;
  cfg.node_template.calib_wait_high = wait_high;
  exp::Scenario sc(std::move(cfg));
  sc.start();
  sc.run_until(minutes(2) + wait_high * (2 * pairs + 4));
  const double f = sc.node(0).calibrated_frequency_hz();
  return std::abs(f - tsc::kPaperTscFrequencyHz) /
         tsc::kPaperTscFrequencyHz * 1e6;
}

double median_error_ppm(Duration jitter, int pairs, Duration wait_high) {
  std::vector<double> errors;
  for (std::uint64_t seed = 1; seed <= 15; ++seed) {
    errors.push_back(
        calibration_error_ppm(jitter, pairs, wait_high, 9000 + seed));
  }
  std::sort(errors.begin(), errors.end());
  return errors[errors.size() / 2];
}

}  // namespace

int main() {
  using namespace triad;
  bench::print_header(
      "Calibration ablation — why Triad drifts at ~110 ppm",
      "median |F_calib - F_TSC| in ppm over 15 seeds per cell");

  // One table, one row per cell; each sweep varies one knob and fixes
  // the other two at 120 us jitter, 8 pairs, 1 s spread.
  std::printf("\n");
  bench::print_table_head({"sweep", "setting", "median error"});
  for (Duration jitter :
       {microseconds(10), microseconds(30), microseconds(60),
        microseconds(120), microseconds(250), microseconds(500)}) {
    bench::print_row(
        {"jitter (8 pairs, 1 s spread)",
         bench::fmt("%lld µs", static_cast<long long>(jitter / 1000)),
         bench::fmt("%.1f ppm", median_error_ppm(jitter, 8, seconds(1)))});
  }
  for (int pairs : {2, 4, 8, 16, 32, 64}) {
    bench::print_row(
        {"pairs (120 µs jitter, 1 s spread)", bench::fmt("%d", pairs),
         bench::fmt("%.1f ppm",
                    median_error_ppm(microseconds(120), pairs, seconds(1)))});
  }
  for (Duration spread : {milliseconds(250), milliseconds(500), seconds(1),
                          seconds(2), seconds(8), seconds(32)}) {
    bench::print_row(
        {"wait spread (120 µs jitter, 8 pairs)",
         bench::fmt("%lld ms", static_cast<long long>(spread / 1'000'000)),
         bench::fmt("%.1f ppm",
                    median_error_ppm(microseconds(120), 8, spread))});
  }
  return 0;
}
