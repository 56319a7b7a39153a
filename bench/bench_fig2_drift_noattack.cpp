// Figure 2 (§IV-A2): long-term fault-free behaviour under the Triad-like
// AEX distribution (Fig. 1a) — 30 minutes, three nodes.
//   (a) clock drift per node over time (sawtooth: ppm-level rates reset
//       whenever correlated AEXs force a TA reference calibration)
//   (b) cumulative number of time references received from the TA
// Paper: F1=2900.089, F2=2900.113, F3=2899.653 MHz; effective drift
// ~110 ppm; availability > 98% including initial calibration.
#include <algorithm>
#include <cmath>
#include <cstdio>

#include "bench_common.h"
#include "exp/recorder.h"
#include "exp/scenario.h"

int main() {
  using namespace triad;
  bench::print_header(
      "Figure 2 — fault-free drift & TA references (30 min, Triad-like AEXs)",
      "3 nodes + TA; correlated machine interrupts force periodic TA resets");

  exp::ScenarioConfig cfg;
  cfg.seed = 2;
  exp::Scenario sc(std::move(cfg));
  exp::Recorder rec(sc);
  sc.start();
  sc.run_until(minutes(30));

  for (std::size_t i = 0; i < 3; ++i) {
    std::printf("\n--- Figure 2a: node %zu clock drift (ms) ---\n", i + 1);
    bench::print_series(rec.drift_ms(i), 90);
  }
  for (std::size_t i = 0; i < 3; ++i) {
    std::printf("\n--- Figure 2b: node %zu cumulative TA references ---\n",
                i + 1);
    bench::print_series(rec.ta_references(i), 40);
  }

  // Drift accrues between TA resets (~5.4 min): ppm rate = peak / 324 s.
  const auto peak_ms = [&rec](std::size_t i) {
    return std::max(std::abs(rec.drift_ms(i).max_value()),
                    std::abs(rec.drift_ms(i).min_value()));
  };
  std::printf("\n");
  bench::print_table_head({"Metric", "Paper", "Measured"});
  bench::print_row(
      {"F_calib per node", "2900.089 / 2900.113 / 2899.653 MHz",
       bench::per_node(3, "%.3f",
                       [&sc](std::size_t i) {
                         return sc.node(i).calibrated_frequency_hz() / 1e6;
                       }) +
           " MHz"});
  bench::print_row({"effective drift rate (peak / 324 s)",
                    "~110 ppm (≫ NTP's 15 ppm bound)",
                    bench::per_node(3, "%.0f",
                                    [&peak_ms](std::size_t i) {
                                      return peak_ms(i) / 324.0 * 1000.0;
                                    }) +
                        " ppm"});
  bench::print_row({"peak drift per ~324 s reset period",
                    "sawtooth, reset at correlated AEX → TA refresh",
                    bench::per_node(3, "%.1f", peak_ms) + " ms"});
  bench::print_row({"availability (incl. initial calibration)", "> 98 %",
                    bench::per_node(3, "%.2f",
                                    [&sc](std::size_t i) {
                                      return sc.node(i).availability() * 100;
                                    }) +
                        " %"});
  bench::print_row({"TA references", "cumulative count (Fig. 2b)",
                    bench::per_node(3, "%llu", [&sc](std::size_t i) {
                      return static_cast<unsigned long long>(
                          sc.node(i).stats().ta_time_references);
                    })});
  bench::print_row({"full calibrations", "once per node",
                    bench::per_node(3, "%llu", [&sc](std::size_t i) {
                      return static_cast<unsigned long long>(
                          sc.node(i).stats().full_calibrations);
                    })});
  return 0;
}
