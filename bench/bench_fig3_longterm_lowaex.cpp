// Figure 3 (§IV-A2): long-term fault-free behaviour in the low-AEX
// environment (Fig. 1b), 8 hours.
//   (a) clock drift — the node that underestimates F_TSC the most leads;
//       peer untainting produces 50-70 ms forward jumps at partial
//       machine interrupts (paper: t = 1705 s, 2623 s, 2688 s)
//   (b) node-state timing diagram for the first hour: a single FullCalib
//       at the start, then OK with brief Tainted/RefCalib episodes.
// Paper: F1=2899.363, F2=2900.260, F3=2900.510 MHz; Node 1 drifts at
// ~210 ppm; availability rises to 99.9 %.
#include <cstdio>

#include "bench_common.h"
#include "exp/recorder.h"
#include "exp/scenario.h"

int main() {
  using namespace triad;
  bench::print_header(
      "Figure 3 — fault-free behaviour, low-AEX environment (8 h)",
      "only residual machine-wide interrupts (~5.4 min apart) hit the "
      "monitoring cores");

  exp::ScenarioConfig cfg;
  cfg.seed = 3;
  cfg.environments = {exp::AexEnvironment::kLowAex,
                      exp::AexEnvironment::kLowAex,
                      exp::AexEnvironment::kLowAex};
  exp::Scenario sc(std::move(cfg));
  exp::Recorder rec(sc);
  sc.start();
  sc.run_until(hours(8));

  for (std::size_t i = 0; i < 3; ++i) {
    std::printf("\n--- Figure 3a: node %zu clock drift (ms) ---\n", i + 1);
    bench::print_series(rec.drift_ms(i), 90);
  }

  std::printf("\n--- Figure 3b: state timing diagram, first hour ---\n");
  std::printf("# time_s,node,state  (0=FullCalib 1=RefCalib 2=OK 3=Tainted)\n");
  for (const auto& ev : rec.state_changes()) {
    if (ev.at > hours(1)) break;
    std::printf("%.3f,%zu,%s\n", to_seconds(ev.at), ev.node + 1,
                to_string(ev.to));
  }

  std::printf("\n--- peer-untainting forward time jumps ---\n");
  std::printf("# time_s,node,source,step_ms\n");
  int jumps_50_70 = 0;
  for (const auto& ev : rec.adoptions()) {
    if (ev.source == sc.ta_address()) continue;  // only peer adoptions
    std::printf("%.1f,%zu,%u,%.1f\n", to_seconds(ev.at), ev.node + 1,
                ev.source, to_milliseconds(ev.step()));
    if (ev.step() > milliseconds(20) && ev.step() < milliseconds(120)) {
      ++jumps_50_70;
    }
  }

  std::printf("\n");
  bench::print_table_head({"Metric", "Paper", "Measured"});
  bench::print_row(
      {"F_calib per node", "2899.363 / 2900.260 / 2900.510 MHz",
       bench::per_node(3, "%.3f",
                       [&sc](std::size_t i) {
                         return sc.node(i).calibrated_frequency_hz() / 1e6;
                       }) +
           " MHz"});
  bench::print_row({"single FullCalib at start (Fig. 3b)", "yes",
                    bench::per_node(3, "%llu", [&sc](std::size_t i) {
                      return static_cast<unsigned long long>(
                          sc.node(i).stats().full_calibrations);
                    })});
  bench::print_row({"peer-untaint forward jumps",
                    "50–70 ms at t ∈ {1705, 2623, 2688} s",
                    bench::fmt("%d jumps of 20–120 ms", jumps_50_70)});
  bench::print_row({"availability over 8 h", "99.9 %",
                    bench::per_node(3, "%.3f",
                                    [&sc](std::size_t i) {
                                      return sc.node(i).availability() * 100;
                                    }) +
                        " %"});
  return 0;
}
