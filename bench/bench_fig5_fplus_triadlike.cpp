// Figure 5 (§IV-B1): F+ attack on Node 3 with ALL nodes under Triad-like
// AEXs.
//
// Same attack as Figure 4, but the victim is interrupted every ~0.7 s on
// average, so after each AEX it picks up its peers' timestamps: its drift
// oscillates between the honest nodes' drift (upper envelope) and about
// −150 ms (its own slow clock over the longest 1.59 s AEX gap).
// Paper: F3=3191.210, F1=2898.751, F2=2900.836 MHz; bounds ≈ peers' drift
// and −150 ms.
#include <cstdio>

#include "bench_common.h"
#include "exp/recorder.h"
#include "exp/scenario.h"

int main() {
  using namespace triad;
  bench::print_header(
      "Figure 5 — F+ attack on Node 3 (all nodes Triad-like AEXs)",
      "frequent AEXs let the victim re-adopt honest peer time after every "
      "interruption");

  exp::ScenarioConfig cfg;
  cfg.seed = 5;
  exp::Scenario sc(std::move(cfg));
  attacks::DelayAttackConfig attack;
  attack.kind = attacks::AttackKind::kFPlus;
  attack.victim = sc.node_address(2);
  attack.ta_address = sc.ta_address();
  sc.add_delay_attack(attack);
  // Sample at 200 ms so the oscillation is visible.
  exp::Recorder fine(sc, milliseconds(200));
  sc.start();
  sc.run_until(minutes(10));

  for (std::size_t i = 0; i < 3; ++i) {
    std::printf("\n--- node %zu clock drift (ms) ---\n", i + 1);
    bench::print_series(fine.drift_ms(i), 120);
  }

  std::printf("\n");
  bench::print_table_head({"Metric", "Paper", "Measured"});
  bench::print_row({"F3_calib (≈ same as Fig. 4)", "3191.210 MHz",
                    bench::fmt("%.3f MHz",
                               sc.node(2).calibrated_frequency_hz() / 1e6)});
  bench::print_row({"victim lower oscillation bound", "≈ −150 ms",
                    bench::fmt("%.1f ms", fine.drift_ms(2).min_value())});
  bench::print_row({"victim upper bound", "honest nodes' drift",
                    bench::fmt("%+.1f ms", fine.drift_ms(2).max_value())});
  bench::print_row({"victim re-adopts peer time after every AEX",
                    "oscillation mechanism",
                    bench::fmt("%llu peer adoptions in 10 min",
                               static_cast<unsigned long long>(
                                   sc.node(2).stats().peer_adoptions))});
  return 0;
}
