// Interrupt-correlation ablation (§IV-A2's explanation of Fig. 2 vs 3).
//
// The paper attributes the bounded sawtooth of Fig. 2a to the residual
// machine-wide interrupts hitting ALL monitoring cores at once: only a
// fully-simultaneous taint forces the cluster back to the TA. "Without
// those correlated simultaneous AEXs [...] the node which underestimates
// the TSC frequency the most [leads] all other nodes to drift positively
// [...] arbitrarily long."
//
// Sweep: probability that a machine interrupt hits every core (vs
// sparing one). Expectation: TA resets and the drift ceiling fall as
// correlation drops; at 0 the cluster almost never consults the TA and
// rides its fastest clock unchecked.
#include <cmath>
#include <cstdio>

#include "bench_common.h"
#include "exp/recorder.h"
#include "exp/scenario.h"

int main() {
  using namespace triad;
  bench::print_header(
      "Correlation ablation — why the Fig. 2 sawtooth exists (60 min/row)",
      "machine-interrupt full-hit probability swept; Triad-like AEXs");

  bench::print_table_head({"full-hit p", "TA refs", "peer adoptions",
                           "max \\|drift\\|", "\\|drift\\| at end"});
  for (double p : {1.0, 0.8, 0.5, 0.2, 0.0}) {
    exp::ScenarioConfig cfg;
    cfg.seed = 99;
    cfg.machine_full_hit_probability = p;
    exp::Scenario sc(std::move(cfg));
    exp::Recorder rec(sc);
    sc.start();
    sc.run_until(minutes(60));

    std::uint64_t ta_refs = 0, jumps = 0;
    double max_drift = 0, end_drift = 0;
    for (std::size_t i = 0; i < 3; ++i) {
      ta_refs += sc.node(i).stats().ta_time_references;
      max_drift = std::max({max_drift,
                            std::abs(rec.drift_ms(i).max_value()),
                            std::abs(rec.drift_ms(i).min_value())});
      end_drift = std::max(end_drift,
                           std::abs(rec.drift_ms(i).value_at(minutes(60))));
    }
    for (const auto& adoption : rec.adoptions()) {
      if (adoption.source != sc.ta_address()) ++jumps;
    }
    bench::print_row(
        {bench::fmt("%.1f", p),
         bench::fmt("%llu", static_cast<unsigned long long>(ta_refs)),
         bench::fmt("%llu", static_cast<unsigned long long>(jumps)),
         bench::fmt("%.1f ms", max_drift), bench::fmt("%.1f ms", end_drift)});
  }

  return 0;
}
