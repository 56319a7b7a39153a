// AEX-independence ablation (§IV's stated assumption made testable).
//
// The paper: "We do not have information on correlations that existed in
// their setup's successive delays between AEXs: we assume in this work
// that their successive delays were independent."
//
// Sweep the stickiness of a Markov variant of the Triad-like delay
// distribution (same marginal: {10, 532, 1590} ms each 1/3 in steady
// state; lag-1 autocorrelation grows with stickiness) and check whether
// any of the paper's headline numbers move: availability, TA load,
// fault-free drift, and the F- infection result.
#include <cmath>
#include <cstdio>
#include <memory>

#include "bench_common.h"
#include "exp/recorder.h"
#include "exp/scenario.h"

namespace {

using namespace triad;

struct Row {
  double availability = 0;
  std::uint64_t ta_requests = 0;
  double max_drift_ms = 0;        // fault-free run
  double infected_drift_ms = 0;   // honest-node drift under F-
};

Row run(double stickiness) {
  Row row;
  for (const bool attacked : {false, true}) {
    exp::ScenarioConfig cfg;
    cfg.seed = 2026;
    cfg.aex_distribution_factory = [stickiness] {
      return std::make_unique<enclave::MarkovAexDistribution>(stickiness);
    };
    exp::Scenario sc(std::move(cfg));
    if (attacked) {
      attacks::DelayAttackConfig a;
      a.kind = attacks::AttackKind::kFMinus;
      a.victim = sc.node_address(2);
      a.ta_address = sc.ta_address();
      sc.add_delay_attack(a);
    }
    exp::Recorder rec(sc);
    sc.start();
    sc.run_until(minutes(20));

    if (!attacked) {
      for (std::size_t i = 0; i < 3; ++i) {
        row.availability += sc.node(i).availability() / 3.0;
        row.max_drift_ms = std::max({row.max_drift_ms,
                                     std::abs(rec.drift_ms(i).max_value()),
                                     std::abs(rec.drift_ms(i).min_value())});
      }
      row.ta_requests = sc.time_authority().stats().requests_served;
    } else {
      row.infected_drift_ms = std::max(
          std::abs(rec.drift_ms(0).max_value()),
          std::abs(rec.drift_ms(0).min_value()));
    }
  }
  return row;
}

}  // namespace

int main() {
  using namespace triad;
  bench::print_header(
      "AEX-independence ablation — does the paper's iid assumption matter?",
      "Markov Triad-like delays; stickiness 1/3 = iid; 20 min per cell");

  bench::print_table_head({"stickiness", "availability", "TA reqs",
                           "max \\|drift\\|", "F− honest drift"});
  for (double stickiness : {1.0 / 3.0, 0.6, 0.8, 0.95}) {
    const Row row = run(stickiness);
    bench::print_row(
        {bench::fmt("%.2f", stickiness),
         bench::fmt("%.2f %%", row.availability * 100.0),
         bench::fmt("%llu", static_cast<unsigned long long>(row.ta_requests)),
         bench::fmt("%.1f ms", row.max_drift_ms),
         bench::fmt("%.0f ms", row.infected_drift_ms)});
  }

  return 0;
}
