// Resilience ablation (§V, implemented): Triad vs hardened variants under
// no attack, F+, and F-.
//
// Variants:
//   original      — the paper's Triad (max-timestamp peer policy)
//   +deadline     — in-TCB refresh deadline only
//   +truechimer   — majority interval-intersection peer policy only
//   triad+        — deadline + true-chimer + long-window calibration
//
// For each (variant, attack) cell we report the honest nodes' worst
// absolute drift, the victim's worst drift, and TA load — quantifying how
// much each §V countermeasure buys.
#include <cstdio>
#include <functional>
#include <memory>
#include <string>

#include "attacks/ramp_attack.h"
#include "bench_common.h"
#include "exp/recorder.h"
#include "exp/scenario.h"
#include "resilient/triad_plus.h"

namespace {

using namespace triad;

struct Variant {
  std::string name;
  std::function<void(exp::ScenarioConfig&)> apply;
};

struct Cell {
  double honest_worst_ms = 0;
  double victim_worst_ms = 0;
  std::uint64_t ta_requests = 0;
  double honest_avail = 0;
};

Cell run_cell(const Variant& variant, int attack /* -1 none, 0 F+, 1 F- */,
              std::uint64_t seed) {
  exp::ScenarioConfig cfg;
  cfg.seed = seed;
  variant.apply(cfg);
  exp::Scenario sc(std::move(cfg));
  if (attack >= 0) {
    attacks::DelayAttackConfig a;
    a.kind = attack == 0 ? attacks::AttackKind::kFPlus
                         : attacks::AttackKind::kFMinus;
    a.victim = sc.node_address(2);
    a.ta_address = sc.ta_address();
    sc.add_delay_attack(a);
  }
  exp::Recorder rec(sc);
  sc.start();
  sc.run_until(minutes(10));

  Cell cell;
  for (std::size_t i = 0; i < 2; ++i) {  // honest nodes
    cell.honest_worst_ms =
        std::max({cell.honest_worst_ms,
                  std::abs(rec.drift_ms(i).max_value()),
                  std::abs(rec.drift_ms(i).min_value())});
    cell.honest_avail += sc.node(i).availability() / 2.0;
  }
  cell.victim_worst_ms = std::max(std::abs(rec.drift_ms(2).max_value()),
                                  std::abs(rec.drift_ms(2).min_value()));
  cell.ta_requests = sc.time_authority().stats().requests_served;
  return cell;
}

}  // namespace

int main() {
  using namespace triad;
  bench::print_header(
      "Ablation — §V countermeasures vs F+/F- attacks (10 min per cell)",
      "honest-worst |drift|, victim-worst |drift|, TA load, honest "
      "availability");

  const Variant variants[] = {
      {"original", [](exp::ScenarioConfig&) {}},
      {"+deadline",
       [](exp::ScenarioConfig& cfg) {
         cfg.node_template.refresh_deadline = seconds(10);
       }},
      {"+truechimer",
       [](exp::ScenarioConfig& cfg) {
         cfg.policy_factory = [] {
           return resilient::make_true_chimer_policy();
         };
       }},
      {"triad+",
       [](exp::ScenarioConfig& cfg) {
         cfg.node_template = resilient::harden(cfg.node_template);
         cfg.policy_factory = [] {
           return resilient::make_triad_plus_policy();
         };
       }},
  };
  const char* attacks_names[] = {"none", "F+", "F−"};

  bench::print_table_head({"variant", "attack", "honest \\|drift\\|",
                           "victim \\|drift\\|", "TA reqs",
                           "honest availability"});
  for (const Variant& variant : variants) {
    for (int attack = -1; attack <= 1; ++attack) {
      const Cell cell = run_cell(variant, attack,
                                 1000 + static_cast<std::uint64_t>(attack));
      bench::print_row({variant.name, attacks_names[attack + 1],
                        bench::fmt("%.1f ms", cell.honest_worst_ms),
                        bench::fmt("%.1f ms", cell.victim_worst_ms),
                        bench::fmt("%llu", static_cast<unsigned long long>(
                                               cell.ta_requests)),
                        bench::fmt("%.2f %%", cell.honest_avail * 100.0)});
    }
  }

  // ------------------------------------------------------------------
  // Second table: the long-window revision guard's trade-off (beyond
  // the paper — its future-work direction). A ramping delay biases the
  // long-window frequency estimate by ramp-rate ppm; the guard rate-
  // limits revisions, which also slows the honest repair of an F-
  // poisoned initial calibration.
  std::printf("\n--- long-window revision guard vs ramp / F- (15 min) ---\n");
  bench::print_table_head(
      {"guard", "attack", "worst F error", "final F error"});
  for (const double guard_ppm : {0.0, 1000.0}) {
    for (const int attack : {0 /*ramp*/, 1 /*F-*/}) {
      exp::ScenarioConfig cfg;
      cfg.seed = 4100;
      cfg.node_template = resilient::harden(cfg.node_template);
      cfg.node_template.long_window_max_revision_ppm = guard_ppm;
      cfg.policy_factory = [] {
        return resilient::make_triad_plus_policy();
      };
      exp::Scenario sc(std::move(cfg));

      std::unique_ptr<attacks::RampAttack> ramp;
      if (attack == 0) {
        attacks::RampAttackConfig rc;
        rc.victim = sc.node_address(2);
        rc.ta_address = sc.ta_address();
        ramp = std::make_unique<attacks::RampAttack>(rc);
        ramp->set_active(false);
        sc.network().add_middlebox(ramp.get());
        sc.simulation().schedule_at(minutes(2), [r = ramp.get()] {
          r->set_active(true);
        });
      } else {
        attacks::DelayAttackConfig a;
        a.kind = attacks::AttackKind::kFMinus;
        a.victim = sc.node_address(2);
        a.ta_address = sc.ta_address();
        sc.add_delay_attack(a);
      }

      sc.start();
      double worst_ppm = 0, final_ppm = 0;
      runtime::PeriodicTimer sampler(sc.env(), seconds(10), [&] {
        const double f = sc.node(2).calibrated_frequency_hz();
        if (f <= 0) return;
        final_ppm = std::abs(f - tsc::kPaperTscFrequencyHz) /
                    tsc::kPaperTscFrequencyHz * 1e6;
        worst_ppm = std::max(worst_ppm, final_ppm);
      });
      sc.run_until(minutes(15));
      if (ramp) sc.network().remove_middlebox(ramp.get());
      bench::print_row(
          {guard_ppm == 0 ? std::string("off")
                          : bench::fmt("%.0f ppm", guard_ppm),
           attack == 0 ? "ramp" : "F−",
           bench::fmt("%.0f ppm", worst_ppm),
           bench::fmt("%.0f ppm", final_ppm)});
    }
  }

  return 0;
}
