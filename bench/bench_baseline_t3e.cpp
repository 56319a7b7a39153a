// Baseline comparison (paper §II-A): Triad vs T3E under the attacks each
// design is exposed to.
//
// Rows:
//   no attack            — availability and drift of both designs
//   time-source delaying — Triad: F+/F- silently skew the clock;
//                          T3E: throughput collapses (detectable stall)
//   time-source rate     — Triad: INC monitor catches TSC scaling;
//   manipulation           T3E: ±32.5 % TPM drift is invisible
// This is the quantitative version of the paper's qualitative related-
// work comparison; absolute values are model-dependent, the asymmetry of
// failure *modes* is the result.
#include <cmath>
#include <cstdio>

#include "bench_common.h"
#include "exp/recorder.h"
#include "exp/scenario.h"
#include "runtime/sim_env.h"
#include "t3e/t3e_node.h"
#include "t3e/tpm.h"

namespace {

using namespace triad;

struct T3eOutcome {
  double availability = 0;
  double final_drift_ms = 0;
};

T3eOutcome run_t3e(double tpm_rate, Duration attacker_delay) {
  sim::Simulation sim(99);
  runtime::SimEnv env(sim);
  t3e::Tpm tpm(env, t3e::TpmParams{.rate = tpm_rate},
               sim.rng().fork("tpm"));
  if (attacker_delay > 0) {
    // The attack begins after a healthy warm-up second.
    sim.schedule_at(seconds(1), [&tpm, attacker_delay] {
      tpm.set_response_delay_hook(
          [attacker_delay] { return attacker_delay; });
    });
  }
  t3e::T3eNode node(env, tpm, t3e::T3eConfig{});
  node.start();

  int served = 0, total = 0;
  double last_drift_ms = 0;
  runtime::PeriodicTimer load(env, milliseconds(10), [&] {
    ++total;
    if (const auto ts = node.serve_timestamp()) {
      ++served;
      last_drift_ms = to_milliseconds(*ts - sim.now());
    }
  });
  sim.run_until(minutes(10));
  return {static_cast<double>(served) / total, last_drift_ms};
}

struct TriadOutcome {
  double availability = 0;
  double worst_drift_ms = 0;
  std::uint64_t detections = 0;
};

TriadOutcome run_triad(int attack /* -1 none, 0 F+, 1 F- */,
                       double tsc_scale) {
  exp::ScenarioConfig cfg;
  cfg.seed = 99;
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
  if (tsc_scale != 1.0) {
    sc.simulation().schedule_at(minutes(2), [&sc, tsc_scale] {
      sc.node(2).tsc().hv_set_scale(tsc_scale);
    });
  }
  sc.run_until(minutes(10));
  TriadOutcome out;
  out.availability = sc.node(2).availability();
  out.worst_drift_ms = std::max(std::abs(rec.drift_ms(2).max_value()),
                                std::abs(rec.drift_ms(2).min_value()));
  out.detections = sc.node(2).stats().inc_check_failures;
  return out;
}

}  // namespace

int main() {
  using namespace triad;
  bench::print_header(
      "Baseline — Triad vs T3E failure modes (10 min each)",
      "availability / drift of the attacked node; detections where "
      "applicable");

  // "detected": for Triad, whether the INC monitor flagged the victim;
  // for T3E, whether serving stalled (availability under half), the
  // only signal its design gives an operator.
  const auto triad_row = [](const char* scenario, const TriadOutcome& out) {
    bench::print_row({scenario, bench::fmt("%.2f %%", out.availability * 100),
                      bench::fmt("%.1f ms", out.worst_drift_ms),
                      out.detections > 0
                          ? bench::fmt("INC monitor (failed checks: %llu)",
                                       static_cast<unsigned long long>(
                                           out.detections))
                          : std::string("no")});
  };
  const auto t3e_row = [](const char* scenario, const T3eOutcome& out) {
    bench::print_row({scenario, bench::fmt("%.2f %%", out.availability * 100),
                      bench::fmt("%.1f ms", std::abs(out.final_drift_ms)),
                      out.availability < 0.5 ? "stall" : "no"});
  };

  bench::print_table_head(
      {"scenario", "availability", "\\|drift\\|", "detected"});
  triad_row("Triad, no attack", run_triad(-1, 1.0));
  t3e_row("T3E, no attack", run_t3e(1.0, 0));
  triad_row("Triad, F− delay attack", run_triad(1, 1.0));
  t3e_row("T3E, 300 ms response delaying", run_t3e(1.0, milliseconds(300)));
  t3e_row("T3E, responses blocked", run_t3e(1.0, hours(10)));
  triad_row("Triad, TSC scaled +1 % at t = 2 min", run_triad(-1, 1.01));
  t3e_row("T3E, TPM rate configured +32.5 %", run_t3e(1.325, 0));
  return 0;
}
