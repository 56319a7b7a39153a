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

  std::printf("%-34s %14s %16s %12s\n", "scenario", "availability",
              "|drift| (ms)", "detected");

  const TriadOutcome triad_clean = run_triad(-1, 1.0);
  std::printf("%-34s %13.2f%% %16.1f %12s\n", "Triad, no attack",
              triad_clean.availability * 100, triad_clean.worst_drift_ms,
              "-");
  const T3eOutcome t3e_clean = run_t3e(1.0, 0);
  std::printf("%-34s %13.2f%% %16.1f %12s\n", "T3E, no attack",
              t3e_clean.availability * 100,
              std::abs(t3e_clean.final_drift_ms), "-");

  const TriadOutcome triad_fminus = run_triad(1, 1.0);
  std::printf("%-34s %13.2f%% %16.1f %12s\n",
              "Triad, F- delay attack",
              triad_fminus.availability * 100, triad_fminus.worst_drift_ms,
              "NO (silent)");
  const T3eOutcome t3e_delay = run_t3e(1.0, milliseconds(300));
  std::printf("%-34s %13.2f%% %16.1f %12s\n",
              "T3E, 300 ms response delaying", t3e_delay.availability * 100,
              std::abs(t3e_delay.final_drift_ms), "bounded lag");
  const T3eOutcome t3e_block = run_t3e(1.0, hours(10));
  std::printf("%-34s %13.2f%% %16.1f %12s\n",
              "T3E, responses blocked", t3e_block.availability * 100,
              std::abs(t3e_block.final_drift_ms), "stall (loud)");

  const TriadOutcome triad_scale = run_triad(-1, 1.01);
  std::printf("%-34s %13.2f%% %16.1f %12s\n",
              "Triad, TSC scaled +1% at t=2min",
              triad_scale.availability * 100, triad_scale.worst_drift_ms,
              triad_scale.detections > 0 ? "INC monitor" : "NO");
  const T3eOutcome t3e_rate = run_t3e(1.325, 0);
  std::printf("%-34s %13.2f%% %16.1f %12s\n",
              "T3E, TPM rate configured +32.5%",
              t3e_rate.availability * 100, std::abs(t3e_rate.final_drift_ms),
              "NO (silent)");

  std::printf("\n");
  bench::print_summary_row(
      "Triad under delay attacks", "silent clock skew (paper Figs. 4-6)",
      "drift grows, availability intact");
  bench::print_summary_row(
      "T3E under delay attacks", "throughput drop, detectable (II-A)",
      "availability collapses, drift stays bounded");
  bench::print_summary_row(
      "rate manipulation", "Triad INC monitor catches TSC scaling; "
      "T3E blind to TPM config (±32.5%)",
      "as expected on both sides");
  return 0;
}
