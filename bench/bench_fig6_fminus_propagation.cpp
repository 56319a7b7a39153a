// Figure 6 (§IV-B2): F- attack on Node 3 — the headline result.
//
// The attacker adds 100 ms to the TA's immediate (0 s-sleep) responses,
// flattening Node 3's regression: F3_calib ≈ 2610 MHz, so its clock runs
// ~+113 ms/s fast. Nodes 1 and 2 start in the low-AEX environment (drift
// stays ppm-level), then switch to Triad-like AEXs at t = 104 s (dashed
// red line in the paper): from then on they ask peers after every AEX,
// receive Node 3's timestamps — larger than their own — and jump forward.
// The infection then self-propagates between the honest nodes.
//   (a) clock drift per node; (b) cumulative AEX count per node.
//
// The scenario grid (paper seed 6 plus three replicates) runs through
// the campaign engine: the per-node environment split, the t = 104 s
// switch, and the pre-switch machine-interrupt kick are installed via
// the configure/customize hooks, and the first-jump magnitude is pulled
// out per run via the inspect hook. Seed 6 reproduces the figure; the
// replicates show the infection is not a seed artefact.
#include <cstdio>
#include <mutex>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "campaign/runner.h"
#include "exp/recorder.h"
#include "exp/scenario.h"

namespace {

constexpr triad::SimTime kSwitch = triad::seconds(104);
constexpr std::uint64_t kPaperSeed = 6;

// Series and scalars copied out of the seed-6 run for the figure.
struct FigureCapture {
  std::vector<triad::stats::TimeSeries> drift;
  std::vector<triad::stats::TimeSeries> aex;
  double victim_freq_hz = 0.0;
  double honest_drift_at_switch_ms = 0.0;
  double peak_drift_node1_ms = 0.0;
  double peak_drift_node2_ms = 0.0;
  double aex_at_switch = 0.0;
  double aex_at_end = 0.0;
};

}  // namespace

int main() {
  using namespace triad;
  bench::print_header(
      "Figure 6 — F- attack on Node 3: propagation to honest nodes",
      "+100 ms on 0 s-sleep TA replies; honest nodes switch from low-AEX "
      "to Triad-like at t = 104 s; grid executed by the campaign engine");

  campaign::CampaignSpec spec;
  spec.seeds = {kPaperSeed, 16, 26, 36};
  spec.attacks = {"fminus"};
  spec.environments = {"low"};  // overridden per node below
  spec.node_counts = {3};
  spec.victim = 3;
  spec.duration = seconds(420);

  std::mutex capture_mutex;
  FigureCapture figure;

  campaign::RunnerOptions options;
  options.jobs = std::max(1u, std::thread::hardware_concurrency());
  options.run.sample_period = milliseconds(500);
  options.run.configure = [](const campaign::RunSpec&,
                             exp::ScenarioConfig& cfg) {
    cfg.environments = {exp::AexEnvironment::kLowAex,
                        exp::AexEnvironment::kLowAex,
                        exp::AexEnvironment::kTriadLike};
  };
  options.run.customize = [](const campaign::RunSpec&, exp::Scenario& sc) {
    sc.switch_environment_at(0, exp::AexEnvironment::kTriadLike, kSwitch);
    sc.switch_environment_at(1, exp::AexEnvironment::kTriadLike, kSwitch);
    // A machine-wide residual interrupt shortly before the switch (as
    // the paper's timeline implies): all nodes taint together and
    // re-reference with the TA, so the victim's drift is small when the
    // infection window opens — that is what makes the paper's first
    // jump ~35 ms rather than the victim's full accumulated drift.
    sc.simulation().schedule_at(kSwitch - milliseconds(600), [&sc] {
      for (std::size_t i = 0; i < sc.node_count(); ++i) {
        sc.node(i).monitoring_thread().deliver_aex();
      }
    });
  };
  options.run.inspect = [&capture_mutex, &figure](
                            const campaign::RunSpec& run, exp::Scenario& sc,
                            const exp::Recorder& rec,
                            campaign::RunResult& result) {
    // First infection step: the first forward adoption by an honest
    // node sourced from the compromised node after the switch.
    double first_jump_ms = 0.0;
    double first_jump_at_s = 0.0;
    for (const auto& ev : rec.adoptions()) {
      if (ev.at >= kSwitch && ev.node != 2 &&
          ev.source == sc.node_address(2) && ev.step() > 0) {
        first_jump_ms = to_milliseconds(ev.step());
        first_jump_at_s = to_seconds(ev.at);
        break;
      }
    }
    result.extra.emplace_back("first_jump_ms", first_jump_ms);
    result.extra.emplace_back("first_jump_at_s", first_jump_at_s);
    if (run.seed != kPaperSeed) return;
    const std::lock_guard<std::mutex> lock(capture_mutex);
    for (std::size_t i = 0; i < 3; ++i) {
      figure.drift.push_back(rec.drift_ms(i));
      figure.aex.push_back(rec.aex_count(i));
    }
    figure.victim_freq_hz = sc.node(2).calibrated_frequency_hz();
    figure.honest_drift_at_switch_ms = rec.drift_ms(0).value_at(kSwitch);
    figure.peak_drift_node1_ms = rec.drift_ms(0).max_value();
    figure.peak_drift_node2_ms = rec.drift_ms(1).max_value();
    figure.aex_at_switch = rec.aex_count(0).value_at(kSwitch);
    figure.aex_at_end = rec.aex_count(0).value_at(seconds(420));
  };

  campaign::CampaignRunner runner(options);
  const campaign::CampaignResult result = runner.run(spec);
  if (result.failures != 0 || figure.drift.size() != 3) {
    std::fprintf(stderr, "fig6 campaign failed (%zu failures)\n",
                 result.failures);
    return 1;
  }

  for (std::size_t i = 0; i < 3; ++i) {
    std::printf("\n--- Figure 6a: node %zu clock drift (ms) ---\n", i + 1);
    bench::print_series(figure.drift[i], 120);
  }
  for (std::size_t i = 0; i < 3; ++i) {
    std::printf("\n--- Figure 6b: node %zu cumulative AEX count ---\n",
                i + 1);
    bench::print_series(figure.aex[i], 60);
  }

  // The figure numbers come from the paper's seed; the replicate seeds
  // bound how seed-dependent the infection is.
  const campaign::RunResult& paper_run = result.runs.front();
  double paper_first_jump_ms = 0.0;
  double paper_first_jump_at_s = 0.0;
  for (const auto& [key, value] : paper_run.extra) {
    if (key == "first_jump_ms") paper_first_jump_ms = value;
    if (key == "first_jump_at_s") paper_first_jump_at_s = value;
  }

  std::printf("\n");
  bench::print_table_head({"Metric", "Paper", "Measured"});
  bench::print_row({"F3_calib", "2609.951 MHz",
                    bench::fmt("%.3f MHz", figure.victim_freq_hz / 1e6)});
  bench::print_row(
      {"victim clock speed", "+113 ms/s",
       bench::fmt("%+.0f ms/s",
                  (tsc::kPaperTscFrequencyHz / figure.victim_freq_hz - 1.0) *
                      1000.0)});
  bench::print_row({"honest drift at the switch (t = 104 s)", "ppm-level",
                    bench::fmt("%.1f ms", figure.honest_drift_at_switch_ms)});
  bench::print_row({"first forward jump onto victim's clock",
                    "~+35 ms at t = 104 s",
                    bench::fmt("%+.1f ms at t = %.1f s", paper_first_jump_ms,
                               paper_first_jump_at_s)});
  bench::print_row({"honest peak drift after switch (nodes 1 / 2)",
                    "ratchets upward, unbounded",
                    bench::fmt("%+.0f / %+.0f ms by t = 420 s",
                               figure.peak_drift_node1_ms,
                               figure.peak_drift_node2_ms)});
  bench::print_row({"node 1 AEX count at switch → end (Fig. 6b)",
                    "~0 then linear",
                    bench::fmt("%.0f → %.0f", figure.aex_at_switch,
                               figure.aex_at_end)});
  bench::print_row(
      {"online detector alarm vs first jump", "— (not in the paper)",
       bench::fmt("alarm at t = %.1f s, %+.1f s before the jump",
                  paper_run.detector_first_alarm_s,
                  paper_first_jump_at_s - paper_run.detector_first_alarm_s)});

  // The replicate seeds bound how seed-dependent the infection is.
  std::printf("\n");
  bench::print_table_head({"seed", "first jump", "first jump at",
                           "honest peak \\|drift\\|", "first alarm at"});
  for (const campaign::RunResult& run : result.runs) {
    double jump = 0.0;
    double at = 0.0;
    for (const auto& [key, value] : run.extra) {
      if (key == "first_jump_ms") jump = value;
      if (key == "first_jump_at_s") at = value;
    }
    bench::print_row({bench::fmt("%llu",
                                 static_cast<unsigned long long>(run.seed)),
                      bench::fmt("%+.1f ms", jump), bench::fmt("%.1f s", at),
                      bench::fmt("%.0f ms", run.honest_max_abs_drift_ms),
                      bench::fmt("%.1f s", run.detector_first_alarm_s)});
  }
  return 0;
}
