// Campaign execution: a fixed-size worker pool running one simulation
// per grid point.
//
// Each run is hermetic: the worker constructs a private exp::Scenario
// (its own SimEnv, obs::Registry, trace ring, and root Rng) from the
// RunSpec, runs it to the configured virtual duration, and reduces the
// recorded series into a RunResult of deterministic scalars. Simulations
// are single-threaded and share no mutable state, so the sweep is
// embarrassingly parallel; results land in a slot indexed by
// RunSpec::index, which makes the result vector — and everything the
// Aggregator derives from it — independent of worker count and
// completion order.
//
// Determinism rules (also see DESIGN.md §2.3):
//   * one obs::Registry and one root Rng per run, never shared;
//   * workers must not touch process-global state (in particular no
//     ScopedLogTime — the Logger's time source is process-wide);
//   * RunResult carries virtual-time-derived values only, except
//     wall_ms, which is real time and excluded from aggregate reports.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "campaign/spec.h"

namespace triad::exp {
class Scenario;
class Recorder;
struct ScenarioConfig;
}  // namespace triad::exp

namespace triad::campaign {

/// Deterministic scalar summary of one run (the Aggregator's input).
struct RunResult {
  std::size_t index = 0;
  std::size_t cell = 0;
  std::uint64_t seed = 0;
  bool failed = false;
  std::string error;  // non-empty iff failed

  /// Mean availability over all nodes, in [0, 1].
  double availability = 0.0;
  /// Max |drift| (ms) any honest node shows at any sample. Honest =
  /// every node except the victim when an attack is active, else all.
  double honest_max_abs_drift_ms = 0.0;
  /// Largest forward clock jump (ms) an honest node takes from a *peer*
  /// (TA adoptions are ground truth and excluded) — the F- infection
  /// magnitude of Fig. 6.
  double honest_max_jump_ms = 0.0;
  /// Victim-node drift (ms) at the last sample.
  double victim_final_drift_ms = 0.0;
  /// Victim's calibrated TSC frequency (MHz); ~2610 under the paper F-.
  double victim_freq_mhz = 0.0;
  /// Share of peer untaint rounds that avoided a TA fallback, in [0, 1].
  double peer_untaint_rate = 0.0;
  double adoptions = 0.0;
  double ta_requests = 0.0;
  double aex_total = 0.0;
  double events_executed = 0.0;

  /// Online detector verdicts (obs/detect.h; detectors run in every
  /// campaign scenario). Alarm count, virtual time of the first alarm
  /// (-1 when none fired), and false positives — alarms implicating a
  /// node other than the victim, or any alarm in an attack-free run.
  double detector_alarms = 0.0;
  double detector_first_alarm_s = -1.0;
  double detector_false_alarms = 0.0;

  /// Named bench-specific values captured by RunOptions::inspect;
  /// aggregated per key (sorted) alongside the built-in metrics.
  std::vector<std::pair<std::string, double>> extra;

  /// Real execution time. Never part of the aggregate report (it would
  /// break byte-identical output across job counts).
  double wall_ms = 0.0;
  /// Real time this run waited from campaign start until a worker
  /// picked it up. Same rule as wall_ms: summary display only.
  double queue_ms = 0.0;
};

/// Hooks and knobs for executing one RunSpec.
struct RunOptions {
  /// Recorder sampling period inside each run.
  Duration sample_period = seconds(1);
  /// Mutates the derived ScenarioConfig before the Scenario is built
  /// (e.g. per-node environments, WAN placement, attested keys).
  std::function<void(const RunSpec&, exp::ScenarioConfig&)> configure;
  /// Runs after construction, before start(): install extra attacks,
  /// environment switches, scheduled events.
  std::function<void(const RunSpec&, exp::Scenario&)> customize;
  /// Runs after the simulation finished, before teardown: read series /
  /// nodes and record bench-specific numbers into RunResult::extra.
  /// Called from worker threads — synchronize any captured state.
  std::function<void(const RunSpec&, exp::Scenario&, const exp::Recorder&,
                     RunResult&)>
      inspect;
  /// When non-empty, each run dumps its final metrics registry as
  /// Prometheus text to <metrics_dir>/run_<index>.prom and its protocol
  /// trace as JSON Lines to <metrics_dir>/run_<index>.jsonl (readable by
  /// the triad_trace forensic CLI).
  std::string metrics_dir;
};

/// Ring capacity of a run's trace (the dumps above, triad_sim --trace).
inline constexpr std::size_t kRunTraceCapacity = std::size_t{1} << 18;

/// The one place a RunSpec becomes a scenario: maps the axis names
/// through exp/axes.h (std::invalid_argument on an unknown one), derives
/// the ScenarioConfig, calls options.configure, constructs the Scenario,
/// installs the delay attack, then calls options.customize.
std::unique_ptr<exp::Scenario> build_scenario(const RunSpec& spec,
                                              const RunOptions& options);

/// Builds, runs, and reduces one scenario. Throws on invalid specs or
/// scenario failures; CampaignRunner turns throws into failed results.
RunResult execute_run(const RunSpec& spec, const RunOptions& options = {});

struct RunnerOptions {
  /// Worker threads (>= 1). jobs == 1 runs inline on the caller thread.
  std::size_t jobs = 1;
  RunOptions run;
  /// Replaces execute_run (tests: fault injection, stub runs).
  std::function<RunResult(const RunSpec&)> run_fn;
  /// Progress callback, invoked serially (under an internal mutex) as
  /// runs finish — completion order, not grid order.
  std::function<void(const RunResult&)> on_complete;
};

struct CampaignResult {
  std::vector<RunResult> runs;  // ordered by RunSpec::index
  std::size_t failures = 0;
  double wall_ms = 0.0;  // whole-campaign real time
};

class CampaignRunner {
 public:
  explicit CampaignRunner(RunnerOptions options = {});

  /// Expands and executes the whole spec. Requires validate().empty().
  CampaignResult run(const CampaignSpec& spec);
  /// Executes an explicit run list (entries keep their index/cell).
  CampaignResult run(const std::vector<RunSpec>& runs);

 private:
  /// Writes <metrics_dir>/index.json: every run's grid coordinates and
  /// which per-run artifacts (run_<i>.prom / .jsonl) exist, in grid
  /// order, so forensic tooling can locate a cell without re-deriving
  /// the grid. Skipped when run_fn substitutes execute_run (stub runs
  /// dump no artifacts).
  void write_metrics_index(const std::vector<RunSpec>& runs,
                           const CampaignResult& result) const;

  RunnerOptions options_;
};

}  // namespace triad::campaign
