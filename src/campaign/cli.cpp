#include "campaign/cli.h"

#include <algorithm>
#include <functional>
#include <memory>
#include <ostream>
#include <span>
#include <utility>

#include "campaign/aggregate.h"
#include "campaign/runner.h"
#include "exp/axes.h"
#include "exp/recorder.h"
#include "exp/scenario.h"
#include "obs/export.h"
#include "util/log.h"
#include "util/parse.h"

namespace triad::campaign {
namespace {

/// A flag both tools take, naming the spec key it sets through
/// set_spec_value, as a spec-file line would. A flag with a `fixed`
/// value takes none from argv. --env is not here: it sets
/// triad_campaign's environments axis but one node's environment in
/// triad_sim.
struct SpecFlag {
  std::string_view flag;
  std::string_view key;
  std::string_view fixed;
};

constexpr SpecFlag kSpecFlags[] = {
    {"--seeds", "seeds", ""},         {"--attack", "attacks", ""},
    {"--policy", "policies", ""},     {"--nodes", "nodes", ""},
    {"--duration", "duration", ""},   {"--attack-delay", "attack_delay", ""},
    {"--victim", "victim", ""},
    {"--no-machine-interrupts", "machine_interrupts", "off"}};

/// The --help lines of kSpecFlags but --duration (its default differs),
/// and of --jobs.
constexpr std::string_view kSharedUsage =
    "  --seeds LIST       seed axis; items are N or A..B ranges,\n"
    "                     e.g. 1..32 or 1,2,7 (default 1); at most\n"
    "                     4096 seeds in all\n"
    "  --attack LIST      none | fplus | fminus (default none)\n"
    "  --policy LIST      original | triadplus (default original)\n"
    "  --nodes LIST       cluster sizes 1..256, e.g. 3 or 1,3,5,7\n"
    "                     (default 3)\n"
    "  --attack-delay D   injected delay (default 100ms)\n"
    "  --victim N         1-based attacked node; 0 = last (default 0)\n"
    "  --no-machine-interrupts   disable correlated residual interrupts\n"
    "  --jobs N           worker threads, 1..64 (default 1)\n";

/// A flag only one of the tools takes.
struct OwnFlag {
  std::string_view flag;
  bool takes_value = true;
};

/// Walks argv for either tool: --help, kSpecFlags, the output flags,
/// --jobs and --csv are taken here. Each of the tool's `own` flags goes
/// to take(flag, value), `value` empty for a flag that takes none, which
/// returns its refusal or "". Returns the first refusal, or "". The
/// caller validates the spec.
template <class Take>
std::string take_flags(int argc, const char* const* argv, bool per_run,
                       std::span<const OwnFlag> own, const Take& take,
                       SharedCliOptions* options) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      options->help = true;
      return {};
    }
    switch (obs::take_output_flag(argc, argv, &i, per_run,
                                  &options->outputs)) {
      case obs::FlagParse::kTaken:
        continue;
      case obs::FlagParse::kMissingValue:
        return "missing value for " + arg;
      case obs::FlagParse::kNotMine:
        break;
    }
    const auto named = [&arg](const auto& known) { return known.flag == arg; };
    const auto* spec_flag =
        std::find_if(std::begin(kSpecFlags), std::end(kSpecFlags), named);
    const auto own_flag = std::find_if(own.begin(), own.end(), named);
    const bool spec = spec_flag != std::end(kSpecFlags);
    const bool shared = arg == "--jobs" || arg == "--csv";
    if (!spec && !shared && own_flag == own.end()) {
      return "unknown flag " + arg;
    }
    std::string_view value = spec ? spec_flag->fixed : "";
    if (spec ? value.empty() : shared || own_flag->takes_value) {
      if (i + 1 >= argc) return "missing value for " + arg;
      value = argv[++i];
    }
    if (spec) {
      if (!set_spec_value(&options->spec, spec_flag->key, value, nullptr)) {
        return "bad " + arg + " '" + std::string(value) + "'";
      }
    } else if (arg == "--jobs") {
      if (!parse_jobs(value, &options->jobs)) return "bad --jobs (1..64)";
    } else if (arg == "--csv") {
      options->csv_path = std::string(value);
    } else if (std::string refusal = take(arg, value); !refusal.empty()) {
      return refusal;
    }
  }
  return {};
}

/// Every output the options request: the one-stdout rule and the
/// stream routing read this list.
std::vector<obs::NamedOutput> report_outputs(const SharedCliOptions& options) {
  std::vector<obs::NamedOutput> named = obs::named_outputs(options.outputs);
  named.push_back({"the JSON report", options.json_path});
  named.push_back({"--csv", options.csv_path});
  return named;
}

/// The checks both parsers end with: the spec, then the one-stdout rule.
std::string check_spec_and_outputs(const SharedCliOptions& options) {
  std::string refusal = options.spec.validate();
  return refusal.empty() ? obs::check_one_stdout(report_outputs(options))
                         : refusal;
}

// Runs options.spec on the worker pool, then writes the summary
// (`header` and the per-cell timing) and the requested reports and
// profiles. The part triad_campaign and triad_sim's sweep share.
int run_and_report(
    const SharedCliOptions& options, RunnerOptions runner_options,
    std::ostream& out, std::ostream& err,
    const std::function<void(std::ostream&, const CampaignResult&)>& header) {
  const obs::OutputRouter router(out, err, report_outputs(options));
  obs::ProfileSession profile(options.outputs);
  runner_options.jobs = options.jobs;
  const CampaignResult result =
      CampaignRunner(std::move(runner_options)).run(options.spec);
  // Workers have joined: the profiler is quiescent, safe to merge.
  profile.finish();
  const CampaignReport report =
      CampaignReport::aggregate(options.spec, result);
  header(router.summary(), result);
  // Wall/queue timing is real time: summary stream only, never in the
  // byte-stable reports.
  CampaignTiming::of(result).write_summary(router.summary());
  if (const int code = router.write(
          {{options.json_path, "json report",
            [&](std::ostream& os) { report.write_json(os); }},
           {options.csv_path, "csv report",
            [&](std::ostream& os) { report.write_csv(os); }},
           profile.table(), profile.chrome_trace()});
      code != 0) {
    return code;
  }
  return result.failures == 0 ? 0 : 1;
}

// The triad_sim flags the grid has no axis for, as every run's configure
// hook: per-node environments, machines, WAN delay, attestation, and the
// trace ring of --trace (which a sweep refuses at parse time).
RunOptions sim_run(const SimCliOptions& options) {
  RunOptions run;
  run.configure = [&options](const RunSpec&, exp::ScenarioConfig& cfg) {
    cfg.environments.clear();
    for (const std::string& env : options.environments) {
      cfg.environments.push_back(exp::kEnvironments.at(env));
    }
    cfg.machine_of = options.machines;
    cfg.wan_base_delay = options.wan_delay;
    cfg.wan_jitter = std::max<Duration>(options.wan_delay / 10, 1);
    cfg.attested_keys = options.attested;
    if (options.outputs.trace) cfg.trace_capacity = kRunTraceCapacity;
  };
  return run;
}

// triad_sim's single run: its one RunSpec, built and run once.
int run_one(const SimCliOptions& options, std::ostream& out,
            std::ostream& err) {
  const RunSpec run = options.spec.expand().front();
  const obs::OutputRouter router(out, err, report_outputs(options));
  std::ostream& summary = router.summary();
  obs::ProfileSession profile(options.outputs);

  const std::unique_ptr<exp::Scenario> scenario_ptr =
      build_scenario(run, sim_run(options));
  exp::Scenario& scenario = *scenario_ptr;
  // Log lines carry the same virtual-time tag the trace events do.
  const ScopedLogTime log_time([env = scenario.env()] { return env.now(); });

  exp::Recorder recorder(scenario);
  scenario.start();
  scenario.run_until(run.duration);

  profile.finish(scenario.metrics());

  summary << "scenario: nodes=" << run.nodes << " seed=" << run.seed
          << " duration=" << to_seconds(run.duration) << "s attack="
          << run.attack << " policy=" << run.policy << "\n";
  for (std::size_t i = 0; i < scenario.node_count(); ++i) {
    TriadNode& node = scenario.node(i);
    const stats::TimeSeries& drift = recorder.drift_ms(i);
    summary << "node " << (i + 1) << ": state=" << to_string(node.state())
            << " F_calib=" << node.calibrated_frequency_hz() / 1e6
            << "MHz availability=" << node.availability() * 100.0
            << "% aex=" << node.stats().aex_count
            << " ta_refs=" << node.stats().ta_time_references
            << " drift_ms=[";
    if (drift.empty()) {
      summary << "n/a]\n";
    } else {
      summary << drift.min_value() << ".." << drift.max_value() << "]\n";
    }
  }
  summary << "ta requests served: "
          << scenario.time_authority().stats().requests_served << "\n";
  summary << "adoption events: " << recorder.adoptions().size() << "\n";
  if (scenario.trace() != nullptr) {
    summary << "trace events: " << scenario.trace()->total() << " (dropped "
            << scenario.trace()->dropped() << ")\n";
  }
  // build_scenario always runs the detectors.
  const obs::DetectorBank& bank = *scenario.detectors();
  summary << "detector alarms: " << bank.alarms().size();
  if (!bank.alarms().empty()) {
    summary << " (first at " << to_seconds(bank.first_alarm_at()) << "s)";
  }
  summary << "\n";

  return router.write(
      {{options.csv_path, "series",
        [&](std::ostream& os) { recorder.series().write_csv(os); }},
       {options.outputs.metrics, "metrics",
        [&](std::ostream& os) { scenario.metrics()->write_prometheus(os); }},
       {options.outputs.trace, "trace",
        [&](std::ostream& os) { obs::write_jsonl(*scenario.trace(), os); }},
       profile.table(), profile.chrome_trace()});
}

}  // namespace

std::string campaign_cli_usage() {
  return "triad_campaign — run a grid of Triad scenarios and aggregate them\n"
         "  --spec FILE        key=value spec file (see below); flags given\n"
         "                     after --spec override its values\n" +
         std::string(kSharedUsage) +
         "  --env LIST         cluster-wide AEX env: triad | low | none\n"
         "                     (default triad)\n"
         "  --duration D       virtual time per run (default 2m)\n"
         "  --json PATH        aggregate JSON report (default '-' when\n"
         "                     --csv is not given)\n"
         "  --csv PATH         aggregate CSV report\n"
         "  --metrics-dir DIR  per-run Prometheus dumps (run_<i>.prom) plus\n"
         "                     an index.json grid manifest\n" +
         obs::output_flags_usage(/*per_run=*/false) +
         "  --verbose          per-run progress on stderr\n"
         "  --help             this text\n"
         "\n"
         "Spec file keys: seeds, attacks, policies, environments, nodes,\n"
         "duration, attack_delay, victim, machine_interrupts (on|off).\n"
         "Example:\n"
         "  seeds = 1..32\n"
         "  attacks = none, fminus\n"
         "  duration = 5m\n";
}

std::optional<CampaignCliOptions> parse_campaign_cli(int argc,
                                                     const char* const* argv,
                                                     std::string* error) {
  CampaignCliOptions options;
  static constexpr OwnFlag kOwn[] = {
      {"--verbose", false}, {"--env"}, {"--spec"}, {"--json"},
      {"--metrics-dir"}};
  std::string refusal = take_flags(
      argc, argv, /*per_run=*/false, kOwn,
      [&options](std::string_view flag, std::string_view value) -> std::string {
        if (flag == "--verbose") {
          options.verbose = true;
        } else if (flag == "--env") {
          // The environments axis: validate checks the names.
          set_spec_value(&options.spec, "environments", value, nullptr);
        } else if (flag == "--spec") {
          std::string spec_error;
          // Scalars already set by earlier flags are overwritten by the
          // file — documented: put --spec first, overrides after.
          auto spec = parse_spec_file(std::string(value), &spec_error);
          if (!spec) return spec_error;
          options.spec = std::move(*spec);
        } else if (flag == "--json") {
          options.json_path = std::string(value);
        } else {
          options.metrics_dir = std::string(value);
        }
        return {};
      },
      &options);
  if (options.help) return options;
  if (!options.json_path && !options.csv_path) options.json_path = "-";
  if (refusal.empty()) refusal = check_spec_and_outputs(options);
  if (refusal.empty()) return options;
  if (error != nullptr) *error = std::move(refusal);
  return std::nullopt;
}

int run_campaign_cli(const CampaignCliOptions& options, std::ostream& out,
                     std::ostream& err) {
  if (options.help) {
    out << campaign_cli_usage();
    return 0;
  }
  const std::size_t total = options.spec.run_count();
  RunnerOptions runner_options;
  runner_options.run.metrics_dir = options.metrics_dir;
  std::size_t done = 0;
  if (options.verbose) {
    runner_options.on_complete = [&err, &done, total](const RunResult& run) {
      err << "[" << ++done << "/" << total << "] run " << run.index
          << " seed=" << run.seed
          << (run.failed ? " FAILED: " + run.error : " ok") << " ("
          << run.wall_ms << " ms)\n";
    };
  }
  return run_and_report(
      options, std::move(runner_options), out, err,
      [&options](std::ostream& summary, const CampaignResult& result) {
        summary << "campaign: cells=" << options.spec.cell_count()
                << " runs=" << result.runs.size()
                << " failures=" << result.failures
                << " jobs=" << options.jobs
                << " wall=" << result.wall_ms / 1000.0 << "s\n";
      });
}

std::string sim_cli_usage() {
  return "triad_sim — run a Triad trusted-time scenario\n"
         "  --seed N           RNG seed (default 1); excludes --seeds\n" +
         std::string(kSharedUsage) +
         "  --duration D       virtual time, e.g. 30m, 8h, 90s (default 10m)\n"
         "  --env E            per-node AEX env: triad | low | none\n"
         "                     (repeat per node; missing default to triad)\n"
         "  --machine M        machine index 0..N (N = --nodes) for the next\n"
         "                     node (repeat per node; geo-distributed\n"
         "                     deployments)\n"
         "  --wan-delay D      one-way delay between machines (default 20ms)\n"
         "  --attested         derive channel keys from X25519 attestation\n"
         "                     handshakes instead of a provisioned secret\n"
         "  --csv PATH         dump recorded series as CSV (a sweep: the\n"
         "                     aggregate CSV report, replacing the JSON\n"
         "                     report on stdout when PATH is '-')\n" +
         obs::output_flags_usage(/*per_run=*/true) +
         "  --help             this text\n"
         "\n"
         "triad_sim runs one cell: --attack, --policy and --nodes take one\n"
         "value each (sweep them with triad_campaign). More than one seed\n"
         "runs one scenario per seed on --jobs workers and prints the\n"
         "aggregate report.\n";
}

std::optional<SimCliOptions> parse_sim_cli(int argc, const char* const* argv,
                                           std::string* error) {
  SimCliOptions options;
  options.spec.duration = minutes(10);
  // Empty until --seeds fills it, so --seed can tell that it was given.
  options.spec.seeds.clear();
  std::optional<std::uint64_t> seed;
  static constexpr OwnFlag kOwn[] = {{"--attested", false}, {"--seed"},
                                     {"--env"}, {"--machine"},
                                     {"--wan-delay"}};
  std::string refusal = take_flags(
      argc, argv, /*per_run=*/true, kOwn,
      [&](std::string_view flag, std::string_view value) -> std::string {
        std::uint64_t n = 0;
        if (flag == "--attested") {
          options.attested = true;
        } else if (flag == "--seed") {
          if (!parse_u64(value, &n)) return "bad --seed";
          seed = n;
        } else if (flag == "--env") {
          if (!exp::kEnvironments.find(value)) {
            return exp::kEnvironments.bad(value);
          }
          options.environments.emplace_back(value);
        } else if (flag == "--machine") {
          if (!parse_u64(value, &n)) return "bad --machine";
          options.machines.push_back(n);
        } else if (!parse_duration(value, &options.wan_delay) ||
                   options.wan_delay <= 0) {
          return "bad --wan-delay";
        }
        return {};
      },
      &options);
  // The checks of a run that must be one cell, after the flags.
  const auto check_cell = [&]() -> std::string {
    if (seed && !options.spec.seeds.empty()) {
      return "--seed and --seeds are mutually exclusive: use --seed N for "
             "one run or --seeds LIST for a sweep";
    }
    if (options.spec.seeds.empty()) options.spec.seeds = {seed.value_or(1)};
    if (options.spec.cell_count() > 1) {
      return "triad_sim runs one cell: give --attack, --policy and --nodes "
             "one value each, or sweep them with triad_campaign";
    }
    const bool sweep = options.spec.run_count() > 1;
    if (sweep && (options.outputs.metrics || options.outputs.trace)) {
      return "--metrics/--trace are per-run outputs; for sweeps use "
             "triad_campaign --metrics-dir";
    }
    const std::size_t nodes = options.spec.node_counts.front();
    if (options.environments.size() > nodes) {
      return "more --env entries than nodes";
    }
    if (options.machines.size() > nodes) {
      return "more --machine entries than nodes";
    }
    // One machine per node plus the TA's machine 0 covers every
    // placement; Scenario builds one interrupt hub per machine index.
    for (const std::size_t machine : options.machines) {
      if (machine > nodes) return "--machine exceeds --nodes";
    }
    if (sweep && options.csv_path != "-") options.json_path = "-";
    return check_spec_and_outputs(options);
  };
  if (options.help) return options;
  if (refusal.empty()) refusal = check_cell();
  if (refusal.empty()) return options;
  if (error != nullptr) *error = std::move(refusal);
  return std::nullopt;
}

int run_sim_cli(const SimCliOptions& options, std::ostream& out,
                std::ostream& err) {
  if (options.help) {
    out << sim_cli_usage();
    return 0;
  }
  if (options.spec.run_count() == 1) return run_one(options, out, err);
  // A sweep: one run per seed, with every other triad_sim flag applied
  // to each. --csv selects the aggregate CSV report: a sweep has no
  // single recorded series.
  RunnerOptions runner_options;
  runner_options.run = sim_run(options);
  const CampaignSpec& spec = options.spec;
  return run_and_report(
      options, std::move(runner_options), out, err,
      [&](std::ostream& summary, const CampaignResult& result) {
        summary << "sweep: seeds=" << spec.seeds.front() << ".."
                << spec.seeds.back() << " runs=" << result.runs.size()
                << " failures=" << result.failures
                << " jobs=" << options.jobs
                << " attack=" << spec.attacks.front()
                << " policy=" << spec.policies.front()
                << " wall=" << result.wall_ms / 1000.0 << "s\n";
      });
}

}  // namespace triad::campaign
