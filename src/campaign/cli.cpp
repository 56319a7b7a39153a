#include "campaign/cli.h"

#include <algorithm>
#include <functional>
#include <memory>
#include <ostream>
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

/// The flags that take a value; each grid flag names the spec key it
/// sets through set_spec_value, as a spec-file line would.
constexpr std::pair<std::string_view, std::string_view> kValueFlags[] = {
    {"--seeds", "seeds"},       {"--attack", "attacks"},
    {"--policy", "policies"},   {"--env", "environments"},
    {"--nodes", "nodes"},       {"--duration", "duration"},
    {"--attack-delay", "attack_delay"}, {"--victim", "victim"},
    {"--spec", ""},             {"--jobs", ""},
    {"--json", ""},             {"--csv", ""},
    {"--metrics-dir", ""}};

std::vector<obs::NamedOutput> campaign_outputs(
    const CampaignCliOptions& options) {
  std::vector<obs::NamedOutput> outputs = obs::named_outputs(options.outputs);
  outputs.push_back({"the JSON report", options.json_path});
  outputs.push_back({"--csv", options.csv_path});
  return outputs;
}

// Runs `spec` on the worker pool, then writes the summary (`header` and
// the per-cell timing) and the requested reports and profiles. The part
// triad_campaign and triad_sim's sweep mode share.
int run_and_report(
    const CampaignSpec& spec, RunnerOptions runner_options,
    const obs::OutputRouter& router, const obs::ObsOutputs& outputs,
    const obs::OutputPath& json_path, const obs::OutputPath& csv_path,
    const std::function<void(std::ostream&, const CampaignResult&)>& header) {
  obs::ProfileSession profile(outputs);
  const CampaignResult result =
      CampaignRunner(std::move(runner_options)).run(spec);
  // Workers have joined: the profiler is quiescent, safe to merge.
  profile.finish();
  const CampaignReport report = CampaignReport::aggregate(spec, result);
  header(router.summary(), result);
  // Wall/queue timing is real time: summary stream only, never in the
  // byte-stable reports.
  CampaignTiming::of(result).write_summary(router.summary());
  if (const int code = router.write(
          {{json_path, "json report",
            [&](std::ostream& os) { report.write_json(os); }},
           {csv_path, "csv report",
            [&](std::ostream& os) { report.write_csv(os); }},
           profile.table(), profile.chrome_trace()});
      code != 0) {
    return code;
  }
  return result.failures == 0 ? 0 : 1;
}

// triad_sim's flags as a campaign grid: a single run is its one-seed
// grid (sweep_seeds gives {seed}), a sweep one cell of several seeds.
CampaignSpec sim_spec(const exp::CliOptions& options) {
  return {.seeds = exp::sweep_seeds(options),
          .attacks = {options.attack},
          .policies = {options.policy},
          .node_counts = {options.nodes},
          .duration = options.duration,
          .attack_delay = options.attack_delay,
          .victim = options.victim,
          .machine_interrupts = options.machine_interrupts};
}

// The triad_sim flags the grid has no axis for, as every run's configure
// hook: per-node environments, machines, WAN delay, attestation, and the
// trace ring of --trace (which a sweep refuses at parse time).
RunOptions sim_run(const exp::CliOptions& options) {
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

}  // namespace

std::string campaign_cli_usage() {
  return std::string(
      "triad_campaign — run a grid of Triad scenarios and aggregate them\n"
      "  --spec FILE        key=value spec file (see below); flags given\n"
      "                     after --spec override its values\n"
      "  --seeds LIST       seed axis; items are N or A..B ranges,\n"
      "                     e.g. 1..32 or 1,2,7 (default 1); at most\n"
      "                     4096 seeds in all\n"
      "  --attack LIST      none | fplus | fminus (default none)\n"
      "  --policy LIST      original | triadplus (default original)\n"
      "  --env LIST         cluster-wide AEX env: triad | low | none\n"
      "                     (default triad)\n"
      "  --nodes LIST       cluster sizes, e.g. 3 or 1,3,5,7 (default 3)\n"
      "  --duration D       virtual time per run (default 2m)\n"
      "  --attack-delay D   injected delay (default 100ms)\n"
      "  --victim N         1-based attacked node; 0 = last (default 0)\n"
      "  --no-machine-interrupts   disable correlated residual interrupts\n"
      "  --jobs N           worker threads, 1..64 (default 1)\n"
      "  --json PATH        aggregate JSON report (default '-' when\n"
      "                     --csv is not given)\n"
      "  --csv PATH         aggregate CSV report\n"
      "  --metrics-dir DIR  per-run Prometheus dumps (run_<i>.prom) plus\n"
      "                     an index.json grid manifest\n") +
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
  auto fail = [error](std::string message) -> std::optional<CampaignCliOptions> {
    if (error != nullptr) *error = std::move(message);
    return std::nullopt;
  };

  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      options.help = true;
      return options;
    }
    if (arg == "--no-machine-interrupts") {
      options.spec.machine_interrupts = false;
      continue;
    }
    if (arg == "--verbose") {
      options.verbose = true;
      continue;
    }
    switch (obs::take_output_flag(argc, argv, &i, /*per_run=*/false,
                                  &options.outputs)) {
      case obs::FlagParse::kTaken:
        continue;
      case obs::FlagParse::kMissingValue:
        return fail("missing value for " + std::string(arg));
      case obs::FlagParse::kNotMine:
        break;
    }
    const auto* flag =
        std::find_if(std::begin(kValueFlags), std::end(kValueFlags),
                     [arg](const auto& known) { return known.first == arg; });
    if (flag == std::end(kValueFlags)) {
      return fail("unknown flag " + std::string(arg));
    }
    if (i + 1 >= argc) return fail("missing value for " + std::string(arg));
    const std::string_view v = argv[++i];

    if (!flag->second.empty()) {
      if (!set_spec_value(&options.spec, flag->second, v, nullptr)) {
        return fail("bad " + std::string(arg) + " '" + std::string(v) + "'");
      }
    } else if (arg == "--spec") {
      std::string spec_error;
      // Scalars already set by earlier flags are overwritten by the
      // file — documented: put --spec first, overrides after.
      auto spec = parse_spec_file(std::string(v), &spec_error);
      if (!spec) return fail(std::move(spec_error));
      options.spec = std::move(*spec);
    } else if (arg == "--jobs") {
      if (!parse_jobs(v, &options.jobs)) return fail("bad --jobs (1..64)");
    } else if (arg == "--json") {
      options.json_path = std::string(v);
    } else if (arg == "--csv") {
      options.csv_path = std::string(v);
    } else if (arg == "--metrics-dir") {
      options.metrics_dir = std::string(v);
    }
  }

  if (std::string message = options.spec.validate(); !message.empty()) {
    return fail(std::move(message));
  }
  if (!options.json_path && !options.csv_path) options.json_path = "-";
  if (std::string message = obs::check_one_stdout(campaign_outputs(options));
      !message.empty()) {
    return fail(std::move(message));
  }
  return options;
}

int run_campaign_cli(const CampaignCliOptions& options, std::ostream& out,
                     std::ostream& err) {
  if (options.help) {
    out << campaign_cli_usage();
    return 0;
  }
  const std::size_t total = options.spec.run_count();
  RunnerOptions runner_options;
  runner_options.jobs = options.jobs;
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
      options.spec, std::move(runner_options),
      obs::OutputRouter(out, err, campaign_outputs(options)), options.outputs,
      options.json_path, options.csv_path,
      [&options](std::ostream& summary, const CampaignResult& result) {
        summary << "campaign: cells=" << options.spec.cell_count()
                << " runs=" << result.runs.size()
                << " failures=" << result.failures
                << " jobs=" << options.jobs
                << " wall=" << result.wall_ms / 1000.0 << "s\n";
      });
}

int run_cli(const exp::CliOptions& options, std::ostream& out,
            std::ostream& err) {
  if (options.help) {
    out << exp::cli_usage();
    return 0;
  }

  const obs::OutputRouter router(out, err, exp::cli_outputs(options));
  std::ostream& summary = router.summary();
  obs::ProfileSession profile(options.outputs);

  const std::unique_ptr<exp::Scenario> scenario_ptr =
      build_scenario(sim_spec(options).expand().front(), sim_run(options));
  exp::Scenario& scenario = *scenario_ptr;
  // Log lines carry the same virtual-time tag the trace events do.
  const ScopedLogTime log_time([env = scenario.env()] { return env.now(); });

  exp::Recorder recorder(scenario);
  scenario.start();
  scenario.run_until(options.duration);

  profile.finish(scenario.metrics());

  summary << "scenario: nodes=" << options.nodes << " seed=" << options.seed
          << " duration=" << to_seconds(options.duration) << "s attack="
          << options.attack << " policy=" << options.policy << "\n";
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

int run_sim_sweep(const exp::CliOptions& options, std::ostream& out,
                  std::ostream& err) {
  const CampaignSpec spec = sim_spec(options);
  RunnerOptions runner_options;
  runner_options.jobs = options.jobs;
  runner_options.run = sim_run(options);
  // --csv selects the aggregate CSV report: a sweep has no single
  // recorded series.
  return run_and_report(
      spec, std::move(runner_options),
      obs::OutputRouter(out, err, exp::cli_outputs(options)), options.outputs,
      exp::sweep_json_path(options), options.csv_path,
      [&](std::ostream& summary, const CampaignResult& result) {
        summary << "sweep: seeds=" << spec.seeds.front() << ".."
                << spec.seeds.back() << " runs=" << result.runs.size()
                << " failures=" << result.failures
                << " jobs=" << options.jobs << " attack=" << options.attack
                << " policy=" << options.policy
                << " wall=" << result.wall_ms / 1000.0 << "s\n";
      });
}

}  // namespace triad::campaign
