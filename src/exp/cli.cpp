#include "exp/cli.h"

#include <algorithm>
#include <iostream>
#include <limits>
#include <ostream>
#include <sstream>

#include "exp/recorder.h"
#include "exp/scenario.h"
#include "obs/export.h"
#include "resilient/triad_plus.h"
#include "util/log.h"
#include "util/parse.h"

namespace triad::exp {

namespace {

std::optional<AexEnvironment> parse_environment(std::string_view text) {
  if (text == "triad") return AexEnvironment::kTriadLike;
  if (text == "low") return AexEnvironment::kLowAex;
  if (text == "none") return AexEnvironment::kNone;
  return std::nullopt;
}

}  // namespace

std::string cli_usage() {
  return std::string(
      "triad_sim — run a Triad trusted-time scenario\n"
      "  --seed N           RNG seed (default 1)\n"
      "  --seeds A..B       seed sweep (inclusive): runs one scenario per\n"
      "                     seed via the campaign engine and prints the\n"
      "                     aggregate report; excludes --seed; at most\n"
      "                     4096 seeds\n"
      "  --repeat N         shorthand for --seeds seed..seed+N-1\n"
      "  --jobs N           worker threads for a sweep, 1..64 (default 1)\n"
      "  --nodes N          cluster size (default 3)\n"
      "  --duration D       virtual time, e.g. 30m, 8h, 90s (default 10m)\n"
      "  --attack KIND      none | fplus | fminus (default none)\n"
      "  --victim N         1-based attacked node (default 3)\n"
      "  --attack-delay D   injected delay (default 100ms)\n"
      "  --policy P         original | triadplus (default original)\n"
      "  --env E            per-node AEX env: triad | low | none\n"
      "                     (repeat per node; missing default to triad)\n"
      "  --no-machine-interrupts   disable correlated residual interrupts\n"
      "  --machine M        machine index 0..N (N = --nodes) for the next\n"
      "                     node (repeat per node; geo-distributed\n"
      "                     deployments)\n"
      "  --wan-delay D      one-way delay between machines (default 20ms)\n"
      "  --attested         derive channel keys from X25519 attestation\n"
      "                     handshakes instead of a provisioned secret\n"
      "  --csv PATH         dump recorded series as CSV (a sweep: the\n"
      "                     aggregate CSV report, replacing the JSON\n"
      "                     report on stdout when PATH is '-')\n") +
      obs::output_flags_usage(/*per_run=*/true) +
      "  --help             this text\n";
}

std::optional<CliOptions> parse_cli(int argc, const char* const* argv,
                                    std::string* error) {
  CliOptions options;
  auto fail = [error](std::string message) -> std::optional<CliOptions> {
    if (error != nullptr) *error = std::move(message);
    return std::nullopt;
  };

  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    auto value = [&]() -> std::optional<std::string_view> {
      if (i + 1 >= argc) return std::nullopt;
      return std::string_view(argv[++i]);
    };

    if (arg == "--help" || arg == "-h") {
      options.help = true;
      return options;
    }
    if (arg == "--no-machine-interrupts") {
      options.machine_interrupts = false;
      continue;
    }
    if (arg == "--attested") {
      options.attested = true;
      continue;
    }
    switch (obs::take_output_flag(argc, argv, &i, /*per_run=*/true,
                                  &options.outputs)) {
      case obs::FlagParse::kTaken:
        continue;
      case obs::FlagParse::kMissingValue:
        return fail("missing value for " + std::string(arg));
      case obs::FlagParse::kNotMine:
        break;
    }
    static constexpr std::string_view kValueFlags[] = {
        "--seed",    "--nodes",        "--duration",  "--attack",
        "--victim",  "--policy",       "--env",       "--csv",
        "--machine", "--attack-delay", "--wan-delay", "--seeds",
        "--repeat",  "--jobs"};
    const bool known =
        std::find(std::begin(kValueFlags), std::end(kValueFlags), arg) !=
        std::end(kValueFlags);
    if (!known) return fail("unknown flag " + std::string(arg));

    const auto v = value();
    if (!v) return fail("missing value for " + std::string(arg));

    if (arg == "--seed") {
      if (!parse_u64(*v, &options.seed)) return fail("bad --seed");
      options.seed_set = true;
    } else if (arg == "--seeds") {
      std::uint64_t lo = 0, hi = 0;
      if (!parse_seed_range(*v, &lo, &hi) || hi - lo >= kMaxSeeds) {
        return fail(
            "bad --seeds (use A..B with A <= B and at most 4096 seeds, "
            "e.g. 1..32)");
      }
      options.seed_range = {lo, hi};
    } else if (arg == "--repeat") {
      std::uint64_t n = 0;
      if (!parse_u64(*v, &n) || n == 0 || n > kMaxSeeds) {
        return fail("bad --repeat (1..4096)");
      }
      options.repeat = n;
    } else if (arg == "--jobs") {
      if (!parse_jobs(*v, &options.jobs)) return fail("bad --jobs (1..64)");
    } else if (arg == "--nodes") {
      std::uint64_t n = 0;
      if (!parse_u64(*v, &n) || n == 0) return fail("bad --nodes");
      options.nodes = n;
    } else if (arg == "--duration") {
      if (!parse_duration(*v, &options.duration) || options.duration <= 0) {
        return fail("bad --duration (use e.g. 90s, 30m, 8h)");
      }
    } else if (arg == "--attack") {
      if (*v != "none" && *v != "fplus" && *v != "fminus") {
        return fail("bad --attack (none|fplus|fminus)");
      }
      options.attack = std::string(*v);
    } else if (arg == "--victim") {
      std::uint64_t n = 0;
      if (!parse_u64(*v, &n) || n == 0) return fail("bad --victim");
      options.victim = n;
    } else if (arg == "--attack-delay") {
      if (!parse_duration(*v, &options.attack_delay)) {
        return fail("bad --attack-delay");
      }
    } else if (arg == "--policy") {
      if (*v != "original" && *v != "triadplus") {
        return fail("bad --policy (original|triadplus)");
      }
      options.policy = std::string(*v);
    } else if (arg == "--env") {
      if (!parse_environment(*v)) return fail("bad --env (triad|low|none)");
      options.environments.emplace_back(*v);
    } else if (arg == "--machine") {
      std::uint64_t m = 0;
      if (!parse_u64(*v, &m)) return fail("bad --machine");
      options.machines.push_back(m);
    } else if (arg == "--wan-delay") {
      if (!parse_duration(*v, &options.wan_delay) ||
          options.wan_delay <= 0) {
        return fail("bad --wan-delay");
      }
    } else if (arg == "--csv") {
      options.csv_path = std::string(*v);
    }
  }

  if (options.victim > options.nodes) {
    return fail("--victim exceeds --nodes");
  }
  if (options.seed_set && options.seed_range) {
    return fail(
        "--seed and --seeds are mutually exclusive: use --seed N for one "
        "run or --seeds A..B for a sweep");
  }
  if (options.seed_range && options.repeat > 1) {
    return fail("--repeat and --seeds are mutually exclusive");
  }
  if (options.repeat - 1 >
      std::numeric_limits<std::uint64_t>::max() - options.seed) {
    return fail("bad --repeat: --seed + N - 1 exceeds 2^64-1");
  }
  if (is_sweep(options) && (options.outputs.metrics || options.outputs.trace)) {
    return fail(
        "--metrics/--trace are per-run outputs; for sweeps use "
        "triad_campaign --metrics-dir");
  }
  if (options.environments.size() > options.nodes) {
    return fail("more --env entries than nodes");
  }
  if (options.machines.size() > options.nodes) {
    return fail("more --machine entries than nodes");
  }
  // One machine per node plus the TA's machine 0 covers every placement;
  // Scenario builds one interrupt hub per machine index up to the largest.
  for (const std::size_t machine : options.machines) {
    if (machine > options.nodes) return fail("--machine exceeds --nodes");
  }
  if (std::string message = obs::check_one_stdout(cli_outputs(options));
      !message.empty()) {
    return fail(std::move(message));
  }
  return options;
}

bool is_sweep(const CliOptions& options) {
  return options.seed_range.has_value() || options.repeat > 1;
}

obs::OutputPath sweep_json_path(const CliOptions& options) {
  if (!is_sweep(options) || options.csv_path == "-") return std::nullopt;
  return "-";
}

std::vector<obs::NamedOutput> cli_outputs(const CliOptions& options) {
  std::vector<obs::NamedOutput> outputs = obs::named_outputs(options.outputs);
  outputs.push_back({"--csv", options.csv_path});
  outputs.push_back({"the sweep's JSON report", sweep_json_path(options)});
  return outputs;
}

void apply_deployment(const CliOptions& options, ScenarioConfig* cfg) {
  cfg->environments.clear();
  for (const std::string& env : options.environments) {
    cfg->environments.push_back(*parse_environment(env));
  }
  cfg->machine_of = options.machines;
  cfg->wan_base_delay = options.wan_delay;
  cfg->wan_jitter = std::max<Duration>(options.wan_delay / 10, 1);
  cfg->attested_keys = options.attested;
}

std::vector<std::uint64_t> sweep_seeds(const CliOptions& options) {
  std::uint64_t lo = options.seed;
  std::uint64_t hi = options.seed + (options.repeat - 1);
  if (options.seed_range) {
    lo = options.seed_range->first;
    hi = options.seed_range->second;
  }
  std::vector<std::uint64_t> seeds;
  seeds.reserve(hi - lo + 1);
  // Stop at hi itself: ++ past hi == 2^64-1 would wrap to 0.
  for (std::uint64_t s = lo;; ++s) {
    seeds.push_back(s);
    if (s == hi) return seeds;
  }
}

int run_cli(const CliOptions& options, std::ostream& out) {
  return run_cli(options, out, std::cerr);
}

int run_cli(const CliOptions& options, std::ostream& out,
            std::ostream& err) {
  if (options.help) {
    out << cli_usage();
    return 0;
  }

  const obs::OutputRouter router(out, err, cli_outputs(options));
  std::ostream& summary = router.summary();
  obs::ProfileSession profile(options.outputs);

  ScenarioConfig cfg;
  cfg.seed = options.seed;
  cfg.node_count = options.nodes;
  cfg.machine_interrupts = options.machine_interrupts;
  apply_deployment(options, &cfg);
  if (options.policy == "triadplus") {
    cfg.node_template = resilient::harden(cfg.node_template);
    cfg.policy_factory = [] { return resilient::make_triad_plus_policy(); };
  }
  // Metrics are cheap (callback series + pre-resolved handles), so the
  // CLI always records them — and the detectors ride the same budget;
  // the trace ring only exists when asked for.
  cfg.enable_metrics = true;
  cfg.enable_detectors = true;
  if (options.outputs.trace) cfg.trace_capacity = std::size_t{1} << 18;

  Scenario scenario(std::move(cfg));
  // Log lines carry the same virtual-time tag the trace events do.
  const runtime::Env env = scenario.env();
  const ScopedLogTime log_time([env] { return env.now(); });
  if (options.attack != "none") {
    attacks::DelayAttackConfig attack;
    attack.kind = options.attack == "fplus" ? attacks::AttackKind::kFPlus
                                            : attacks::AttackKind::kFMinus;
    attack.victim = scenario.node_address(options.victim - 1);
    attack.ta_address = scenario.ta_address();
    attack.added_delay = options.attack_delay;
    scenario.add_delay_attack(attack);
  }

  Recorder recorder(scenario);
  scenario.start();
  scenario.run_until(options.duration);

  profile.finish(scenario.metrics());

  summary << "scenario: nodes=" << options.nodes << " seed=" << options.seed
          << " duration=" << to_seconds(options.duration) << "s attack="
          << options.attack << " policy=" << options.policy << "\n";
  for (std::size_t i = 0; i < scenario.node_count(); ++i) {
    TriadNode& node = scenario.node(i);
    std::ostringstream drift;
    if (!recorder.drift_ms(i).empty()) {
      drift << recorder.drift_ms(i).min_value() << ".."
            << recorder.drift_ms(i).max_value();
    } else {
      drift << "n/a";
    }
    summary << "node " << (i + 1) << ": state=" << to_string(node.state())
            << " F_calib=" << node.calibrated_frequency_hz() / 1e6
            << "MHz availability=" << node.availability() * 100.0
            << "% aex=" << node.stats().aex_count
            << " ta_refs=" << node.stats().ta_time_references
            << " drift_ms=[" << drift.str() << "]\n";
  }
  summary << "ta requests served: "
          << scenario.time_authority().stats().requests_served << "\n";
  summary << "adoption events: " << recorder.adoptions().size() << "\n";
  if (scenario.trace() != nullptr) {
    summary << "trace events: " << scenario.trace()->total() << " (dropped "
            << scenario.trace()->dropped() << ")\n";
  }
  if (const obs::DetectorBank* bank = scenario.detectors();
      bank != nullptr) {
    summary << "detector alarms: " << bank->alarms().size();
    if (!bank->alarms().empty()) {
      summary << " (first at " << to_seconds(bank->first_alarm_at())
              << "s)";
    }
    summary << "\n";
  }

  return router.write(
      {{options.csv_path, "series",
        [&](std::ostream& os) { recorder.series().write_csv(os); }},
       {options.outputs.metrics, "metrics",
        [&](std::ostream& os) { scenario.metrics()->write_prometheus(os); }},
       {options.outputs.trace, "trace",
        [&](std::ostream& os) { obs::write_jsonl(*scenario.trace(), os); }},
       profile.table(), profile.chrome_trace()});
}

}  // namespace triad::exp
