#include "exp/cli.h"

#include <algorithm>
#include <limits>

#include "exp/axes.h"
#include "util/parse.h"

namespace triad::exp {

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
      "  --victim N         1-based attacked node; 0 = last (default 0)\n"
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
  // An axis flag's value must be one of the axis's names.
  const auto bad_name = [&fail](std::string_view flag, const auto& axis) {
    return fail("bad " + std::string(flag) + " (" + axis.choices() + ")");
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
      if (!kAttacks.find(*v)) return bad_name(arg, kAttacks);
      options.attack = std::string(*v);
    } else if (arg == "--victim") {
      std::uint64_t n = 0;
      if (!parse_u64(*v, &n)) return fail("bad --victim");
      options.victim = n;
    } else if (arg == "--attack-delay") {
      if (!parse_duration(*v, &options.attack_delay)) {
        return fail("bad --attack-delay");
      }
    } else if (arg == "--policy") {
      if (!kPolicies.find(*v)) return bad_name(arg, kPolicies);
      options.policy = std::string(*v);
    } else if (arg == "--env") {
      if (!kEnvironments.find(*v)) return bad_name(arg, kEnvironments);
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

}  // namespace triad::exp
