// Command-line flags of the `triad_sim` tool.
//
// Parses flags into a runnable experiment description; campaign/cli.h
// runs it (one scenario, or a seed sweep) through the campaign engine's
// scenario builder. Kept in the library so the parser is unit-testable.
#pragma once

#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "obs/cli_output.h"
#include "util/types.h"

namespace triad::exp {

struct CliOptions {
  std::uint64_t seed = 1;
  /// True when --seed was given explicitly (to reject --seed + --seeds).
  bool seed_set = false;
  /// --seeds A..B: inclusive seed range; the run becomes a campaign
  /// sweep (one scenario per seed) instead of a single scenario.
  std::optional<std::pair<std::uint64_t, std::uint64_t>> seed_range;
  /// --repeat N: shorthand for --seeds seed..seed+N-1.
  std::size_t repeat = 1;
  /// Worker threads for sweep mode (ignored for a single run).
  std::size_t jobs = 1;
  std::size_t nodes = 3;
  Duration duration = minutes(10);
  /// Attack, policy and environment names are those of exp/axes.h.
  std::string attack = "none";
  /// 1-based node index the attack targets; 0 = the last node, as in
  /// triad_campaign.
  std::size_t victim = 0;
  Duration attack_delay = milliseconds(100);
  std::string policy = "original";
  /// Per-node environments (repeatable flag; missing entries: "triad").
  std::vector<std::string> environments;
  bool machine_interrupts = true;
  /// Machine index per node (repeatable flag, geo-distribution).
  std::vector<std::size_t> machines;
  Duration wan_delay = milliseconds(20);
  /// Derive channel keys from attestation handshakes.
  bool attested = false;
  /// Write the recorded series as CSV to this path ("-" = stdout); in a
  /// sweep, the aggregate CSV report instead.
  std::optional<std::string> csv_path;
  /// --metrics/--trace/--prof/--prof-trace/--prof-normalize. Profiling
  /// also exports triad_prof_scope_seconds histograms into the scenario
  /// registry, so --metrics picks them up.
  obs::ObsOutputs outputs;
  bool help = false;
};

/// Parses argv. On error returns nullopt and writes a message to `error`.
std::optional<CliOptions> parse_cli(int argc, const char* const* argv,
                                    std::string* error);

/// True when the options describe a multi-run sweep (--seeds / --repeat)
/// rather than a single scenario.
[[nodiscard]] bool is_sweep(const CliOptions& options);

/// The inclusive seed list a sweep expands to ({seed} for a single run).
[[nodiscard]] std::vector<std::uint64_t> sweep_seeds(const CliOptions& options);

/// Where a sweep's aggregate JSON report goes: stdout, unless --csv -
/// takes its place. Unset for a single run.
[[nodiscard]] obs::OutputPath sweep_json_path(const CliOptions& options);

/// Every output the options request, after the sweep's JSON default is
/// filled in: the list the one-stdout rule and the stream routing read.
[[nodiscard]] std::vector<obs::NamedOutput> cli_outputs(
    const CliOptions& options);

/// One-line-per-flag usage text.
std::string cli_usage();

}  // namespace triad::exp
