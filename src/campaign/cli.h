// Command-line front ends of the campaign engine: the `triad_campaign`
// tool and both modes of `triad_sim` (one run, or a seed sweep). Every
// one of them builds its scenarios with build_scenario (runner.h).
//
// triad_campaign builds a CampaignSpec from flags and/or a key=value
// spec file, runs the sweep on a worker pool, and writes the
// deterministic aggregate report (JSON and/or CSV). Kept in the library
// so the parser and runner are unit-testable.
#pragma once

#include <iosfwd>
#include <optional>
#include <string>

#include "campaign/spec.h"
#include "exp/cli.h"
#include "obs/cli_output.h"

namespace triad::campaign {

struct CampaignCliOptions {
  CampaignSpec spec;
  std::size_t jobs = 1;
  /// Aggregate report paths ("-" = stdout). With neither flag given,
  /// parse_campaign_cli sets json_path to "-".
  std::optional<std::string> json_path;
  std::optional<std::string> csv_path;
  /// Per-run Prometheus dumps land in this directory when set.
  std::string metrics_dir;
  /// --prof/--prof-trace/--prof-normalize (obs/cli_output.h); a campaign
  /// has no single registry or trace, so metrics and trace stay unset.
  /// prof_normalize zeroes every duration so the scope tree byte-compares
  /// across runs and job counts.
  obs::ObsOutputs outputs;
  /// Per-run progress lines on the error stream.
  bool verbose = false;
  bool help = false;
};

/// Parses argv (a --spec file loads first, explicit flags override it).
/// On error returns nullopt and writes a message to `error`.
std::optional<CampaignCliOptions> parse_campaign_cli(int argc,
                                                     const char* const* argv,
                                                     std::string* error);

std::string campaign_cli_usage();

/// Runs the campaign. Outputs follow the obs/cli_output.h rules: "-"
/// goes to `out` and the human summary then moves to `err`. Returns a
/// process exit code; a completed campaign with failed runs exits 1.
int run_campaign_cli(const CampaignCliOptions& options, std::ostream& out,
                     std::ostream& err);

/// triad_sim's single run: a one-seed sweep's RunSpec, built and run
/// once, with per-run outputs (summary, --csv series, --metrics, --trace,
/// profiles) routed by the obs/cli_output.h rules. Returns an exit code.
int run_cli(const exp::CliOptions& options, std::ostream& out,
            std::ostream& err);

/// triad_sim's sweep mode (--seeds A..B / --repeat N; requires
/// exp::is_sweep): one run per seed, with every other triad_sim flag
/// (per-node environments, machine placement, WAN delay, attestation)
/// applied to each. The aggregate JSON report goes to stdout unless
/// --csv - puts the CSV report there, so the summary is on `err`.
/// Returns a process exit code.
int run_sim_sweep(const exp::CliOptions& options, std::ostream& out,
                  std::ostream& err);

}  // namespace triad::campaign
