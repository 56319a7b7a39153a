// Command-line front ends of the campaign engine: the `triad_campaign`
// tool (a grid from flags and/or a key=value spec file, run on a worker
// pool into the deterministic aggregate report) and `triad_sim` (one
// run, or a seed sweep). Both parse into a CampaignSpec, the flags they
// share through one table and set_spec_value, and build every scenario
// with build_scenario (runner.h). Kept in the library so the parsers
// and runners are unit-testable.
#pragma once

#include <iosfwd>
#include <optional>
#include <string>
#include <vector>

#include "campaign/spec.h"
#include "obs/cli_output.h"

namespace triad::campaign {

/// What both tools' options hold.
struct SharedCliOptions {
  CampaignSpec spec;
  std::size_t jobs = 1;
  /// Report paths ("-" = stdout): the aggregate JSON report, and the
  /// aggregate CSV report (triad_sim's single run: its series).
  std::optional<std::string> json_path;
  std::optional<std::string> csv_path;
  /// --metrics/--trace (triad_sim's single run only), --prof,
  /// --prof-trace, --prof-normalize (obs/cli_output.h). prof_normalize
  /// zeroes every duration so the scope tree byte-compares across runs
  /// and job counts.
  obs::ObsOutputs outputs;
  bool help = false;
};

struct CampaignCliOptions : SharedCliOptions {
  /// Per-run Prometheus dumps land in this directory when set.
  std::string metrics_dir;
  /// Per-run progress lines on the error stream.
  bool verbose = false;
};

/// Parses argv (a --spec file loads first, explicit flags override it).
/// With neither --json nor --csv, json_path is "-". On error returns
/// nullopt and writes a message to `error`.
std::optional<CampaignCliOptions> parse_campaign_cli(int argc,
                                                     const char* const* argv,
                                                     std::string* error);

std::string campaign_cli_usage();

/// Runs the campaign. Outputs follow the obs/cli_output.h rules: "-"
/// goes to `out` and the human summary then moves to `err`. Returns a
/// process exit code; a completed campaign with failed runs exits 1.
int run_campaign_cli(const CampaignCliOptions& options, std::ostream& out,
                     std::ostream& err);

/// triad_sim's options: spec is one cell (every axis but seeds holds one
/// value; environments stays {"triad"}), 10 virtual minutes by default.
/// More than one seed makes the run a sweep, whose JSON report goes to
/// stdout unless --csv - takes its place.
struct SimCliOptions : SharedCliOptions {
  /// Per-node environments (repeatable flag; missing entries: "triad").
  std::vector<std::string> environments;
  /// Machine index per node (repeatable flag, geo-distribution).
  std::vector<std::size_t> machines;
  Duration wan_delay = milliseconds(20);
  /// Derive channel keys from attestation handshakes.
  bool attested = false;
};

std::optional<SimCliOptions> parse_sim_cli(int argc, const char* const* argv,
                                           std::string* error);

std::string sim_cli_usage();

/// Runs triad_sim: one seed is a single scenario with per-run outputs
/// (summary, --csv series, --metrics, --trace, profiles), several are a
/// sweep through the worker pool with the aggregate report. Outputs
/// follow the obs/cli_output.h rules. Returns an exit code.
int run_sim_cli(const SimCliOptions& options, std::ostream& out,
                std::ostream& err);

}  // namespace triad::campaign
