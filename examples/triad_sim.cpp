// triad_sim — command-line scenario runner.
//
//   $ ./triad_sim --nodes 3 --duration 30m
//   $ ./triad_sim --attack fminus --victim 3 --policy triadplus --csv drift.csv
//   $ ./triad_sim --attack fminus --metrics - --trace trace.jsonl
//   $ ./triad_sim --seeds 1..32 --attack fminus --jobs 4
//
// Machine-readable output sent to stdout ('-') moves the human summary
// to stderr, so `triad_sim --metrics - | promtool check metrics` works.
// All logic lives in campaign/cli.{h,cpp} (flags and runs, shared with
// triad_campaign, unit-tested); this is the thin entry point.
#include <iostream>

#include "campaign/cli.h"

int main(int argc, char** argv) {
  std::string error;
  const auto options = triad::campaign::parse_sim_cli(argc, argv, &error);
  if (!options) {
    std::cerr << "triad_sim: " << error << "\n\n"
              << triad::campaign::sim_cli_usage();
    return 2;
  }
  return triad::campaign::run_sim_cli(*options, std::cout, std::cerr);
}
