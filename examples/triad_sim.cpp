// triad_sim — command-line scenario runner.
//
//   $ ./triad_sim --nodes 3 --duration 30m
//   $ ./triad_sim --attack fminus --victim 3 --policy triadplus --csv drift.csv
//   $ ./triad_sim --attack fminus --metrics - --trace trace.jsonl
//
// Machine-readable output sent to stdout ('-') moves the human summary
// to stderr, so `triad_sim --metrics - | promtool check metrics` works.
// All logic lives in exp/cli.{h,cpp} (flags) and campaign/cli.{h,cpp}
// (runs), both unit-tested; this is the thin entry point.
#include <iostream>

#include "campaign/cli.h"

int main(int argc, char** argv) {
  std::string error;
  const auto options = triad::exp::parse_cli(argc, argv, &error);
  if (!options) {
    std::cerr << "triad_sim: " << error << "\n\n"
              << triad::exp::cli_usage();
    return 2;
  }
  // --seeds / --repeat turn the single run into a campaign seed sweep.
  if (!options->help && triad::exp::is_sweep(*options)) {
    return triad::campaign::run_sim_sweep(*options, std::cout, std::cerr);
  }
  return triad::campaign::run_cli(*options, std::cout, std::cerr);
}
