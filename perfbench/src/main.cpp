// perfbench: the repository benchmark's binary.
//
//   perfbench --workload serve|campaign|forensic --seed N --seconds S
//             --trace 0|1 [--paced-rate R] [--spans PATH]
//             [--digests PATH]
//   perfbench --record-digests
//
// A workload run prints check notes, a line naming the workload and the
// seed, and as its last line one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// --trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones.
// --record-digests prints the digest lines of digests.txt.
// perfbench/run.py builds this binary and is the command to run.

#include <cmath>
#include <cstdio>
#include <exception>
#include <iostream>
#include <string>

#include "bench.h"

namespace {

int usage() {
  std::cerr << "usage: perfbench --workload serve|campaign|forensic "
               "--seed N --seconds S --trace 0|1 [--paced-rate R] "
               "[--spans PATH] [--digests PATH]\n"
               "       perfbench --record-digests\n";
  return 2;
}

void print_result(const perfbench::Outcome& out) {
  std::string json = "{\"correct\": ";
  json += out.correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(out.attempted);
  json += ", \"failed\": " + std::to_string(out.failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < out.metrics.size(); ++i) {
    const perfbench::Metric& m = out.metrics[i];
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g",
                  std::isfinite(m.value) ? m.value : 0.0);
    json += (i == 0 ? "\"" : ", \"") + m.name + "\": {\"value\": " + value +
            ", \"unit\": \"" + m.unit + "\"}";
  }
  json += "}}";
  std::cout << json << std::endl;
}

int run(int argc, char** argv) {
  perfbench::Args args;
  bool record = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--record-digests") {
      record = true;
    } else if (!has_value) {
      return usage();
    } else if (arg == "--workload") {
      args.workload = argv[++i];
    } else if (arg == "--seed") {
      args.seed = std::stoull(argv[++i]);
    } else if (arg == "--seconds") {
      args.seconds = std::stod(argv[++i]);
    } else if (arg == "--trace") {
      args.trace = std::string(argv[++i]) != "0";
    } else if (arg == "--paced-rate") {
      args.paced_rate = std::stod(argv[++i]);
    } else if (arg == "--spans") {
      args.spans_path = argv[++i];
    } else if (arg == "--digests") {
      args.digests_path = argv[++i];
    } else {
      return usage();
    }
  }

  if (record) {
    for (std::uint64_t c = 0; c < perfbench::kSeedClasses; ++c) {
      std::cout << perfbench::campaign_digest_lines(c)
                << perfbench::forensic_digest_lines(c) << std::flush;
    }
    return 0;
  }

  perfbench::Outcome out;
  if (args.workload == "serve") {
    out = perfbench::run_serve(args);
  } else if (args.workload == "campaign") {
    out = perfbench::run_campaign(args);
  } else if (args.workload == "forensic") {
    out = perfbench::run_forensic(args);
  } else {
    return usage();
  }
  for (const std::string& line : out.notes) std::cout << line << "\n";
  std::cout << "perfbench: workload=" << args.workload
            << " seed=" << args.seed << " seconds=" << args.seconds
            << " trace=" << (args.trace ? 1 : 0) << "\n";
  print_result(out);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
}
