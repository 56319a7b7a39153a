// triad_trace — forensic reader for recorded protocol traces.
//
//   $ ./triad_sim --attack fminus --trace trace.jsonl && ./triad_trace trace.jsonl
//   $ ./triad_sim --attack fminus --trace - | ./triad_trace -
//   $ ./triad_trace --json trace.jsonl
//
// Loads a JSONL trace dump (obs/export.h schema), replays it through the
// standard online detectors, rebuilds causal spans, and prints the
// attack-propagation report (obs/forensic.h). Output is byte-identical
// for a given input: the report is a pure function of the event stream.
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

#include "obs/export.h"
#include "obs/forensic.h"
#include "util/parse.h"

namespace {

constexpr const char* kUsage =
    "usage: triad_trace [options] <trace.jsonl | ->\n"
    "\n"
    "  <file>               JSONL trace dump (triad_sim --trace FILE); '-'\n"
    "                       reads stdin\n"
    "  --json               emit the report as one JSON object\n"
    "  --min-jump-ms <ms>   timeline floor for significant forward jumps\n"
    "                       (default 5.0)\n"
    "  --help               this text\n";

}  // namespace

int main(int argc, char** argv) {
  triad::obs::ForensicOptions options;
  std::string path;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strcmp(arg, "--help") == 0) {
      std::cout << kUsage;
      return 0;
    }
    if (std::strcmp(arg, "--json") == 0) {
      options.json = true;
    } else if (std::strcmp(arg, "--min-jump-ms") == 0 && i + 1 < argc) {
      if (!triad::parse_non_negative(argv[++i], &options.min_jump_ms)) {
        std::cerr << "triad_trace: bad --min-jump-ms " << argv[i] << "\n\n"
                  << kUsage;
        return 2;
      }
    } else if (arg[0] == '-' && arg[1] != '\0') {
      std::cerr << "triad_trace: unknown option " << arg << "\n\n" << kUsage;
      return 2;
    } else if (path.empty()) {
      path = arg;
    } else {
      std::cerr << "triad_trace: more than one input file\n\n" << kUsage;
      return 2;
    }
  }
  if (path.empty()) {
    std::cerr << "triad_trace: no input\n\n" << kUsage;
    return 2;
  }

  std::string text;
  if (path == "-") {
    std::ostringstream buffer;
    buffer << std::cin.rdbuf();
    text = buffer.str();
  } else {
    std::ifstream in(path);
    if (!in) {
      std::cerr << "triad_trace: cannot open " << path << "\n";
      return 1;
    }
    std::ostringstream buffer;
    buffer << in.rdbuf();
    text = buffer.str();
  }

  std::size_t rejected = 0;
  std::vector<triad::obs::TraceEvent> events =
      triad::obs::parse_jsonl(text, &rejected);
  if (events.empty()) {
    std::cerr << "triad_trace: no parseable events in " << path << " ("
              << rejected << " lines rejected)\n";
    return 1;
  }
  if (rejected > 0) {
    std::cerr << "triad_trace: warning: " << rejected
              << " unparseable lines skipped\n";
  }

  std::cout << triad::obs::forensic_report(std::move(events), options);
  return 0;
}
