#include "obs/cli_output.h"

#include <fstream>
#include <ostream>

#include "obs/metrics.h"

namespace triad::obs {
namespace {

bool is_stdout(const OutputPath& path) { return path && *path == "-"; }

}  // namespace

FlagParse take_output_flag(int argc, const char* const* argv, int* i,
                           bool per_run, ObsOutputs* outputs) {
  const std::string_view arg = argv[*i];
  if (arg == "--prof-normalize") {
    outputs->prof_normalize = true;
    return FlagParse::kTaken;
  }
  OutputPath* slot = nullptr;
  if (arg == "--prof") slot = &outputs->prof;
  if (arg == "--prof-trace") slot = &outputs->prof_trace;
  if (per_run && arg == "--metrics") slot = &outputs->metrics;
  if (per_run && arg == "--trace") slot = &outputs->trace;
  if (slot == nullptr) return FlagParse::kNotMine;
  if (*i + 1 >= argc) return FlagParse::kMissingValue;
  *slot = argv[++*i];
  return FlagParse::kTaken;
}

std::string output_flags_usage(bool per_run) {
  const char* per_run_flags =
      "  --metrics PATH     final metrics as Prometheus text\n"
      "  --trace PATH       protocol trace as JSON Lines\n";
  return (per_run ? per_run_flags : "") +
         std::string(
             "  --prof PATH        wall-clock scope profile table\n"
             "  --prof-trace PATH  profile as Chrome trace JSON for "
             "Perfetto /\n"
             "                     chrome://tracing\n"
             "  --prof-normalize   zero profile durations (deterministic "
             "tree)\n"
             "  An output PATH of '-' is stdout. At most one output may be "
             "'-';\n"
             "  the human summary then moves to stderr.\n");
}

std::vector<NamedOutput> named_outputs(const ObsOutputs& outputs) {
  return {{"--metrics", outputs.metrics},
          {"--trace", outputs.trace},
          {"--prof", outputs.prof},
          {"--prof-trace", outputs.prof_trace}};
}

std::string check_one_stdout(const std::vector<NamedOutput>& outputs) {
  std::string names;
  int count = 0;
  for (const NamedOutput& output : outputs) {
    if (!is_stdout(output.path)) continue;
    if (count++ > 0) names += " and ";
    names += output.name;
  }
  if (count <= 1) return {};
  return "at most one output may be '-' (stdout), but " + names + " are";
}

OutputRouter::OutputRouter(std::ostream& out, std::ostream& err,
                           const std::vector<NamedOutput>& outputs)
    : out_(&out), summary_(&out) {
  for (const NamedOutput& output : outputs) {
    if (is_stdout(output.path)) summary_ = &err;
  }
}

int OutputRouter::write(std::initializer_list<Artifact> artifacts) const {
  for (const Artifact& artifact : artifacts) {
    if (!artifact.path) continue;
    if (is_stdout(artifact.path)) {
      artifact.write(*out_);
      continue;
    }
    std::ofstream file(*artifact.path);
    if (!file) {
      *summary_ << "error: cannot open " << *artifact.path << "\n";
      return 1;
    }
    artifact.write(file);
    *summary_ << artifact.what << " written to " << *artifact.path << "\n";
  }
  return 0;
}

ProfileSession::ProfileSession(const ObsOutputs& outputs)
    : outputs_(outputs) {
  if (!outputs_.profiling()) return;
  Profiler::instance().reset();
  Profiler::instance().set_enabled(true);
}

void ProfileSession::finish(Registry* registry) {
  if (!outputs_.profiling()) return;
  Profiler::instance().set_enabled(false);
  tree_ = Profiler::instance().merge();
  if (registry != nullptr) {
    Profiler::export_histograms(tree_, *registry, outputs_.prof_normalize);
  }
}

Artifact ProfileSession::table() const {
  return {outputs_.prof, "profile", [this](std::ostream& os) {
            Profiler::write_text(tree_, os, outputs_.prof_normalize);
          }};
}

Artifact ProfileSession::chrome_trace() const {
  return {outputs_.prof_trace, "profile trace", [this](std::ostream& os) {
            Profiler::write_chrome_trace(tree_, os, outputs_.prof_normalize);
          }};
}

}  // namespace triad::obs
