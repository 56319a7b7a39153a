// The output policy of triad_sim, triad_campaign and triad_timed:
//   * the --metrics/--trace/--prof/--prof-trace/--prof-normalize flags;
//   * each output goes to a file or, given "-", to stdout. At most one
//     output may be "-", counted after a tool fills in its defaults and
//     checked at parse time, before any work runs;
//   * with an output on stdout, the human summary moves to stderr;
//   * a file output prints "<what> written to PATH", or "error: cannot
//     open PATH" and the tool exits 1;
//   * the profiler session around the run.
#pragma once

#include <functional>
#include <initializer_list>
#include <iosfwd>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "obs/prof.h"

namespace triad::obs {

/// Unset = not requested, "-" = stdout, otherwise a file path.
using OutputPath = std::optional<std::string>;

struct ObsOutputs {
  OutputPath metrics;     // --metrics: Prometheus text
  OutputPath trace;       // --trace: JSON Lines protocol trace
  OutputPath prof;        // --prof: profiler scope table
  OutputPath prof_trace;  // --prof-trace: profiler Chrome trace JSON
  bool prof_normalize = false;  // --prof-normalize: zero the durations

  [[nodiscard]] bool profiling() const { return prof || prof_trace; }
};

enum class FlagParse { kNotMine, kTaken, kMissingValue };

/// Takes argv[*i] (and its value, advancing *i) when it is one of the
/// flags above. --metrics and --trace are offered only when `per_run`:
/// a tool without one registry and one trace has neither.
FlagParse take_output_flag(int argc, const char* const* argv, int* i,
                           bool per_run, ObsOutputs* outputs);

/// The --help lines for those flags and the stdout rule.
std::string output_flags_usage(bool per_run);

/// An output named for error messages: its flag, or a phrase for an
/// output that goes to stdout by default.
struct NamedOutput {
  std::string_view name;
  OutputPath path;
};

std::vector<NamedOutput> named_outputs(const ObsOutputs& outputs);

/// Empty when at most one output is "-", else a message naming them.
std::string check_one_stdout(const std::vector<NamedOutput>& outputs);

struct Artifact {
  OutputPath path;
  std::string_view what;  // "<what> written to PATH"
  std::function<void(std::ostream&)> write;
};

/// "-" goes to `out`; the summary goes to `err` when any output is "-",
/// else to `out`.
class OutputRouter {
 public:
  OutputRouter(std::ostream& out, std::ostream& err,
               const std::vector<NamedOutput>& outputs);

  [[nodiscard]] std::ostream& summary() const { return *summary_; }

  /// Writes the requested artifacts in order. Returns 0, or 1 at the
  /// first file that cannot be opened; later artifacts are not written.
  int write(std::initializer_list<Artifact> artifacts) const;

 private:
  std::ostream* out_;
  std::ostream* summary_;
};

/// When profiling was asked for, construction resets and enables the
/// process-wide Profiler; finish() disables it and merges its trees once
/// the profiled threads have joined, also exporting them into `registry`
/// (triad_prof_scope_seconds) when given.
class ProfileSession {
 public:
  explicit ProfileSession(const ObsOutputs& outputs);
  void finish(Registry* registry = nullptr);

  [[nodiscard]] Artifact table() const;         // --prof
  [[nodiscard]] Artifact chrome_trace() const;  // --prof-trace

 private:
  ObsOutputs outputs_;
  ProfTree tree_;
};

}  // namespace triad::obs
