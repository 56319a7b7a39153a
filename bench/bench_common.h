// Shared output helpers for the figure-reproduction binaries.
//
// Each bench prints: (1) a header naming the paper artefact, (2) the
// plot-ready series (downsampled CSV), and (3) its result tables as
// markdown rows, `| a | b | c |`. Those rows are the ones EXPERIMENTS.md
// holds: the `paper-<bench>` ctest entry (bench/paper_pin.cmake)
// compares them line for line with the bench's EXPERIMENTS.md sections.
#pragma once

#include <cstdarg>
#include <cstdio>
#include <initializer_list>
#include <string>

#include "stats/timeseries.h"
#include "util/types.h"

namespace triad::bench {

inline void print_header(const std::string& artefact,
                         const std::string& description) {
  std::printf("=============================================================\n");
  std::printf("%s\n", artefact.c_str());
  std::printf("%s\n", description.c_str());
  std::printf("=============================================================\n");
}

/// Prints a (time, value) series downsampled to at most max_rows rows.
inline void print_series(const stats::TimeSeries& series,
                         std::size_t max_rows = 120) {
  const auto& samples = series.samples();
  if (samples.empty()) {
    std::printf("# %s: (empty)\n", series.name().c_str());
    return;
  }
  std::printf("# time_s,%s\n", series.name().c_str());
  const std::size_t stride =
      samples.size() <= max_rows ? 1 : samples.size() / max_rows;
  for (std::size_t i = 0; i < samples.size(); i += stride) {
    std::printf("%.3f,%.4f\n", to_seconds(samples[i].time),
                samples[i].value);
  }
  // Always include the final point.
  if ((samples.size() - 1) % stride != 0) {
    std::printf("%.3f,%.4f\n", to_seconds(samples.back().time),
                samples.back().value);
  }
}

/// printf into a string: every measured table cell is formatted from a
/// computed value through this.
[[gnu::format(printf, 1, 2)]] inline std::string fmt(const char* format,
                                                     ...) {
  char buf[256];
  va_list args;
  va_start(args, format);
  std::vsnprintf(buf, sizeof buf, format, args);
  va_end(args);
  return buf;
}

/// `format` applied to value(0) … value(n - 1), joined by " / " (one
/// cell holding a per-node value).
template <class Value>
std::string per_node(std::size_t n, const char* format, Value value) {
  std::string out;
  for (std::size_t i = 0; i < n; ++i) {
    if (i > 0) out += " / ";
    char buf[64];
    std::snprintf(buf, sizeof buf, format, value(i));
    out += buf;
  }
  return out;
}

/// Prints one markdown table row: `| a | b | c |`.
inline void print_row(std::initializer_list<std::string> cells) {
  std::string line = "|";
  for (const std::string& cell : cells) line += " " + cell + " |";
  std::printf("%s\n", line.c_str());
}

/// Prints a table's header row and its `|---|…|` separator.
inline void print_table_head(std::initializer_list<std::string> columns) {
  print_row(columns);
  std::string line = "|";
  for (std::size_t i = 0; i < columns.size(); ++i) line += "---|";
  std::printf("%s\n", line.c_str());
}

}  // namespace triad::bench
