// Shared vocabulary of the perfbench workloads: arguments, the result a
// workload returns, and small measurement helpers.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;  // measured time of one run
  bool trace = false;     // per-layer (traced) pass instead of end-to-end
  double paced_rate = 30000.0;  // serve: open-loop requests/s
  std::string spans_path;       // traced pass: where the span log goes
  std::string digests_path;     // stored output digests (see digests.txt)
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one workload run reports. `attempted`/`failed` count operations
/// and the correctness checks they failed; `correct` is false when any
/// check failed.
struct Outcome {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  /// Human-readable lines printed before the result (check details).
  std::vector<std::string> notes;

  void add(std::string name, double value, std::string unit) {
    metrics.push_back(Metric{std::move(name), value, std::move(unit)});
  }
  /// Records a failed check: `count` operations failed it.
  void fail(std::uint64_t count, std::string why) {
    correct = false;
    failed += count;
    notes.push_back("CHECK FAILED: " + why);
  }
  void note(std::string line) { notes.push_back(std::move(line)); }
  /// 1 - failed/attempted, the end-to-end form of the failure count.
  [[nodiscard]] double ok_share() const {
    if (attempted == 0 || failed >= attempted) return 0.0;
    return 1.0 - static_cast<double>(failed) / static_cast<double>(attempted);
  }
};

Outcome run_serve(const Args& args);
Outcome run_campaign(const Args& args);
Outcome run_forensic(const Args& args);

/// Digest lines (digests.txt format) of one seed class's outputs.
std::string campaign_digest_lines(std::uint64_t seed_class);
std::string forensic_digest_lines(std::uint64_t seed_class);

class SpanLog;

/// Writes the traced pass's span log to args.spans_path (when set),
/// headed by the workload and the seed; a failed write becomes a note.
void save_spans(const SpanLog& spans, const Args& args, Outcome& out);

// --- helpers (stats.cpp) ---------------------------------------------

/// Monotonic nanoseconds (steady_clock).
[[nodiscard]] std::uint64_t now_ns();

/// Linear-interpolated percentile of `values` (sorted in place), p in
/// [0, 1]; 0 for an empty sample.
[[nodiscard]] double percentile(std::vector<double>& values, double p);
[[nodiscard]] double median(std::vector<double> values);

/// Process peak resident set size since exec, MiB.
[[nodiscard]] double peak_rss_mb();

/// 64-bit FNV-1a over `text`, as 16 hex digits.
[[nodiscard]] std::string digest(const std::string& text);

/// The digest stored for (`workload`, `key`) in the digests file, or ""
/// when the file has no such line. Lines: "<workload> <key> <hex>".
[[nodiscard]] std::string stored_digest(const std::string& path,
                                        const std::string& workload,
                                        const std::string& key);

/// Workloads whose inputs must match a stored digest draw them from a
/// fixed catalogue of this many input sets; --seed picks one.
inline constexpr std::uint64_t kSeedClasses = 32;

}  // namespace perfbench
