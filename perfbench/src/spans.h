// The benchmark's own span log for the traced pass.
//
// Spans wrap calls into the program's public functions from the
// benchmark side: name, start, end, the parent span, and the request or
// run id the span belongs to. They stay in memory while the workload runs
// and are written out as JSON Lines at exit. A layer's self time is its
// span minus the part of it that its child spans cover.
#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

struct SpanRecord {
  const char* name = "";  // string literal, "<layer>.<operation>"
  std::uint64_t id = 0;   // request, run or replay id
  std::int64_t parent = -1;  // index of the parent span, -1 = root
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  std::uint64_t count = 1;  // operations the span covers
};

class SpanLog {
 public:
  explicit SpanLog(bool enabled) : enabled_(enabled) {}

  [[nodiscard]] bool enabled() const { return enabled_; }

  /// Opens a span at now; returns its index (-1 when disabled).
  std::int64_t open(const char* name, std::uint64_t id,
                    std::int64_t parent = -1);
  /// Closes span `index` at now, covering `count` operations.
  void close(std::int64_t index, std::uint64_t count = 1);
  /// Records a span whose ends were measured elsewhere.
  std::int64_t add(const char* name, std::uint64_t id, std::int64_t parent,
                   std::uint64_t start_ns, std::uint64_t end_ns,
                   std::uint64_t count = 1);

  /// Summed duration of every span called `name`.
  [[nodiscard]] double total_ns(const std::string& name) const;

  /// Writes every span as one JSON line, after a header line carrying
  /// `header_json` (a JSON object body without braces).
  bool write_jsonl(const std::string& path,
                   const std::string& header_json) const;

 private:
  [[nodiscard]] std::vector<std::uint64_t> self_times() const;

  bool enabled_;
  mutable std::mutex mutex_;
  std::vector<SpanRecord> spans_;
};

/// RAII span: open on construction, close on destruction.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog& log, const char* name, std::uint64_t id,
             std::int64_t parent = -1)
      : log_(log), index_(log.open(name, id, parent)) {}
  ~ScopedSpan() { log_.close(index_, count_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  [[nodiscard]] std::int64_t index() const { return index_; }
  void set_count(std::uint64_t count) { count_ = count; }

 private:
  SpanLog& log_;
  std::int64_t index_;
  std::uint64_t count_ = 1;
};

}  // namespace perfbench
