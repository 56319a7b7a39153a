#include "spans.h"

#include <algorithm>
#include <fstream>

#include "bench.h"

namespace perfbench {

std::int64_t SpanLog::open(const char* name, std::uint64_t id,
                           std::int64_t parent) {
  if (!enabled_) return -1;
  const std::uint64_t start = now_ns();
  const std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(SpanRecord{name, id, parent, start, start, 1});
  return static_cast<std::int64_t>(spans_.size() - 1);
}

void SpanLog::close(std::int64_t index, std::uint64_t count) {
  if (index < 0) return;
  const std::uint64_t end = now_ns();
  const std::lock_guard<std::mutex> lock(mutex_);
  SpanRecord& span = spans_[static_cast<std::size_t>(index)];
  span.end_ns = end;
  span.count = count;
}

std::int64_t SpanLog::add(const char* name, std::uint64_t id,
                          std::int64_t parent, std::uint64_t start_ns,
                          std::uint64_t end_ns, std::uint64_t count) {
  if (!enabled_) return -1;
  const std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(SpanRecord{name, id, parent, start_ns, end_ns, count});
  return static_cast<std::int64_t>(spans_.size() - 1);
}

std::vector<std::uint64_t> SpanLog::self_times() const {
  // Children's intervals, clipped to the parent and merged where they
  // overlap (concurrent children must not be subtracted twice).
  std::vector<std::vector<std::pair<std::uint64_t, std::uint64_t>>> kids(
      spans_.size());
  for (const SpanRecord& span : spans_) {
    if (span.parent >= 0) {
      kids[static_cast<std::size_t>(span.parent)].emplace_back(span.start_ns,
                                                               span.end_ns);
    }
  }
  std::vector<std::uint64_t> self(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& span = spans_[i];
    auto& intervals = kids[i];
    std::sort(intervals.begin(), intervals.end());
    std::uint64_t covered = 0;
    std::uint64_t reach = span.start_ns;
    for (auto [start, end] : intervals) {
      start = std::clamp(start, reach, span.end_ns);
      end = std::clamp(end, start, span.end_ns);
      covered += end - start;
      reach = std::max(reach, end);
    }
    self[i] = span.end_ns - span.start_ns - covered;
  }
  return self;
}

double SpanLog::total_ns(const std::string& name) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  double total = 0.0;
  for (const SpanRecord& span : spans_) {
    if (name == span.name) {
      total += static_cast<double>(span.end_ns - span.start_ns);
    }
  }
  return total;
}

bool SpanLog::write_jsonl(const std::string& path,
                          const std::string& header_json) const {
  std::ofstream out(path);
  if (!out) return false;
  const std::lock_guard<std::mutex> lock(mutex_);
  const std::vector<std::uint64_t> self = self_times();
  out << "{" << header_json << ",\"spans\":" << spans_.size() << "}\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& s = spans_[i];
    out << "{\"i\":" << i << ",\"name\":\"" << s.name << "\",\"id\":" << s.id
        << ",\"parent\":" << s.parent << ",\"start_ns\":" << s.start_ns
        << ",\"end_ns\":" << s.end_ns << ",\"self_ns\":" << self[i]
        << ",\"count\":" << s.count << "}\n";
  }
  return static_cast<bool>(out);
}

void save_spans(const SpanLog& spans, const Args& args, Outcome& out) {
  if (args.spans_path.empty()) return;
  const std::string header = "\"workload\":\"" + args.workload +
                             "\",\"seed\":" + std::to_string(args.seed);
  if (!spans.write_jsonl(args.spans_path, header)) {
    out.note("cannot write the span log to " + args.spans_path);
  }
}

}  // namespace perfbench
