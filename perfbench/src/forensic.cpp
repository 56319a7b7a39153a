// forensic workload: obs replay of a recorded F- attack trace.
//
// Set-up simulates one seeded 3-node F- scenario (the last node is the
// victim) for kTraceMinutes of virtual time into a trace ring of 2^20
// events, which it never fills (about 220k events), and serialises the
// ring with obs::write_jsonl — the text `triad_trace` and `triad_mon`
// read. Each measured replay parses that text, renders the
// forensic report, splits the events into per-node NodeStreams and
// renders the cluster report: what an operator waits for after fetching
// a trace. Only obs code runs; there is no crypto and no socket.
//
// --seed picks one of kSeedClasses scenarios, each with its two report
// digests stored in digests.txt.

#include <algorithm>
#include <map>
#include <optional>
#include <sstream>

#include "alloc_count.h"
#include "attacks/delay_attack.h"
#include "bench.h"
#include "exp/scenario.h"
#include "obs/cluster.h"
#include "obs/detect.h"
#include "obs/export.h"
#include "obs/forensic.h"
#include "obs/span.h"
#include "spans.h"

namespace perfbench {
namespace {

namespace obs = triad::obs;

constexpr std::size_t kTraceCapacity = std::size_t{1} << 20;
constexpr std::int64_t kTraceMinutes = 60;
constexpr std::size_t kNodes = 3;
constexpr std::uint64_t kScenarioSeedBase = 1000;
constexpr int kSetups = 3;  // set-up is timed this often, median kept

struct Recording {
  std::string text;
  triad::NodeId victim = 0;
  std::uint64_t dropped = 0;  // events the ring overwrote (must be 0)
};

Recording record(std::uint64_t scenario_seed) {
  triad::exp::ScenarioConfig config;
  config.seed = scenario_seed;
  config.node_count = kNodes;
  config.enable_detectors = true;
  config.trace_capacity = kTraceCapacity;
  triad::exp::Scenario scenario(std::move(config));
  triad::attacks::DelayAttackConfig attack;
  attack.kind = triad::attacks::AttackKind::kFMinus;
  attack.victim = scenario.node_address(kNodes - 1);
  attack.ta_address = scenario.ta_address();
  attack.added_delay = triad::milliseconds(100);
  scenario.add_delay_attack(attack);
  scenario.start();
  scenario.run_until(triad::minutes(kTraceMinutes));
  std::ostringstream text;
  obs::write_jsonl(*scenario.trace(), text);
  return Recording{text.str(), attack.victim, scenario.trace()->dropped()};
}

struct Replay {
  std::size_t events = 0;
  std::size_t rejected = 0;
  std::string forensic;
  std::string cluster;
  std::uint64_t allocations = 0;
  double wall_ns = 0.0;
};

std::vector<obs::NodeStream> split_by_node(
    const std::vector<obs::TraceEvent>& events) {
  std::map<triad::NodeId, std::size_t> slot;
  std::vector<obs::NodeStream> streams;
  for (const obs::TraceEvent& event : events) {
    auto [it, inserted] = slot.emplace(event.node, streams.size());
    if (inserted) streams.push_back(obs::NodeStream{event.node, {}});
    streams[it->second].events.push_back(event);
  }
  return streams;
}

// parse -> forensic_report, and per-node NodeStreams -> cluster_report.
Replay replay(const std::string& text, std::uint64_t id, SpanLog& spans) {
  obs::ForensicOptions forensic_options;
  forensic_options.json = true;
  obs::ClusterReportOptions cluster_options;
  cluster_options.json = true;

  Replay r;
  const std::uint64_t allocs_before = allocations();
  const std::uint64_t start = now_ns();
  ScopedSpan root(spans, "obs.replay", id);
  std::vector<obs::TraceEvent> events;
  {
    ScopedSpan span(spans, "obs.parse", id, root.index());
    events = obs::parse_jsonl(text, &r.rejected);
    span.set_count(events.size());
  }
  r.events = events.size();
  std::vector<obs::NodeStream> streams;
  {
    ScopedSpan span(spans, "obs.split_streams", id, root.index());
    streams = split_by_node(events);
  }
  {
    ScopedSpan span(spans, "obs.forensic_report", id, root.index());
    r.forensic = obs::forensic_report(std::move(events), forensic_options);
  }
  {
    ScopedSpan span(spans, "obs.cluster_report", id, root.index());
    r.cluster = obs::cluster_report(std::move(streams), cluster_options);
  }
  r.wall_ns = static_cast<double>(now_ns() - start);
  r.allocations = allocations() - allocs_before;
  return r;
}

// The `"alarms":[...]` array that follows position `from` in `json`.
std::string alarms_after(const std::string& json, std::size_t from) {
  const std::string key = "\"alarms\":[";
  const std::size_t open = json.find(key, from);
  if (open == std::string::npos) return "<none>";
  int depth = 0;
  for (std::size_t i = open + key.size() - 1; i < json.size(); ++i) {
    if (json[i] == '[') ++depth;
    if (json[i] == ']' && --depth == 0) {
      return json.substr(open, i + 1 - open);
    }
  }
  return "<unterminated>";
}

// Per-node verdicts: the cluster report's alarms for each node must be
// those forensic_report finds on that node's stream alone. Counts the
// nodes compared and the nodes that disagree.
struct VerdictCheck {
  std::size_t nodes = 0;
  std::size_t mismatches = 0;
};

VerdictCheck compare_verdicts(const std::string& text,
                              const std::string& cluster_json) {
  obs::ForensicOptions options;
  options.json = true;
  VerdictCheck check;
  for (obs::NodeStream& stream : split_by_node(obs::parse_jsonl(text))) {
    ++check.nodes;
    const std::string marker =
        "{\"node\":" + std::to_string(stream.node) + ",\"events\":";
    const std::size_t at = cluster_json.find(marker);
    const std::string single =
        alarms_after(obs::forensic_report(std::move(stream.events), options),
                     0);
    if (at == std::string::npos || alarms_after(cluster_json, at) != single) {
      ++check.mismatches;
    }
  }
  return check;
}

// `"suspect":{"node":N` in a forensic JSON report; 0 when absent.
triad::NodeId suspect_of(const std::string& forensic_json) {
  const std::string key = "\"suspect\":{\"node\":";
  const std::size_t at = forensic_json.find(key);
  if (at == std::string::npos) return 0;
  return static_cast<triad::NodeId>(
      std::stoul(forensic_json.substr(at + key.size(), 12)));
}

}  // namespace

std::string forensic_digest_lines(std::uint64_t seed_class) {
  SpanLog off(false);
  const Replay r = replay(record(kScenarioSeedBase + seed_class).text, 0, off);
  const std::string key = " " + std::to_string(seed_class) + " ";
  return "forensic" + key + digest(r.forensic) + "\ncluster" + key +
         digest(r.cluster) + "\n";
}

Outcome run_forensic(const Args& args) {
  Outcome out;
  SpanLog spans(args.trace);
  const std::uint64_t seed_class = args.seed % kSeedClasses;
  const std::uint64_t scenario_seed = kScenarioSeedBase + seed_class;

  // --- set-up: record + serialise (kSetups times, median) --------------
  std::vector<double> setup;
  Recording recording;
  for (int i = 0; i < kSetups; ++i) {
    const std::uint64_t start = now_ns();
    Recording fresh = record(scenario_seed);
    setup.push_back(static_cast<double>(now_ns() - start) / 1e9);
    if (fresh.dropped > 0) {
      out.fail(1, "the trace ring overwrote " + std::to_string(fresh.dropped) +
                      " events");
    }
    if (i > 0 && fresh.text != recording.text) {
      out.fail(1, "the seeded trace differs between recordings");
    }
    recording = std::move(fresh);
  }
  const std::string expected_forensic = stored_digest(
      args.digests_path, "forensic", std::to_string(seed_class));
  const std::string expected_cluster = stored_digest(
      args.digests_path, "cluster", std::to_string(seed_class));
  if (expected_forensic.empty() || expected_cluster.empty()) {
    out.fail(1, "no stored report digests for seed class " +
                    std::to_string(seed_class) + " in '" + args.digests_path +
                    "'");
  }

  // --- measured replays -------------------------------------------------
  // Only the first replay's reports are kept; later ones are compared
  // with them and dropped, so memory stays flat however many replays run.
  SpanLog untraced(false);
  std::optional<Replay> first;
  std::vector<double> wall_us;    // plain replays
  std::vector<double> traced_us;  // replays with spans
  const std::uint64_t start = now_ns();
  while (wall_us.size() + traced_us.size() < 3 ||
         static_cast<double>(now_ns() - start) / 1e9 < args.seconds) {
    const bool trace_this = args.trace && wall_us.size() > traced_us.size();
    const std::uint64_t id = wall_us.size() + traced_us.size();
    Replay r = replay(recording.text, id, trace_this ? spans : untraced);
    ++out.attempted;
    std::string problem;
    if (r.rejected > 0) {
      problem = std::to_string(r.rejected) + " lines rejected";
    }
    if (!expected_forensic.empty() && digest(r.forensic) != expected_forensic) {
      problem = "forensic digest " + digest(r.forensic) + " != stored";
    }
    if (!expected_cluster.empty() && digest(r.cluster) != expected_cluster) {
      problem = "cluster digest " + digest(r.cluster) + " != stored";
    }
    if (first.has_value() &&
        (r.forensic != first->forensic || r.cluster != first->cluster)) {
      problem = "reports changed between replays";
    }
    if (suspect_of(r.forensic) != recording.victim) {
      problem = "suspect is node " + std::to_string(suspect_of(r.forensic)) +
                ", the victim is " + std::to_string(recording.victim);
    }
    if (!problem.empty()) {
      out.fail(1, "replay " + std::to_string(id) + ": " + problem);
    }
    (trace_this ? traced_us : wall_us).push_back(r.wall_ns / 1e3);
    if (!first.has_value()) first = std::move(r);
  }
  const VerdictCheck verdicts =
      compare_verdicts(recording.text, first->cluster);
  out.attempted += verdicts.nodes;
  if (verdicts.mismatches > 0) {
    out.fail(verdicts.mismatches, "per-node verdicts differ between "
                                  "cluster_report and forensic_report");
  }
  out.note("forensic: " + std::to_string(first->events) + " events, " +
           std::to_string(wall_us.size()) + " plain and " +
           std::to_string(traced_us.size()) + " traced replays, digests " +
           digest(first->forensic) + " " + digest(first->cluster));

  const auto events = static_cast<double>(first->events);
  const double throughput = events / (median(wall_us) / 1e6);
  if (!args.trace) {
    out.add("setup_s", median(setup), "s");
    out.add("throughput", throughput, "op/s");
    out.add("latency_p50_us", percentile(wall_us, 0.50), "us");
    out.add("latency_p90_us", percentile(wall_us, 0.90), "us");
    out.add("peak_rss_mb", peak_rss_mb(), "MiB");
    out.add("ok_share", out.ok_share(), "share");
    return out;
  }

  // --- per-layer numbers: the replay's own spans, plus the two stages
  // forensic_report runs internally, replayed standalone and timed -----
  const double n = static_cast<double>(traced_us.size());
  const std::vector<obs::TraceEvent> parsed = obs::parse_jsonl(recording.text);
  for (std::size_t i = 0; i < traced_us.size(); ++i) {
    {
      ScopedSpan span(spans, "obs.span_index", i);
      const obs::SpanIndex index(parsed);
      span.set_count(index.spans().size());
    }
    {
      ScopedSpan span(spans, "obs.detector_replay", i);
      obs::DetectorConfig config;
      for (const obs::TraceEvent& event : parsed) {
        if (event.type == obs::TraceEventType::kTaServe) {
          config.ta_address = event.node;
          break;
        }
      }
      obs::DetectorBank bank(config, nullptr, nullptr);
      for (const obs::TraceEvent& event : parsed) bank.emit(event);
      span.set_count(bank.alarms().size());
    }
  }

  out.add("obs.trace_events", events, "count");
  out.add("obs.rejected_lines", static_cast<double>(first->rejected),
          "count");
  out.add("obs.parse_ns_per_event",
          spans.total_ns("obs.parse") / (n * events), "ns");
  out.add("obs.span_index_ms", spans.total_ns("obs.span_index") / 1e6 / n,
          "ms");
  out.add("obs.detector_replay_ms",
          spans.total_ns("obs.detector_replay") / 1e6 / n, "ms");
  out.add("obs.forensic_report_ms",
          spans.total_ns("obs.forensic_report") / 1e6 / n, "ms");
  out.add("obs.cluster_report_ms",
          spans.total_ns("obs.cluster_report") / 1e6 / n, "ms");
  out.add("obs.allocs_per_event",
          static_cast<double>(first->allocations) / events, "count");
  out.add("trace_overhead", median(wall_us) / median(traced_us), "ratio");
  save_spans(spans, args, out);
  return out;
}

}  // namespace perfbench
