// campaign workload: the simulator behind the paper's figures, driven
// through campaign::CampaignRunner with two worker threads.
//
// The grid is {none, fminus} x {original, triadplus} x kSeedsPerCell
// seeds of a 3-node cluster, kVirtualMinutes of virtual time each. --seed
// picks one of kSeedClasses seed blocks, so every input set has an
// aggregate-report digest stored in digests.txt. A run repeats the whole
// grid until its measured time is used up; every repetition must
// reproduce the stored digest with zero failed runs.
//
// The traced pass alternates plain repetitions (allocation and event
// counts, the untraced throughput reference) with traced ones: RunOptions
// hooks record spans configure -> customize -> inspect -> completion, and
// the program's own scope profiler is switched on through obs::Profiler.

#include <algorithm>
#include <sstream>

#include "alloc_count.h"
#include "bench.h"
#include "campaign/aggregate.h"
#include "campaign/runner.h"
#include "campaign/spec.h"
#include "obs/prof.h"
#include "spans.h"

namespace perfbench {
namespace {

namespace campaign = triad::campaign;

constexpr std::size_t kJobs = 2;
constexpr std::uint64_t kSeedsPerCell = 16;
constexpr std::int64_t kVirtualMinutes = 10;
constexpr int kExpansions = 101;  // setup is timed this often, median kept

campaign::CampaignSpec make_spec(std::uint64_t seed_class) {
  campaign::CampaignSpec spec;
  spec.seeds.clear();
  for (std::uint64_t i = 1; i <= kSeedsPerCell; ++i) {
    spec.seeds.push_back(seed_class * kSeedsPerCell + i);
  }
  spec.attacks = {"none", "fminus"};
  spec.policies = {"original", "triadplus"};
  spec.environments = {"triad"};
  spec.node_counts = {3};
  spec.duration = triad::minutes(kVirtualMinutes);
  return spec;
}

// Per-run hook timestamps; each run is touched by one worker thread only.
struct HookTimes {
  std::uint64_t configure = 0;
  std::uint64_t customize = 0;
  std::uint64_t inspect = 0;
  std::uint64_t complete = 0;
};

struct Repetition {
  campaign::CampaignResult result;
  std::string report;
  double wall_s = 0.0;
  double aggregate_ns = 0.0;
  double write_ns = 0.0;
  std::uint64_t allocations = 0;
  double events = 0.0;
  double node_seconds = 0.0;

  [[nodiscard]] double throughput() const {
    return wall_s > 0 ? node_seconds / wall_s : 0.0;
  }
};

Repetition run_grid(const campaign::CampaignSpec& spec,
                    const std::vector<campaign::RunSpec>& runs,
                    std::vector<HookTimes>* hooks) {
  campaign::RunnerOptions options;
  options.jobs = kJobs;
  if (hooks != nullptr) {
    hooks->assign(runs.size(), HookTimes{});
    options.run.configure = [hooks](const campaign::RunSpec& run,
                                    triad::exp::ScenarioConfig&) {
      (*hooks)[run.index].configure = now_ns();
    };
    options.run.customize = [hooks](const campaign::RunSpec& run,
                                    triad::exp::Scenario&) {
      (*hooks)[run.index].customize = now_ns();
    };
    options.run.inspect = [hooks](const campaign::RunSpec& run,
                                  triad::exp::Scenario&,
                                  const triad::exp::Recorder&,
                                  campaign::RunResult&) {
      (*hooks)[run.index].inspect = now_ns();
    };
    options.on_complete = [hooks](const campaign::RunResult& result) {
      (*hooks)[result.index].complete = now_ns();
    };
  }
  campaign::CampaignRunner runner(options);

  Repetition rep;
  const std::uint64_t allocs_before = allocations();
  const std::uint64_t start = now_ns();
  rep.result = runner.run(runs);
  rep.wall_s = static_cast<double>(now_ns() - start) / 1e9;
  rep.allocations = allocations() - allocs_before;

  const std::uint64_t t0 = now_ns();
  const campaign::CampaignReport report =
      campaign::CampaignReport::aggregate(spec, rep.result);
  const std::uint64_t t1 = now_ns();
  std::ostringstream json;
  report.write_json(json);
  const std::uint64_t t2 = now_ns();
  rep.aggregate_ns = static_cast<double>(t1 - t0);
  rep.write_ns = static_cast<double>(t2 - t1);
  rep.report = json.str();

  for (std::size_t i = 0; i < runs.size(); ++i) {
    if (rep.result.runs[i].failed) continue;
    rep.events += rep.result.runs[i].events_executed;
    rep.node_seconds += static_cast<double>(runs[i].nodes) *
                        triad::to_seconds(runs[i].duration);
  }
  return rep;
}

// Sums every profiler node whose name starts with `prefix`.
struct ScopeSum {
  std::uint64_t count = 0;
  std::uint64_t incl_ns = 0;
  std::uint64_t excl_ns = 0;
};

void sum_scopes(const triad::obs::ProfNode& node, const std::string& prefix,
                ScopeSum* sum) {
  if (node.name.rfind(prefix, 0) == 0) {
    sum->count += node.count;
    sum->incl_ns += node.incl_ns;
    sum->excl_ns += node.excl_ns();
  }
  for (const auto& child : node.children) sum_scopes(child, prefix, sum);
}

}  // namespace

std::string campaign_digest_lines(std::uint64_t seed_class) {
  const campaign::CampaignSpec spec = make_spec(seed_class);
  const Repetition rep = run_grid(spec, spec.expand(), nullptr);
  if (rep.result.failures > 0) return "";
  return "campaign " + std::to_string(seed_class) + " " + digest(rep.report) +
         "\n";
}

Outcome run_campaign(const Args& args) {
  Outcome out;
  SpanLog spans(args.trace);
  const std::uint64_t seed_class = args.seed % kSeedClasses;
  const campaign::CampaignSpec spec = make_spec(seed_class);

  // --- set-up: spec validation + expansion ------------------------------
  std::vector<double> setup;
  std::vector<campaign::RunSpec> runs;
  for (int i = 0; i < kExpansions; ++i) {
    const std::uint64_t start = now_ns();
    if (const std::string problem = spec.validate(); !problem.empty()) {
      out.fail(1, "invalid spec: " + problem);
      return out;
    }
    runs = spec.expand();
    setup.push_back(static_cast<double>(now_ns() - start) / 1e9);
  }

  const std::string expected = stored_digest(
      args.digests_path, "campaign", std::to_string(seed_class));
  if (expected.empty()) {
    out.fail(1, "no stored aggregate digest for seed class " +
                    std::to_string(seed_class) + " in '" + args.digests_path +
                    "'");
  }

  std::vector<Repetition> plain;
  std::vector<Repetition> traced;
  std::vector<HookTimes> hooks;
  std::vector<double> run_us;
  triad::obs::Profiler& profiler = triad::obs::Profiler::instance();
  profiler.reset();
  const std::uint64_t start = now_ns();
  const auto elapsed_s = [&] {
    return static_cast<double>(now_ns() - start) / 1e9;
  };
  // Plain and traced repetitions alternate in the traced pass, so slow
  // phases of the host land on both sides of trace_overhead.
  while (plain.size() + traced.size() < 2 || elapsed_s() < args.seconds) {
    const bool trace_this = args.trace && plain.size() > traced.size();
    if (trace_this) profiler.set_enabled(true);
    Repetition rep = run_grid(spec, runs, trace_this ? &hooks : nullptr);
    profiler.set_enabled(false);

    out.attempted += runs.size();
    if (rep.result.failures > 0) {
      out.fail(rep.result.failures, "campaign runs failed");
    }
    const std::string got = digest(rep.report);
    if (!expected.empty() && got != expected) {
      out.fail(runs.size() - rep.result.failures,
               "aggregate digest " + got + " != stored " + expected);
    }
    if (!plain.empty() && rep.report != plain.front().report) {
      out.fail(runs.size(), "aggregate report changed between repetitions");
    }
    if (plain.empty()) out.note("campaign: aggregate digest " + got);

    for (const auto& result : rep.result.runs) {
      if (!result.failed && !trace_this) run_us.push_back(result.wall_ms * 1e3);
    }
    if (trace_this) {
      const std::uint64_t rep_id = traced.size();
      for (std::size_t i = 0; i < runs.size(); ++i) {
        if (rep.result.runs[i].failed) continue;  // hooks may not have run
        const HookTimes& h = hooks[i];
        const std::uint64_t id = rep_id * runs.size() + i;
        const std::int64_t parent =
            spans.add("campaign.run", id, -1, h.configure, h.complete);
        spans.add("exp.scenario_build", id, parent, h.configure, h.customize);
        spans.add("sim.run", id, parent, h.customize, h.inspect);
        spans.add("campaign.reduce", id, parent, h.inspect, h.complete);
      }
      traced.push_back(std::move(rep));
    } else {
      plain.push_back(std::move(rep));
    }
  }

  std::vector<double> throughputs;
  for (const Repetition& rep : plain) throughputs.push_back(rep.throughput());
  const double throughput = median(throughputs);
  out.note("campaign: " + std::to_string(plain.size()) + " plain and " +
           std::to_string(traced.size()) + " traced repetitions of " +
           std::to_string(runs.size()) + " runs");

  if (!args.trace) {
    out.add("setup_s", median(setup), "s");
    out.add("throughput", throughput, "op/s");
    out.add("latency_p50_us", percentile(run_us, 0.50), "us");
    out.add("latency_p90_us", percentile(run_us, 0.90), "us");
    out.add("peak_rss_mb", peak_rss_mb(), "MiB");
    out.add("ok_share", out.ok_share(), "share");
    return out;
  }

  // --- per-layer numbers -------------------------------------------------
  const Repetition& first = plain.front();
  for (const Repetition& rep : plain) {
    if (rep.allocations != first.allocations || rep.events != first.events) {
      out.note("campaign: allocation or event count differs between "
               "repetitions");
    }
  }
  const double n_runs = static_cast<double>(runs.size() * traced.size());
  const double ms = 1e6;
  out.add("exp.scenario_build_ms",
          spans.total_ns("exp.scenario_build") / ms / n_runs, "ms");
  out.add("sim.run_ms", spans.total_ns("sim.run") / ms / n_runs, "ms");
  out.add("campaign.reduce_ms", spans.total_ns("campaign.reduce") / ms / n_runs,
          "ms");

  std::vector<double> queue_ms;
  std::vector<double> wall_ms;
  double wall_sum_ms = 0.0;
  for (const Repetition& rep : traced) {
    for (const auto& result : rep.result.runs) {
      if (result.failed) continue;
      queue_ms.push_back(result.queue_ms);
      wall_ms.push_back(result.wall_ms);
      wall_sum_ms += result.wall_ms;
    }
  }
  const double wall_max =
      wall_ms.empty() ? 0.0 : *std::max_element(wall_ms.begin(), wall_ms.end());
  out.add("campaign.queue_ms", percentile(queue_ms, 0.5), "ms");
  out.add("campaign.run_ms_max_over_p50", wall_max / percentile(wall_ms, 0.5),
          "ratio");

  std::vector<double> aggregate_ms;
  std::vector<double> write_ms;
  std::vector<double> grid_s;
  for (const Repetition& rep : plain) {
    aggregate_ms.push_back(rep.aggregate_ns / ms);
    write_ms.push_back(rep.write_ns / ms);
    grid_s.push_back(rep.wall_s);
  }
  out.add("campaign.aggregate_ms", median(aggregate_ms), "ms");
  out.add("obs.report_write_ms", median(write_ms), "ms");
  out.add("sim.events", first.events, "count");
  out.add("sim.events_per_s", first.events / median(grid_s), "1/s");

  const triad::obs::ProfTree tree = profiler.merge();
  profiler.reset();
  std::uint64_t profiled_ns = 0;
  for (const auto& top : tree.root.children) profiled_ns += top.incl_ns;
  const auto share = [&](const std::string& prefix) {
    ScopeSum sum;
    sum_scopes(tree.root, prefix, &sum);
    return profiled_ns > 0 ? static_cast<double>(sum.excl_ns) /
                                 static_cast<double>(profiled_ns)
                           : 0.0;
  };
  const auto per_call_ns = [&](const std::string& name) {
    ScopeSum sum;
    sum_scopes(tree.root, name, &sum);
    return sum.count > 0 ? static_cast<double>(sum.incl_ns) /
                               static_cast<double>(sum.count)
                         : 0.0;
  };
  out.add("sim.dispatch_self_share", share("sim/dispatch"), "share");
  out.add("net.send_self_share", share("net/send"), "share");
  out.add("net.deliver_self_share", share("net/deliver"), "share");
  out.add("crypto.self_share", share("crypto/"), "share");
  out.add("crypto.gcm_seal_ns", per_call_ns("crypto/gcm_seal"), "ns");
  out.add("crypto.gcm_open_ns", per_call_ns("crypto/gcm_open"), "ns");

  out.add("campaign.allocs_per_event",
          static_cast<double>(first.allocations) / first.events, "count");
  const double span_sum_ns = spans.total_ns("exp.scenario_build") +
                       spans.total_ns("sim.run") +
                       spans.total_ns("campaign.reduce");
  out.add("campaign.span_sum_over_wall", span_sum_ns / (wall_sum_ms * ms),
          "ratio");

  std::vector<double> traced_tp;
  for (const Repetition& rep : traced) traced_tp.push_back(rep.throughput());
  out.add("trace_overhead", median(traced_tp) / throughput, "ratio");
  save_spans(spans, args, out);
  return out;
}

}  // namespace perfbench
