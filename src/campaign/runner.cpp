#include "campaign/runner.h"

#include <atomic>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <thread>

#include "attacks/delay_attack.h"
#include "exp/axes.h"
#include "exp/recorder.h"
#include "exp/scenario.h"
#include "obs/export.h"
#include "obs/prof.h"
#include "resilient/triad_plus.h"
#include "runtime/monotonic_timer.h"

namespace triad::campaign {

std::unique_ptr<exp::Scenario> build_scenario(const RunSpec& spec,
                                              const RunOptions& options) {
  if (spec.nodes == 0) throw std::invalid_argument("run has zero nodes");
  if (spec.victim > spec.nodes) {
    throw std::invalid_argument("victim exceeds cluster size");
  }
  const std::optional<attacks::AttackKind> attack =
      exp::kAttacks.at(spec.attack);
  const exp::Policy policy = exp::kPolicies.at(spec.policy);

  exp::ScenarioConfig cfg;
  cfg.seed = spec.seed;
  cfg.node_count = spec.nodes;
  cfg.machine_interrupts = spec.machine_interrupts;
  cfg.environments.assign(spec.nodes, exp::kEnvironments.at(spec.environment));
  if (policy == exp::Policy::kTriadPlus) {
    cfg.node_template = resilient::harden(cfg.node_template);
    cfg.policy_factory = [] { return resilient::make_triad_plus_policy(); };
  }
  // Metrics and detectors are cheap, so every run has them; the trace
  // ring only exists when a dump asks for it.
  cfg.enable_metrics = true;
  cfg.enable_detectors = true;
  if (!options.metrics_dir.empty()) cfg.trace_capacity = kRunTraceCapacity;
  if (options.configure) options.configure(spec, cfg);

  auto scenario = std::make_unique<exp::Scenario>(std::move(cfg));
  if (attack) {
    attacks::DelayAttackConfig config;
    config.kind = *attack;
    config.victim = scenario->node_address(spec.victim_index());
    config.ta_address = scenario->ta_address();
    config.added_delay = spec.attack_delay;
    scenario->add_delay_attack(config);
  }
  if (options.customize) options.customize(spec, *scenario);
  return scenario;
}

RunResult execute_run(const RunSpec& spec, const RunOptions& options) {
  PROF_SCOPE("campaign/execute_run");
  const runtime::MonotonicTimer timer;
  const std::unique_ptr<exp::Scenario> built = [&] {
    PROF_SCOPE("campaign/scenario_build");
    return build_scenario(spec, options);
  }();
  exp::Scenario& scenario = *built;
  const std::size_t victim_index = spec.victim_index();
  exp::Recorder recorder(scenario, options.sample_period);
  {
    PROF_SCOPE("campaign/sim_run");
    scenario.start();
    scenario.run_until(spec.duration);
  }

  RunResult result;
  result.index = spec.index;
  result.cell = spec.cell;
  result.seed = spec.seed;
  // Covers the rest of the run: series reduction plus (when enabled)
  // the metrics dump, which nests its own scope under this one.
  PROF_SCOPE("campaign/reduce");

  const bool attacked = exp::kAttacks.at(spec.attack).has_value();
  std::uint64_t peer_rounds = 0;
  std::uint64_t peer_successes = 0;
  std::uint64_t aex = 0;
  for (std::size_t i = 0; i < scenario.node_count(); ++i) {
    const TriadNode& node = scenario.node(i);
    result.availability +=
        node.availability() / static_cast<double>(scenario.node_count());
    peer_rounds += node.stats().peer_rounds;
    peer_successes += node.stats().peer_adoptions + node.stats().kept_local;
    aex += node.stats().aex_count;
    const bool honest = !attacked || i != victim_index;
    const stats::TimeSeries& drift = recorder.drift_ms(i);
    if (honest && !drift.empty()) {
      result.honest_max_abs_drift_ms =
          std::max({result.honest_max_abs_drift_ms,
                    std::abs(drift.min_value()), std::abs(drift.max_value())});
    }
  }
  result.peer_untaint_rate =
      peer_rounds == 0 ? 0.0
                       : static_cast<double>(peer_successes) /
                             static_cast<double>(peer_rounds);
  result.aex_total = static_cast<double>(aex);
  const stats::TimeSeries& victim_drift = recorder.drift_ms(victim_index);
  if (!victim_drift.empty()) {
    result.victim_final_drift_ms = victim_drift.samples().back().value;
  }
  result.victim_freq_mhz =
      scenario.node(victim_index).calibrated_frequency_hz() / 1e6;
  for (const exp::AdoptionEvent& event : recorder.adoptions()) {
    const bool honest = !attacked || event.node != victim_index;
    if (honest && event.source != scenario.ta_address() && event.step() > 0) {
      result.honest_max_jump_ms =
          std::max(result.honest_max_jump_ms, to_milliseconds(event.step()));
    }
  }
  result.adoptions = static_cast<double>(recorder.adoptions().size());
  result.ta_requests = static_cast<double>(
      scenario.time_authority().stats().requests_served);
  result.events_executed =
      static_cast<double>(scenario.simulation().events_executed());
  if (const obs::DetectorBank* bank = scenario.detectors();
      bank != nullptr) {
    result.detector_alarms = static_cast<double>(bank->alarms().size());
    result.detector_first_alarm_s =
        bank->first_alarm_at() < 0 ? -1.0
                                   : to_seconds(bank->first_alarm_at());
    const NodeId victim_address = scenario.node_address(victim_index);
    for (const obs::Alarm& alarm : bank->alarms()) {
      // With no attack there is nothing to detect: every alarm is
      // false. Under attack an alarm is false when it points at a
      // wrong node — true positives implicate the victim directly
      // (slope, disagreement) or as the adoption source (jump), or
      // stay unattributed (disagreement before three nodes calibrated).
      const bool accuses_honest =
          (alarm.node != 0 || alarm.source != 0) &&
          alarm.node != victim_address && alarm.source != victim_address;
      if (!attacked || accuses_honest) {
        result.detector_false_alarms += 1.0;
      }
    }
  }
  if (options.inspect) options.inspect(spec, scenario, recorder, result);

  if (!options.metrics_dir.empty()) {
    PROF_SCOPE("campaign/metrics_dump");
    std::filesystem::create_directories(options.metrics_dir);
    const std::string base = (std::filesystem::path(options.metrics_dir) /
                              ("run_" + std::to_string(spec.index)))
                                 .string();
    const auto dump = [&base](const char* extension, const auto& write) {
      std::ofstream file(base + extension);
      if (!file) throw std::runtime_error("cannot open " + base + extension);
      write(file);
    };
    dump(".prom", [&](std::ostream& os) {
      scenario.metrics()->write_prometheus(os);
    });
    if (scenario.trace() != nullptr) {
      dump(".jsonl", [&](std::ostream& os) {
        obs::write_jsonl(*scenario.trace(), os);
      });
    }
  }

  result.wall_ms = timer.elapsed_ms();
  return result;
}

CampaignRunner::CampaignRunner(RunnerOptions options)
    : options_(std::move(options)) {
  if (options_.jobs == 0) options_.jobs = 1;
}

CampaignResult CampaignRunner::run(const CampaignSpec& spec) {
  if (std::string message = spec.validate(); !message.empty()) {
    throw std::invalid_argument("invalid campaign spec: " + message);
  }
  return run(spec.expand());
}

CampaignResult CampaignRunner::run(const std::vector<RunSpec>& runs) {
  const runtime::MonotonicTimer campaign_timer;
  CampaignResult result;
  result.runs.resize(runs.size());

  const auto run_one = [this](const RunSpec& spec) {
    return options_.run_fn ? options_.run_fn(spec)
                           : execute_run(spec, options_.run);
  };

  std::atomic<std::size_t> next{0};
  std::atomic<std::size_t> failures{0};
  std::mutex complete_mutex;
  const auto worker = [&] {
    for (std::size_t i = next.fetch_add(1); i < runs.size();
         i = next.fetch_add(1)) {
      // How long this run sat in the queue before a worker picked it
      // up — the --jobs scaling signal (summary-stream only, like
      // wall_ms).
      const double queue_ms = campaign_timer.elapsed_ms();
      RunResult run_result;
      try {
        run_result = run_one(runs[i]);
      } catch (const std::exception& e) {
        run_result = RunResult{};
        run_result.failed = true;
        run_result.error = e.what();
      }
      run_result.queue_ms = queue_ms;
      // A failed run keeps its grid coordinates so the Aggregator can
      // attribute the failure to the right cell.
      run_result.index = runs[i].index;
      run_result.cell = runs[i].cell;
      run_result.seed = runs[i].seed;
      if (run_result.failed) failures.fetch_add(1);
      // Slot by position in the run list: deterministic regardless of
      // which worker finished first.
      result.runs[i] = std::move(run_result);
      if (options_.on_complete) {
        const std::lock_guard<std::mutex> lock(complete_mutex);
        options_.on_complete(result.runs[i]);
      }
    }
  };

  const std::size_t jobs = std::min(options_.jobs, std::max<std::size_t>(
                                                       runs.size(), 1));
  if (jobs <= 1) {
    worker();
  } else {
    std::vector<std::thread> threads;
    threads.reserve(jobs);
    for (std::size_t i = 0; i < jobs; ++i) threads.emplace_back(worker);
    for (std::thread& thread : threads) thread.join();
  }

  result.failures = failures.load();
  result.wall_ms = campaign_timer.elapsed_ms();

  if (!options_.run.metrics_dir.empty() && !options_.run_fn) {
    write_metrics_index(runs, result);
  }
  return result;
}

void CampaignRunner::write_metrics_index(const std::vector<RunSpec>& runs,
                                         const CampaignResult& result) const {
  namespace fs = std::filesystem;
  const fs::path dir(options_.run.metrics_dir);
  std::ofstream out(dir / "index.json");
  if (!out) {
    throw std::runtime_error("cannot open " + (dir / "index.json").string());
  }
  // Grid order (== run-list order), so the manifest is byte-identical
  // at every job count. Artifact names are listed only when the run
  // actually produced them (failed runs dump nothing; traces depend on
  // the scenario's ring being enabled).
  out << "{\n  \"runs\": [";
  for (std::size_t i = 0; i < runs.size(); ++i) {
    const RunSpec& spec = runs[i];
    const std::string stem = "run_" + std::to_string(spec.index);
    const bool failed = result.runs[i].failed;
    out << (i == 0 ? "\n" : ",\n");
    out << "    {\"index\": " << spec.index << ", \"cell\": " << spec.cell
        << ", \"seed\": " << spec.seed << ", \"nodes\": " << spec.nodes
        << ", \"environment\": \"" << spec.environment << "\", \"policy\": \""
        << spec.policy << "\", \"attack\": \"" << spec.attack
        << "\", \"failed\": " << (failed ? "true" : "false");
    if (!failed && fs::exists(dir / (stem + ".prom"))) {
      out << ", \"prom\": \"" << stem << ".prom\"";
    }
    if (!failed && fs::exists(dir / (stem + ".jsonl"))) {
      out << ", \"trace\": \"" << stem << ".jsonl\"";
    }
    out << "}";
  }
  out << "\n  ]\n}\n";
}

}  // namespace triad::campaign
