// Campaign engine: spec expansion, parallel execution, deterministic
// aggregation, and the triad_campaign CLI.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <set>
#include <sstream>
#include <stdexcept>

#include "campaign/aggregate.h"
#include "campaign/cli.h"
#include "campaign/runner.h"
#include "campaign/spec.h"
#include "exp/recorder.h"
#include "exp/scenario.h"
#include "util/parse.h"

namespace triad::campaign {
namespace {

// ---------------------------------------------------------------- spec

TEST(CampaignSpec, ExpandsCartesianGridInFixedOrder) {
  CampaignSpec spec;
  spec.seeds = {1, 2, 3};
  spec.attacks = {"none", "fminus"};
  spec.policies = {"original"};
  spec.environments = {"triad", "low"};
  spec.node_counts = {3};
  EXPECT_EQ(spec.cell_count(), 4u);
  EXPECT_EQ(spec.run_count(), 12u);

  const std::vector<RunSpec> runs = spec.expand();
  ASSERT_EQ(runs.size(), 12u);
  for (std::size_t i = 0; i < runs.size(); ++i) {
    EXPECT_EQ(runs[i].index, i);
    EXPECT_EQ(runs[i].cell, i / spec.seeds.size());
  }
  // Seeds innermost, attacks next, environments outer.
  EXPECT_EQ(runs[0].seed, 1u);
  EXPECT_EQ(runs[2].seed, 3u);
  EXPECT_EQ(runs[0].attack, "none");
  EXPECT_EQ(runs[3].attack, "fminus");
  EXPECT_EQ(runs[0].environment, "triad");
  EXPECT_EQ(runs[6].environment, "low");
  EXPECT_EQ(runs[6].attack, "none");
}

TEST(CampaignSpec, ValidateRejectsBadAxes) {
  CampaignSpec spec;
  EXPECT_TRUE(spec.validate().empty());  // defaults are valid
  spec.attacks = {"sneaky"};
  EXPECT_NE(spec.validate().find("attack"), std::string::npos);
  spec = {};
  spec.policies = {"original", "x"};
  EXPECT_EQ(spec.validate(), "bad policy 'x' (original|triadplus)");
  spec = {};
  spec.environments = {"x"};
  EXPECT_EQ(spec.validate(), "bad environment 'x' (triad|low|none)");
  spec = {};
  spec.seeds.clear();
  EXPECT_NE(spec.validate().find("seeds"), std::string::npos);
  spec = {};
  spec.victim = 5;
  spec.node_counts = {3};
  EXPECT_NE(spec.validate().find("victim"), std::string::npos);
  spec = {};
  spec.duration = 0;
  EXPECT_NE(spec.validate().find("duration"), std::string::npos);
}

TEST(CampaignSpec, VictimIndexResolvesZeroToLastNode) {
  RunSpec run;
  run.nodes = 5;
  run.victim = 0;
  EXPECT_EQ(run.victim_index(), 4u);
  run.victim = 2;
  EXPECT_EQ(run.victim_index(), 1u);
}

TEST(CampaignSpec, ParsesKeyValueText) {
  const char* text =
      "# F- seed sweep\n"
      "seeds = 1..4, 10\n"
      "attacks = none, fminus\n"
      "policies = triadplus\n"
      "environments = low\n"
      "nodes = 3, 5\n"
      "duration = 90s\n"
      "attack_delay = 250ms\n"
      "victim = 3\n"
      "machine_interrupts = off\n";
  std::string error;
  const auto spec = parse_spec(text, &error);
  ASSERT_TRUE(spec.has_value()) << error;
  EXPECT_EQ(spec->seeds, (std::vector<std::uint64_t>{1, 2, 3, 4, 10}));
  EXPECT_EQ(spec->attacks, (std::vector<std::string>{"none", "fminus"}));
  EXPECT_EQ(spec->policies, (std::vector<std::string>{"triadplus"}));
  EXPECT_EQ(spec->environments, (std::vector<std::string>{"low"}));
  EXPECT_EQ(spec->node_counts, (std::vector<std::size_t>{3, 5}));
  EXPECT_EQ(spec->duration, seconds(90));
  EXPECT_EQ(spec->attack_delay, milliseconds(250));
  EXPECT_EQ(spec->victim, 3u);
  EXPECT_FALSE(spec->machine_interrupts);
  // A range ending at 2^64-1 stops there rather than wrapping to 0.
  const auto top = parse_spec(
      "seeds = 18446744073709551614..18446744073709551615\n", &error);
  ASSERT_TRUE(top.has_value()) << error;
  EXPECT_EQ(top->seeds, (std::vector<std::uint64_t>{18446744073709551614u,
                                                    18446744073709551615u}));
}

TEST(CampaignSpec, ParseRejectsBadSpecs) {
  std::string error;
  EXPECT_FALSE(parse_spec("seeds = 1..4\nbogus_key = 1\n", &error));
  EXPECT_NE(error.find("unknown key"), std::string::npos);
  EXPECT_FALSE(parse_spec("seeds 1..4\n", &error));
  EXPECT_NE(error.find("key = value"), std::string::npos);
  EXPECT_FALSE(parse_spec("seeds = 4..1\n", &error));
  // The seed axis holds at most kMaxSeeds in all, counted from each
  // range's bounds before any seed list is built.
  EXPECT_FALSE(parse_spec("seeds = 0..18446744073709551615\n", &error));
  EXPECT_NE(error.find("seeds"), std::string::npos);
  EXPECT_FALSE(parse_spec("seeds = 1..4000, 5001..5097\n", &error));
  const auto cap = parse_spec("seeds = 1..4000, 5001..5096\n", &error);
  ASSERT_TRUE(cap.has_value()) << error;
  EXPECT_EQ(cap->seeds.size(), kMaxSeeds);
  // Cluster sizes stop at kMaxNodes (parse level only: no scenario is
  // built from the value).
  EXPECT_FALSE(parse_spec("nodes = 3, 257\n", &error));
  EXPECT_EQ(error, "spec line 1: bad nodes '3, 257'");
  EXPECT_FALSE(parse_spec("nodes = 4294967297\n", &error));
  const auto nodes_cap = parse_spec("nodes = 256\n", &error);
  ASSERT_TRUE(nodes_cap.has_value()) << error;
  EXPECT_EQ(nodes_cap->node_counts, (std::vector<std::size_t>{kMaxNodes}));
  EXPECT_FALSE(parse_spec("duration = 10\n", &error));
  EXPECT_FALSE(parse_spec("attacks = chaos\n", &error));
  EXPECT_NE(error.find("attack"), std::string::npos);
  EXPECT_FALSE(parse_spec("machine_interrupts = maybe\n", &error));
  EXPECT_FALSE(parse_spec_file("/nonexistent/spec.campaign", &error));
  EXPECT_NE(error.find("cannot open"), std::string::npos);
}

// -------------------------------------------------------------- runner

CampaignSpec small_attack_spec() {
  CampaignSpec spec;
  spec.seeds = {1, 2, 3};
  spec.attacks = {"none", "fminus"};
  spec.duration = seconds(45);
  return spec;
}

TEST(CampaignRunner, ResultsLandInGridOrderWithRealScenarios) {
  RunnerOptions options;
  options.jobs = 4;
  CampaignRunner runner(options);
  const CampaignSpec spec = small_attack_spec();
  const CampaignResult result = runner.run(spec);

  ASSERT_EQ(result.runs.size(), 6u);
  EXPECT_EQ(result.failures, 0u);
  for (std::size_t i = 0; i < result.runs.size(); ++i) {
    EXPECT_EQ(result.runs[i].index, i);
    EXPECT_FALSE(result.runs[i].failed);
    EXPECT_GT(result.runs[i].events_executed, 0.0);
  }
  // The F- cell (cell 1) shows the attack: grossly miscalibrated victim.
  EXPECT_NEAR(result.runs[0].victim_freq_mhz, 2900.0, 5.0);
  EXPECT_NEAR(result.runs[3].victim_freq_mhz, 2610.0, 5.0);
}

// The determinism contract: the same spec must produce byte-identical
// aggregate reports at --jobs 1, 4, and 8.
TEST(CampaignDeterminism, ReportsAreByteIdenticalAcrossJobCounts) {
  const CampaignSpec spec = small_attack_spec();
  std::string json[3];
  std::string csv[3];
  const std::size_t jobs[3] = {1, 4, 8};
  for (int i = 0; i < 3; ++i) {
    RunnerOptions options;
    options.jobs = jobs[i];
    CampaignRunner runner(options);
    const CampaignReport report =
        CampaignReport::aggregate(spec, runner.run(spec));
    std::ostringstream json_out, csv_out;
    report.write_json(json_out);
    report.write_csv(csv_out);
    json[i] = json_out.str();
    csv[i] = csv_out.str();
  }
  EXPECT_EQ(json[0], json[1]);
  EXPECT_EQ(json[0], json[2]);
  EXPECT_EQ(csv[0], csv[1]);
  EXPECT_EQ(csv[0], csv[2]);
  EXPECT_NE(json[0].find("\"honest_max_jump_ms\""), std::string::npos);
}

TEST(CampaignRunner, FaultInjectedRunFailsOnlyItsCell) {
  CampaignSpec spec;
  spec.seeds = {1, 2};
  spec.attacks = {"none", "fminus"};
  std::atomic<int> executed{0};
  RunnerOptions options;
  options.jobs = 4;
  // Stub run function: index 1 (cell 0, seed 2) blows up in the
  // scenario factory; everything else succeeds.
  options.run_fn = [&executed](const RunSpec& run) -> RunResult {
    executed.fetch_add(1);
    if (run.index == 1) {
      throw std::runtime_error("injected scenario-factory failure");
    }
    RunResult result;
    result.availability = 1.0;
    return result;
  };
  CampaignRunner runner(std::move(options));
  const CampaignResult result = runner.run(spec);

  EXPECT_EQ(executed.load(), 4);  // the campaign still completed
  EXPECT_EQ(result.failures, 1u);
  ASSERT_EQ(result.runs.size(), 4u);
  EXPECT_TRUE(result.runs[1].failed);
  EXPECT_NE(result.runs[1].error.find("injected"), std::string::npos);
  EXPECT_EQ(result.runs[1].index, 1u);  // keeps its grid coordinates
  EXPECT_EQ(result.runs[1].seed, 2u);
  EXPECT_FALSE(result.runs[0].failed);
  EXPECT_FALSE(result.runs[2].failed);
  EXPECT_FALSE(result.runs[3].failed);

  // Aggregation: only cell 0 carries the failure; its stats use the
  // surviving run, and the campaign-level failure count is non-zero.
  const CampaignReport report = CampaignReport::aggregate(spec, result);
  EXPECT_EQ(report.failures, 1u);
  ASSERT_EQ(report.cells.size(), 2u);
  EXPECT_EQ(report.cells[0].failures, 1u);
  EXPECT_EQ(report.cells[1].failures, 0u);
  EXPECT_EQ(report.cells[0].metrics.front().stat.n, 1u);
  EXPECT_EQ(report.cells[1].metrics.front().stat.n, 2u);
  std::ostringstream json;
  report.write_json(json);
  EXPECT_NE(json.str().find("\"failures\": 1"), std::string::npos);
}

// CampaignRunner::run(runs) skips CampaignSpec::validate, so the
// scenario builder itself must refuse a hand-built RunSpec's bad axis
// name, before any hook runs; the run fails in place.
TEST(CampaignRunner, BadAxisNamesInHandBuiltRunsFailInPlace) {
  std::vector<RunSpec> runs(4);
  runs[0].attack = "sneaky";
  runs[1].policy = "x";
  runs[2].environment = "x";
  runs[3].duration = seconds(5);  // the one valid run
  for (std::size_t i = 0; i < runs.size(); ++i) {
    runs[i].index = 10 + i;
    runs[i].cell = 20 + i;
    runs[i].seed = 30 + i;
  }
  std::atomic<int> configured{0};
  RunnerOptions options;
  options.run.configure = [&configured](const RunSpec&,
                                        exp::ScenarioConfig&) {
    configured.fetch_add(1);
  };
  const CampaignResult result = CampaignRunner(std::move(options)).run(runs);

  ASSERT_EQ(result.runs.size(), 4u);
  EXPECT_EQ(result.failures, 3u);
  EXPECT_EQ(configured.load(), 1);
  const char* const errors[] = {"bad attack 'sneaky' (none|fplus|fminus)",
                                "bad policy 'x' (original|triadplus)",
                                "bad environment 'x' (triad|low|none)"};
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_TRUE(result.runs[i].failed);
    EXPECT_EQ(result.runs[i].error, errors[i]);
  }
  EXPECT_FALSE(result.runs[3].failed);
  for (std::size_t i = 0; i < runs.size(); ++i) {
    EXPECT_EQ(result.runs[i].index, 10 + i);
    EXPECT_EQ(result.runs[i].cell, 20 + i);
    EXPECT_EQ(result.runs[i].seed, 30 + i);
  }
}

TEST(CampaignRunner, HooksConfigureCustomizeAndInspectRun) {
  CampaignSpec spec;
  spec.seeds = {6};
  spec.attacks = {"fminus"};
  spec.duration = seconds(30);
  RunnerOptions options;
  options.run.configure = [](const RunSpec&, exp::ScenarioConfig& cfg) {
    cfg.environments = {exp::AexEnvironment::kLowAex,
                        exp::AexEnvironment::kLowAex,
                        exp::AexEnvironment::kTriadLike};
  };
  std::atomic<int> customized{0};
  options.run.customize = [&customized](const RunSpec&, exp::Scenario&) {
    customized.fetch_add(1);
  };
  options.run.inspect = [](const RunSpec&, exp::Scenario& scenario,
                           const exp::Recorder&, RunResult& result) {
    result.extra.emplace_back(
        "victim_freq_hz",
        scenario.node(2).calibrated_frequency_hz());
  };
  CampaignRunner runner(std::move(options));
  const CampaignResult result = runner.run(spec);
  ASSERT_EQ(result.runs.size(), 1u);
  EXPECT_EQ(customized.load(), 1);
  ASSERT_EQ(result.runs[0].extra.size(), 1u);
  EXPECT_EQ(result.runs[0].extra[0].first, "victim_freq_hz");

  // Extras surface in the aggregate report after the built-ins.
  const CampaignReport report = CampaignReport::aggregate(spec, result);
  ASSERT_FALSE(report.cells.empty());
  EXPECT_EQ(report.cells[0].metrics.back().name, "victim_freq_hz");
  EXPECT_GT(report.cells[0].metrics.back().stat.mean, 1e9);
}

// ----------------------------------------------------------- aggregate

TEST(Aggregate, StatOrderStatistics) {
  const Stat stat = Stat::of({4.0, 1.0, 3.0, 2.0});
  EXPECT_DOUBLE_EQ(stat.mean, 2.5);
  EXPECT_DOUBLE_EQ(stat.min, 1.0);
  EXPECT_DOUBLE_EQ(stat.max, 4.0);
  EXPECT_DOUBLE_EQ(stat.p50, 2.0);  // nearest-rank: ceil(0.5*4) = 2nd
  EXPECT_DOUBLE_EQ(stat.p95, 4.0);
  EXPECT_EQ(stat.n, 4u);
  const Stat empty = Stat::of({});
  EXPECT_EQ(empty.n, 0u);
  EXPECT_DOUBLE_EQ(empty.mean, 0.0);
}

TEST(Aggregate, RejectsMismatchedResults) {
  const CampaignSpec spec = small_attack_spec();
  CampaignResult result;
  result.runs.resize(2);  // spec expands to 6
  EXPECT_THROW(CampaignReport::aggregate(spec, result),
               std::invalid_argument);
}

// ------------------------------------------------------------------ cli

std::optional<CampaignCliOptions> parse(std::vector<const char*> args,
                                        std::string* error = nullptr) {
  args.insert(args.begin(), "triad_campaign");
  std::string local_error;
  return parse_campaign_cli(static_cast<int>(args.size()), args.data(),
                            error != nullptr ? error : &local_error);
}

TEST(CampaignCli, ParsesGridFlags) {
  const auto options =
      parse({"--seeds", "1..8,20", "--attack", "none,fminus", "--policy",
             "original,triadplus", "--env", "low", "--nodes", "3,5",
             "--duration", "90s", "--attack-delay", "50ms", "--victim", "2",
             "--jobs", "8", "--json", "report.json", "--csv", "-",
             "--metrics-dir", "runs", "--no-machine-interrupts"});
  ASSERT_TRUE(options.has_value());
  EXPECT_EQ(options->spec.seeds.size(), 9u);
  EXPECT_EQ(options->spec.seeds.back(), 20u);
  EXPECT_EQ(options->spec.attacks,
            (std::vector<std::string>{"none", "fminus"}));
  EXPECT_EQ(options->spec.policies,
            (std::vector<std::string>{"original", "triadplus"}));
  EXPECT_EQ(options->spec.environments, (std::vector<std::string>{"low"}));
  EXPECT_EQ(options->spec.node_counts, (std::vector<std::size_t>{3, 5}));
  EXPECT_EQ(options->spec.duration, seconds(90));
  EXPECT_EQ(options->spec.attack_delay, milliseconds(50));
  EXPECT_EQ(options->spec.victim, 2u);
  EXPECT_FALSE(options->spec.machine_interrupts);
  EXPECT_EQ(options->jobs, 8u);
  EXPECT_EQ(options->json_path, "report.json");
  EXPECT_EQ(options->csv_path, "-");
  EXPECT_EQ(options->metrics_dir, "runs");
}

TEST(CampaignCli, RejectsBadInput) {
  std::string error;
  EXPECT_FALSE(parse({"--bogus"}, &error).has_value());
  EXPECT_NE(error.find("unknown flag"), std::string::npos);
  EXPECT_FALSE(parse({"--seeds", "4..1"}, &error).has_value());
  EXPECT_FALSE(parse({"--attack", "chaos"}, &error).has_value());
  EXPECT_FALSE(parse({"--nodes", "0"}, &error).has_value());
  EXPECT_FALSE(parse({"--jobs", "0"}, &error).has_value());
  EXPECT_FALSE(parse({"--jobs", "65"}, &error).has_value());
  EXPECT_NE(error.find("--jobs"), std::string::npos);
  EXPECT_TRUE(parse({"--jobs", "64"}).has_value());
  EXPECT_FALSE(parse({"--seeds", "0..18446744073709551615"}, &error)
                   .has_value());
  EXPECT_FALSE(parse({"--victim", "9"}, &error).has_value());
  EXPECT_FALSE(
      parse({"--json", "-", "--csv", "-"}, &error).has_value());
  EXPECT_NE(error.find("at most one"), std::string::npos);
  // The JSON report goes to stdout by default, so a profile cannot too.
  error.clear();
  EXPECT_FALSE(parse({"--prof", "-"}, &error).has_value());
  EXPECT_NE(error.find("at most one"), std::string::npos);
  EXPECT_TRUE(parse({"--csv", "r.csv", "--prof", "-"}).has_value());
  EXPECT_EQ(parse({})->json_path, "-");
  EXPECT_TRUE(parse({"--help"})->help);
  EXPECT_FALSE(campaign_cli_usage().empty());
}

TEST(CampaignCli, RunsEndToEndWithStreamRules) {
  const auto options = parse({"--seeds", "1..2", "--attack", "fminus",
                              "--duration", "30s", "--jobs", "2"});
  ASSERT_TRUE(options.has_value());
  std::ostringstream out, err;
  EXPECT_EQ(run_campaign_cli(*options, out, err), 0);
  // JSON report on stdout (default), summary on the error stream.
  EXPECT_EQ(out.str().find("campaign:"), std::string::npos);
  EXPECT_NE(out.str().find("\"cells\""), std::string::npos);
  EXPECT_NE(out.str().find("\"honest_max_jump_ms\""), std::string::npos);
  EXPECT_NE(err.str().find("campaign: cells=1 runs=2 failures=0"),
            std::string::npos);
}

// The detectors' false-positive floor: an attack-free sweep of eight
// seeds raises no alarm in any cell.
TEST(CampaignRunner, HonestSweepRaisesNoAlarms) {
  CampaignSpec spec;
  spec.seeds = {1, 2, 3, 4, 5, 6, 7, 8};
  spec.attacks = {"none"};
  spec.duration = minutes(2);
  const CampaignResult result = CampaignRunner().run(spec);
  ASSERT_EQ(result.failures, 0u);
  const CampaignReport report = CampaignReport::aggregate(spec, result);
  ASSERT_FALSE(report.cells.empty());
  for (const CellReport& cell : report.cells) {
    const auto alarms = std::find_if(
        cell.metrics.begin(), cell.metrics.end(),
        [](const MetricStat& m) { return m.name == "detector_alarms"; });
    ASSERT_NE(alarms, cell.metrics.end()) << "cell " << cell.cell;
    EXPECT_EQ(alarms->stat.n, spec.seeds.size());
    EXPECT_EQ(alarms->stat.max, 0.0) << "cell " << cell.cell;
  }
}

// triad_sim's sweep mode (more than one seed) drives the same engine.
TEST(SimSweep, SeedRangeProducesAggregateReport) {
  std::vector<const char*> args = {"triad_sim", "--seeds",  "1..3",
                                   "--duration", "30s",     "--attack",
                                   "fminus",     "--jobs",  "2"};
  std::string error;
  const auto options = parse_sim_cli(static_cast<int>(args.size()),
                                     args.data(), &error);
  ASSERT_TRUE(options.has_value()) << error;
  ASSERT_EQ(options->spec.run_count(), 3u);
  std::ostringstream out, err;
  EXPECT_EQ(run_sim_cli(*options, out, err), 0);
  EXPECT_NE(out.str().find("\"runs\": 3"), std::string::npos);
  EXPECT_NE(err.str().find("sweep: seeds=1..3"), std::string::npos);

  // Byte-identical across jobs from this entry point too.
  SimCliOptions serial = *options;
  serial.jobs = 1;
  std::ostringstream out1, err1;
  EXPECT_EQ(run_sim_cli(serial, out1, err1), 0);
  EXPECT_EQ(out.str(), out1.str());
}

}  // namespace
}  // namespace triad::campaign
