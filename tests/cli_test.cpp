// triad_sim's flag parser and runner, and the flags it shares with
// triad_campaign.
#include <gtest/gtest.h>

#include <iostream>
#include <sstream>
#include <vector>

#include "campaign/cli.h"
#include "util/parse.h"

namespace triad::campaign {
namespace {

std::optional<SimCliOptions> parse(std::vector<const char*> args,
                                   std::string* error = nullptr) {
  args.insert(args.begin(), "triad_sim");
  std::string local_error;
  return parse_sim_cli(static_cast<int>(args.size()), args.data(),
                       error != nullptr ? error : &local_error);
}

// Runs triad_sim on `args`, which must parse.
int run(std::vector<const char*> args, std::ostream& out,
        std::ostream& err = std::cerr) {
  std::string error;
  const auto options = parse(std::move(args), &error);
  EXPECT_TRUE(options.has_value()) << error;
  return options ? run_sim_cli(*options, out, err) : -1;
}

std::optional<CampaignCliOptions> parse_campaign(
    std::vector<const char*> args, std::string* error) {
  args.insert(args.begin(), "triad_campaign");
  return parse_campaign_cli(static_cast<int>(args.size()), args.data(),
                            error);
}

TEST(CliParser, DefaultsWhenNoFlags) {
  const auto options = parse({});
  ASSERT_TRUE(options.has_value());
  EXPECT_EQ(options->spec.node_counts, (std::vector<std::size_t>{3}));
  EXPECT_EQ(options->spec.seeds, (std::vector<std::uint64_t>{1}));
  EXPECT_EQ(options->spec.duration, minutes(10));
  EXPECT_EQ(options->spec.attacks, (std::vector<std::string>{"none"}));
  EXPECT_EQ(options->spec.policies, (std::vector<std::string>{"original"}));
  // The last node, as in triad_campaign.
  EXPECT_EQ(options->spec.victim, 0u);
  EXPECT_EQ(options->spec.run_count(), 1u);
  EXPECT_FALSE(options->csv_path.has_value());
  EXPECT_FALSE(options->json_path.has_value());
  EXPECT_FALSE(options->help);
  // The default victim fits every cluster size, so small clusters parse.
  for (const char* nodes : {"1", "2"}) {
    const auto small = parse({"--nodes", nodes});
    ASSERT_TRUE(small.has_value()) << "--nodes " << nodes;
    EXPECT_EQ(small->spec.victim, 0u);
  }
}

TEST(CliParser, ParsesAllFlags) {
  const auto options =
      parse({"--seed", "42", "--nodes", "5", "--duration", "30m",
             "--attack", "fminus", "--victim", "2", "--attack-delay",
             "250ms", "--policy", "triadplus", "--env", "low", "--env",
             "triad", "--no-machine-interrupts", "--csv", "out.csv"});
  ASSERT_TRUE(options.has_value());
  EXPECT_EQ(options->spec.seeds, (std::vector<std::uint64_t>{42}));
  EXPECT_EQ(options->spec.node_counts, (std::vector<std::size_t>{5}));
  EXPECT_EQ(options->spec.duration, minutes(30));
  EXPECT_EQ(options->spec.attacks, (std::vector<std::string>{"fminus"}));
  EXPECT_EQ(options->spec.victim, 2u);
  EXPECT_EQ(options->spec.attack_delay, milliseconds(250));
  EXPECT_EQ(options->spec.policies, (std::vector<std::string>{"triadplus"}));
  // Per-node environments stay out of the grid's one environment axis.
  EXPECT_EQ(options->environments,
            (std::vector<std::string>{"low", "triad"}));
  EXPECT_EQ(options->spec.environments, (std::vector<std::string>{"triad"}));
  EXPECT_FALSE(options->spec.machine_interrupts);
  EXPECT_EQ(options->csv_path, "out.csv");
}

TEST(CliParser, DurationUnits) {
  EXPECT_EQ(parse({"--duration", "90s"})->spec.duration, seconds(90));
  EXPECT_EQ(parse({"--duration", "500ms"})->spec.duration,
            milliseconds(500));
  EXPECT_EQ(parse({"--duration", "8h"})->spec.duration, hours(8));
}

TEST(CliParser, HelpShortCircuits) {
  EXPECT_TRUE(parse({"--help"})->help);
  EXPECT_TRUE(parse({"-h", "--bogus-after-help-is-fine"})->help);
  EXPECT_FALSE(sim_cli_usage().empty());
}

TEST(CliParser, RejectsBadInput) {
  std::string error;
  EXPECT_FALSE(parse({"--bogus"}, &error).has_value());
  EXPECT_NE(error.find("unknown flag"), std::string::npos);
  EXPECT_FALSE(parse({"--seed"}, &error).has_value());      // missing value
  EXPECT_FALSE(parse({"--seed", "xyz"}, &error).has_value());
  EXPECT_FALSE(parse({"--nodes", "0"}, &error).has_value());
  EXPECT_FALSE(parse({"--duration", "10"}, &error).has_value());  // no unit
  EXPECT_FALSE(parse({"--duration", "m10"}, &error).has_value());
  EXPECT_FALSE(parse({"--attack", "f?"}, &error).has_value());
  EXPECT_FALSE(parse({"--policy", "magic"}, &error).has_value());
  EXPECT_FALSE(parse({"--env", "chaotic"}, &error).has_value());
  EXPECT_FALSE(parse({"--victim", "9"}, &error).has_value());  // > nodes
  EXPECT_FALSE(
      parse({"--nodes", "1", "--env", "low", "--env", "low"}, &error)
          .has_value());
  // A bad axis name fails at parse time with the axis table's text,
  // naming every valid choice, as in triad_campaign.
  EXPECT_FALSE(parse({"--attack", "sneaky"}, &error).has_value());
  EXPECT_EQ(error, "bad attack 'sneaky' (none|fplus|fminus)");
  EXPECT_FALSE(parse({"--policy", "x"}, &error).has_value());
  EXPECT_EQ(error, "bad policy 'x' (original|triadplus)");
  EXPECT_FALSE(parse({"--env", "x"}, &error).has_value());
  EXPECT_EQ(error, "bad environment 'x' (triad|low|none)");
  // One cell per run: several values on a non-seed axis point to
  // triad_campaign.
  const std::pair<const char*, const char*> several[] = {
      {"--nodes", "1,3"},
      {"--attack", "none,fminus"},
      {"--policy", "original,triadplus"}};
  for (const auto& [flag, values] : several) {
    EXPECT_FALSE(parse({flag, values}, &error).has_value()) << flag;
    EXPECT_NE(error.find("triad_sim runs one cell"), std::string::npos);
    EXPECT_NE(error.find("triad_campaign"), std::string::npos);
  }
  // Cluster sizes stop at kMaxNodes (parse level only: no scenario is
  // built from the value).
  EXPECT_FALSE(parse({"--nodes", "257"}, &error).has_value());
  EXPECT_EQ(error, "bad --nodes '257'");
  EXPECT_FALSE(parse({"--nodes", "4294967297"}, &error).has_value());
  const auto cap = parse({"--nodes", "256"});
  ASSERT_TRUE(cap.has_value());
  EXPECT_EQ(cap->spec.node_counts, (std::vector<std::size_t>{kMaxNodes}));
}

TEST(CliParser, GeoAndAttestationFlags) {
  const auto options =
      parse({"--machine", "0", "--machine", "0", "--machine", "1",
             "--wan-delay", "50ms", "--attested"});
  ASSERT_TRUE(options.has_value());
  EXPECT_EQ(options->machines, (std::vector<std::size_t>{0, 0, 1}));
  EXPECT_EQ(options->wan_delay, milliseconds(50));
  EXPECT_TRUE(options->attested);
  std::string error;
  EXPECT_FALSE(parse({"--machine", "x"}, &error).has_value());
  EXPECT_FALSE(parse({"--wan-delay", "0ms"}, &error).has_value());
  EXPECT_FALSE(parse({"--nodes", "1", "--machine", "0", "--machine", "1"},
                     &error)
                   .has_value());
  // Machines 0..N cover N nodes plus the TA's machine 0; Scenario sizes
  // its interrupt-hub table by the largest index.
  EXPECT_FALSE(parse({"--nodes", "3", "--machine", "4"}, &error).has_value());
  EXPECT_NE(error.find("--machine"), std::string::npos);
  EXPECT_FALSE(
      parse({"--machine", "18446744073709551615"}, &error).has_value());
  const auto last = parse({"--nodes", "3", "--machine", "3"});
  ASSERT_TRUE(last.has_value());
  EXPECT_EQ(last->machines, (std::vector<std::size_t>{3}));
}

TEST(CliParser, SeedSweepFlags) {
  const auto range = parse({"--seeds", "1..32", "--jobs", "4"});
  ASSERT_TRUE(range.has_value());
  EXPECT_EQ(range->spec.seeds.size(), 32u);
  EXPECT_EQ(range->spec.seeds.front(), 1u);
  EXPECT_EQ(range->spec.seeds.back(), 32u);
  EXPECT_EQ(range->spec.run_count(), 32u);
  EXPECT_EQ(range->jobs, 4u);
  // A sweep's JSON report goes to stdout.
  EXPECT_EQ(range->json_path, "-");

  // --seeds takes the campaign grammar: ranges and single seeds.
  const auto list = parse({"--seeds", "1..4,9"});
  ASSERT_TRUE(list.has_value());
  EXPECT_EQ(list->spec.seeds, (std::vector<std::uint64_t>{1, 2, 3, 4, 9}));

  // A run is a sweep exactly when it has more than one seed.
  const auto single = parse({"--seeds", "7..7"});
  ASSERT_TRUE(single.has_value());
  EXPECT_EQ(single->spec.seeds, (std::vector<std::uint64_t>{7}));
  EXPECT_EQ(single->spec.run_count(), 1u);
  EXPECT_FALSE(single->json_path.has_value());

  const auto plain = parse({"--seed", "10"});
  ASSERT_TRUE(plain.has_value());
  EXPECT_EQ(plain->spec.seeds, (std::vector<std::uint64_t>{10}));
  EXPECT_FALSE(plain->json_path.has_value());

  // A range ending at 2^64-1 stops there rather than wrapping to 0.
  const auto top =
      parse({"--seeds", "18446744073709551614..18446744073709551615"});
  ASSERT_TRUE(top.has_value());
  EXPECT_EQ(top->spec.seeds,
            (std::vector<std::uint64_t>{18446744073709551614u,
                                        18446744073709551615u}));
}

TEST(CliParser, RejectsConflictingSeedFlags) {
  std::string error;
  EXPECT_FALSE(parse({"--seed", "5", "--seeds", "1..4"}, &error).has_value());
  EXPECT_NE(error.find("mutually exclusive"), std::string::npos);
  // Order must not matter.
  EXPECT_FALSE(parse({"--seeds", "1..4", "--seed", "5"}, &error).has_value());
  EXPECT_NE(error.find("mutually exclusive"), std::string::npos);
  // --seed takes one seed, not a list.
  EXPECT_FALSE(parse({"--seed", "1..4"}, &error).has_value());
  EXPECT_EQ(error, "bad --seed");
}

TEST(CliParser, RejectsBadSweepValues) {
  std::string error;
  EXPECT_FALSE(parse({"--seeds", "9..2"}, &error).has_value());  // hi < lo
  EXPECT_NE(error.find("--seeds"), std::string::npos);
  EXPECT_FALSE(parse({"--seeds", "abc"}, &error).has_value());
  EXPECT_FALSE(parse({"--seeds", "1.."}, &error).has_value());
  EXPECT_FALSE(parse({"--seeds", ","}, &error).has_value());
  EXPECT_FALSE(parse({"--jobs", "0"}, &error).has_value());
  // Seed lists hold at most kMaxSeeds, checked from the bounds (nothing
  // is materialized here), and --jobs at most kMaxJobs threads.
  EXPECT_FALSE(
      parse({"--seeds", "0..18446744073709551615"}, &error).has_value());
  EXPECT_NE(error.find("--seeds"), std::string::npos);
  EXPECT_FALSE(parse({"--seeds", "1..4097"}, &error).has_value());
  EXPECT_FALSE(parse({"--seeds", "1..4000,5001..5097"}, &error).has_value());
  EXPECT_TRUE(parse({"--seeds", "1..4096"}).has_value());
  EXPECT_FALSE(parse({"--jobs", "65"}, &error).has_value());
  EXPECT_NE(error.find("--jobs"), std::string::npos);
  EXPECT_FALSE(parse({"--jobs", "18446744073709551615"}, &error).has_value());
  EXPECT_TRUE(parse({"--jobs", "64"}).has_value());
  // Per-run outputs are rejected in sweep mode.
  EXPECT_FALSE(
      parse({"--seeds", "1..4", "--metrics", "-"}, &error).has_value());
  EXPECT_NE(error.find("per-run"), std::string::npos);
  EXPECT_FALSE(
      parse({"--seeds", "1,2", "--trace", "t.jsonl"}, &error).has_value());
  EXPECT_NE(error.find("per-run"), std::string::npos);
  // A sweep's JSON report owns stdout unless --csv - takes its place, so
  // a profile on stdout is refused before the sweep runs.
  error.clear();
  EXPECT_FALSE(parse({"--seeds", "1..2", "--prof", "-"}, &error).has_value());
  EXPECT_NE(error.find("at most one"), std::string::npos);
  EXPECT_FALSE(parse({"--seeds", "1..2", "--csv", "-", "--prof-trace", "-"},
                     &error)
                   .has_value());
  const auto csv = parse({"--seeds", "1..2", "--csv", "-"});
  ASSERT_TRUE(csv.has_value());
  EXPECT_FALSE(csv->json_path.has_value());
}

// Both tools parse the flags they share through one table into the
// spec: each value must give the same spec, or the same refusal.
TEST(CliParser, SharedFlagsParseAlikeInBothTools) {
  struct Case {
    const char* flag;
    const char* value;  // null: a flag that takes none, or a missing value
  };
  const Case cases[] = {
      {"--seeds", "1..4,9"},       {"--seeds", "7"},
      {"--seeds", "4..1"},         {"--seeds", "abc"},
      {"--seeds", "1..4097"},      {"--seeds", "0..18446744073709551615"},
      {"--seeds", nullptr},        {"--attack", "fminus"},
      {"--attack", "sneaky"},      {"--attack", ""},
      {"--policy", "triadplus"},   {"--policy", "magic"},
      {"--nodes", "5"},            {"--nodes", "256"},
      {"--nodes", "0"},            {"--nodes", "257"},
      {"--nodes", "x"},            {"--duration", "90s"},
      {"--duration", "10"},        {"--duration", "0s"},
      {"--attack-delay", "250ms"}, {"--attack-delay", "x"},
      {"--victim", "2"},           {"--victim", "9"},
      {"--victim", "-1"},          {"--no-machine-interrupts", nullptr}};
  for (const Case& c : cases) {
    // --duration first, so both tools share it (their defaults differ)
    // and a --duration case overrides it.
    std::vector<const char*> args = {"--duration", "1m", c.flag};
    if (c.value != nullptr) args.push_back(c.value);
    const std::string what =
        std::string(c.flag) + " " + (c.value != nullptr ? c.value : "");
    std::string sim_error, campaign_error;
    const auto sim = parse(args, &sim_error);
    const auto campaign = parse_campaign(args, &campaign_error);
    ASSERT_EQ(sim.has_value(), campaign.has_value()) << what;
    if (sim.has_value()) {
      EXPECT_EQ(sim->spec, campaign->spec) << what;
    } else {
      EXPECT_FALSE(sim_error.empty()) << what;
      EXPECT_EQ(sim_error, campaign_error) << what;
    }
  }
}

TEST(CliParser, SeedRangeParser) {
  std::uint64_t lo = 0, hi = 0;
  EXPECT_TRUE(parse_seed_range("3..17", &lo, &hi));
  EXPECT_EQ(lo, 3u);
  EXPECT_EQ(hi, 17u);
  EXPECT_TRUE(parse_seed_range("5", &lo, &hi));
  EXPECT_EQ(lo, 5u);
  EXPECT_EQ(hi, 5u);
  EXPECT_FALSE(parse_seed_range("5..4", &lo, &hi));
  EXPECT_FALSE(parse_seed_range("..4", &lo, &hi));
  EXPECT_FALSE(parse_seed_range("4..x", &lo, &hi));
}

TEST(CliRunner, GeoDistributedAttestedRun) {
  std::ostringstream out;
  EXPECT_EQ(run({"--duration", "2m", "--machine", "0", "--machine", "1",
                 "--machine", "2", "--attested"},
                out),
            0);
  EXPECT_NE(out.str().find("node 3:"), std::string::npos);
}

TEST(CliRunner, RunsAndSummarizes) {
  std::ostringstream out;
  EXPECT_EQ(run({"--duration", "2m", "--seed", "9"}, out), 0);
  const std::string text = out.str();
  EXPECT_NE(text.find("node 1:"), std::string::npos);
  EXPECT_NE(text.find("node 3:"), std::string::npos);
  EXPECT_NE(text.find("F_calib="), std::string::npos);
  EXPECT_NE(text.find("ta requests served"), std::string::npos);
}

TEST(CliRunner, AttackFlagChangesOutcome) {
  std::ostringstream clean_out, attacked_out;
  run({"--duration", "5m", "--seed", "9"}, clean_out);
  run({"--duration", "5m", "--seed", "9", "--attack", "fminus"}, attacked_out);
  EXPECT_NE(clean_out.str(), attacked_out.str());
  // The attacked run shows a grossly miscalibrated victim (≈2610 MHz).
  EXPECT_NE(attacked_out.str().find("F_calib=2609"), std::string::npos);
}

TEST(CliRunner, CsvToStdout) {
  std::ostringstream out;
  EXPECT_EQ(run({"--duration", "1m", "--csv", "-"}, out), 0);
  EXPECT_NE(out.str().find("time_s,drift_ms_node1"), std::string::npos);
}

TEST(CliParser, RejectsMultipleStdoutTargets) {
  std::string error;
  EXPECT_FALSE(parse({"--csv", "-", "--metrics", "-"}, &error).has_value());
  EXPECT_NE(error.find("at most one"), std::string::npos);
  EXPECT_FALSE(parse({"--metrics", "-", "--trace", "-"}, &error).has_value());
  // One stdout target plus file targets is fine.
  EXPECT_TRUE(parse({"--csv", "-", "--metrics", "m.prom"}).has_value());
}

TEST(CliRunner, CsvStdoutMovesSummaryToErrStream) {
  std::ostringstream out, err;
  EXPECT_EQ(run({"--duration", "1m", "--csv", "-"}, out, err), 0);
  // stdout carries only the machine-readable CSV...
  EXPECT_NE(out.str().find("time_s,drift_ms_node1"), std::string::npos);
  EXPECT_EQ(out.str().find("scenario:"), std::string::npos);
  // ...and the human summary lands on the error stream.
  EXPECT_NE(err.str().find("scenario:"), std::string::npos);
  EXPECT_NE(err.str().find("node 1:"), std::string::npos);
}

TEST(CliRunner, SummaryStaysOnStdoutWithoutMachineOutput) {
  std::ostringstream out, err;
  EXPECT_EQ(run({"--duration", "1m"}, out, err), 0);
  EXPECT_NE(out.str().find("scenario:"), std::string::npos);
  EXPECT_TRUE(err.str().empty());
}

TEST(CliRunner, MetricsToStdout) {
  std::ostringstream out, err;
  EXPECT_EQ(run({"--duration", "1m", "--metrics", "-"}, out, err), 0);
  EXPECT_NE(out.str().find("# TYPE triad_sim_events_scheduled_total counter"),
            std::string::npos);
  EXPECT_NE(out.str().find("triad_node_adoptions_total"), std::string::npos);
  EXPECT_NE(err.str().find("adoption events:"), std::string::npos);
}

TEST(CliRunner, TraceToStdoutEmitsJsonl) {
  std::ostringstream out, err;
  EXPECT_EQ(run({"--duration", "1m", "--seed", "9", "--attack", "fminus",
                 "--trace", "-"},
                out, err),
            0);
  EXPECT_NE(out.str().find("\"type\":\"packet_send\""), std::string::npos);
  EXPECT_NE(out.str().find("\"type\":\"state_change\""), std::string::npos);
  EXPECT_NE(err.str().find("trace events:"), std::string::npos);
}

TEST(CliRunner, HelpPrintsUsage) {
  std::ostringstream out;
  EXPECT_EQ(run({"--help"}, out), 0);
  EXPECT_NE(out.str().find("--attack"), std::string::npos);
}

}  // namespace
}  // namespace triad::campaign
