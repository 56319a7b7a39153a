// CLI parser and runner (the triad_sim tool's engine).
#include <gtest/gtest.h>

#include <iostream>
#include <sstream>
#include <vector>

#include "campaign/cli.h"
#include "exp/cli.h"
#include "util/parse.h"

namespace triad::exp {
namespace {

using campaign::run_cli;

std::optional<CliOptions> parse(std::vector<const char*> args,
                                std::string* error = nullptr) {
  args.insert(args.begin(), "triad_sim");
  std::string local_error;
  return parse_cli(static_cast<int>(args.size()), args.data(),
                   error != nullptr ? error : &local_error);
}

TEST(CliParser, DefaultsWhenNoFlags) {
  const auto options = parse({});
  ASSERT_TRUE(options.has_value());
  EXPECT_EQ(options->nodes, 3u);
  EXPECT_EQ(options->seed, 1u);
  EXPECT_EQ(options->duration, minutes(10));
  EXPECT_EQ(options->attack, "none");
  EXPECT_EQ(options->policy, "original");
  EXPECT_EQ(options->victim, 0u);  // the last node, as in triad_campaign
  EXPECT_FALSE(options->csv_path.has_value());
  EXPECT_FALSE(options->help);
  // The default victim fits every cluster size, so small clusters parse.
  for (const char* nodes : {"1", "2"}) {
    const auto small = parse({"--nodes", nodes});
    ASSERT_TRUE(small.has_value()) << "--nodes " << nodes;
    EXPECT_EQ(small->victim, 0u);
  }
}

TEST(CliParser, ParsesAllFlags) {
  const auto options =
      parse({"--seed", "42", "--nodes", "5", "--duration", "30m",
             "--attack", "fminus", "--victim", "2", "--attack-delay",
             "250ms", "--policy", "triadplus", "--env", "low", "--env",
             "triad", "--no-machine-interrupts", "--csv", "out.csv"});
  ASSERT_TRUE(options.has_value());
  EXPECT_EQ(options->seed, 42u);
  EXPECT_EQ(options->nodes, 5u);
  EXPECT_EQ(options->duration, minutes(30));
  EXPECT_EQ(options->attack, "fminus");
  EXPECT_EQ(options->victim, 2u);
  EXPECT_EQ(options->attack_delay, milliseconds(250));
  EXPECT_EQ(options->policy, "triadplus");
  EXPECT_EQ(options->environments,
            (std::vector<std::string>{"low", "triad"}));
  EXPECT_FALSE(options->machine_interrupts);
  EXPECT_EQ(options->csv_path, "out.csv");
}

TEST(CliParser, DurationUnits) {
  EXPECT_EQ(parse({"--duration", "90s"})->duration, seconds(90));
  EXPECT_EQ(parse({"--duration", "500ms"})->duration, milliseconds(500));
  EXPECT_EQ(parse({"--duration", "8h"})->duration, hours(8));
}

TEST(CliParser, HelpShortCircuits) {
  EXPECT_TRUE(parse({"--help"})->help);
  EXPECT_TRUE(parse({"-h", "--bogus-after-help-is-fine"})->help);
  EXPECT_FALSE(cli_usage().empty());
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
  // A bad axis name fails at parse time, naming every valid choice.
  EXPECT_FALSE(parse({"--attack", "sneaky"}, &error).has_value());
  EXPECT_EQ(error, "bad --attack (none|fplus|fminus)");
  EXPECT_FALSE(parse({"--policy", "x"}, &error).has_value());
  EXPECT_EQ(error, "bad --policy (original|triadplus)");
  EXPECT_FALSE(parse({"--env", "x"}, &error).has_value());
  EXPECT_EQ(error, "bad --env (triad|low|none)");
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
  ASSERT_TRUE(range->seed_range.has_value());
  EXPECT_EQ(range->seed_range->first, 1u);
  EXPECT_EQ(range->seed_range->second, 32u);
  EXPECT_EQ(range->jobs, 4u);
  EXPECT_TRUE(is_sweep(*range));
  EXPECT_EQ(sweep_seeds(*range).size(), 32u);
  EXPECT_EQ(sweep_seeds(*range).front(), 1u);
  EXPECT_EQ(sweep_seeds(*range).back(), 32u);

  // A single-value range is a one-run sweep.
  const auto single = parse({"--seeds", "7..7"});
  ASSERT_TRUE(single.has_value());
  EXPECT_TRUE(is_sweep(*single));
  EXPECT_EQ(sweep_seeds(*single), (std::vector<std::uint64_t>{7}));

  // --repeat N expands to seed..seed+N-1.
  const auto repeat = parse({"--seed", "10", "--repeat", "3"});
  ASSERT_TRUE(repeat.has_value());
  EXPECT_TRUE(is_sweep(*repeat));
  EXPECT_EQ(sweep_seeds(*repeat), (std::vector<std::uint64_t>{10, 11, 12}));

  // Plain --seed stays a single run.
  const auto plain = parse({"--seed", "10"});
  ASSERT_TRUE(plain.has_value());
  EXPECT_FALSE(is_sweep(*plain));
  EXPECT_EQ(sweep_seeds(*plain), (std::vector<std::uint64_t>{10}));

  // A range ending at 2^64-1 stops there rather than wrapping to 0.
  const auto top =
      parse({"--seeds", "18446744073709551614..18446744073709551615"});
  ASSERT_TRUE(top.has_value());
  EXPECT_EQ(sweep_seeds(*top),
            (std::vector<std::uint64_t>{18446744073709551614u,
                                        18446744073709551615u}));
  const auto top_repeat =
      parse({"--seed", "18446744073709551614", "--repeat", "2"});
  ASSERT_TRUE(top_repeat.has_value());
  EXPECT_EQ(sweep_seeds(*top_repeat), sweep_seeds(*top));
}

TEST(CliParser, RejectsConflictingSeedFlags) {
  std::string error;
  EXPECT_FALSE(parse({"--seed", "5", "--seeds", "1..4"}, &error).has_value());
  EXPECT_NE(error.find("mutually exclusive"), std::string::npos);
  // Order must not matter.
  EXPECT_FALSE(parse({"--seeds", "1..4", "--seed", "5"}, &error).has_value());
  EXPECT_NE(error.find("mutually exclusive"), std::string::npos);
  EXPECT_FALSE(
      parse({"--seeds", "1..4", "--repeat", "2"}, &error).has_value());
  EXPECT_NE(error.find("mutually exclusive"), std::string::npos);
}

TEST(CliParser, RejectsBadSweepValues) {
  std::string error;
  EXPECT_FALSE(parse({"--seeds", "9..2"}, &error).has_value());  // hi < lo
  EXPECT_NE(error.find("--seeds"), std::string::npos);
  EXPECT_FALSE(parse({"--seeds", "abc"}, &error).has_value());
  EXPECT_FALSE(parse({"--seeds", "1.."}, &error).has_value());
  EXPECT_FALSE(parse({"--repeat", "0"}, &error).has_value());
  // seed + N - 1 past 2^64-1.
  EXPECT_FALSE(parse({"--seed", "18446744073709551614", "--repeat", "3"},
                     &error)
                   .has_value());
  EXPECT_NE(error.find("--repeat"), std::string::npos);
  EXPECT_FALSE(parse({"--jobs", "0"}, &error).has_value());
  // Seed lists hold at most kMaxSeeds, checked from the bounds (nothing
  // is materialized here), and --jobs at most kMaxJobs threads.
  EXPECT_FALSE(
      parse({"--seeds", "0..18446744073709551615"}, &error).has_value());
  EXPECT_NE(error.find("--seeds"), std::string::npos);
  EXPECT_FALSE(parse({"--seeds", "1..4097"}, &error).has_value());
  EXPECT_TRUE(parse({"--seeds", "1..4096"}).has_value());
  EXPECT_FALSE(parse({"--repeat", "10000000000"}, &error).has_value());
  EXPECT_NE(error.find("--repeat"), std::string::npos);
  EXPECT_FALSE(parse({"--repeat", "4097"}, &error).has_value());
  EXPECT_TRUE(parse({"--repeat", "4096"}).has_value());
  EXPECT_FALSE(parse({"--jobs", "65"}, &error).has_value());
  EXPECT_NE(error.find("--jobs"), std::string::npos);
  EXPECT_FALSE(parse({"--jobs", "18446744073709551615"}, &error).has_value());
  EXPECT_TRUE(parse({"--jobs", "64"}).has_value());
  // Per-run outputs are rejected in sweep mode.
  EXPECT_FALSE(
      parse({"--seeds", "1..4", "--metrics", "-"}, &error).has_value());
  EXPECT_NE(error.find("per-run"), std::string::npos);
  EXPECT_FALSE(
      parse({"--repeat", "2", "--trace", "t.jsonl"}, &error).has_value());
  // A sweep's JSON report owns stdout unless --csv - takes its place, so
  // a profile on stdout is refused before the sweep runs.
  error.clear();
  EXPECT_FALSE(parse({"--seeds", "1..2", "--prof", "-"}, &error).has_value());
  EXPECT_NE(error.find("at most one"), std::string::npos);
  EXPECT_FALSE(parse({"--seeds", "1..2", "--csv", "-", "--prof-trace", "-"},
                     &error)
                   .has_value());
  EXPECT_TRUE(parse({"--seeds", "1..2", "--csv", "-"}).has_value());
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
  const auto options = parse({"--duration", "2m", "--machine", "0",
                              "--machine", "1", "--machine", "2",
                              "--attested"});
  ASSERT_TRUE(options.has_value());
  std::ostringstream out;
  EXPECT_EQ(run_cli(*options, out, std::cerr), 0);
  EXPECT_NE(out.str().find("node 3:"), std::string::npos);
}

TEST(CliRunner, RunsAndSummarizes) {
  const auto options = parse({"--duration", "2m", "--seed", "9"});
  ASSERT_TRUE(options.has_value());
  std::ostringstream out;
  EXPECT_EQ(run_cli(*options, out, std::cerr), 0);
  const std::string text = out.str();
  EXPECT_NE(text.find("node 1:"), std::string::npos);
  EXPECT_NE(text.find("node 3:"), std::string::npos);
  EXPECT_NE(text.find("F_calib="), std::string::npos);
  EXPECT_NE(text.find("ta requests served"), std::string::npos);
}

TEST(CliRunner, AttackFlagChangesOutcome) {
  std::ostringstream clean_out, attacked_out;
  run_cli(*parse({"--duration", "5m", "--seed", "9"}), clean_out, std::cerr);
  run_cli(*parse({"--duration", "5m", "--seed", "9", "--attack", "fminus"}),
          attacked_out, std::cerr);
  EXPECT_NE(clean_out.str(), attacked_out.str());
  // The attacked run shows a grossly miscalibrated victim (≈2610 MHz).
  EXPECT_NE(attacked_out.str().find("F_calib=2609"), std::string::npos);
}

TEST(CliRunner, CsvToStdout) {
  std::ostringstream out;
  EXPECT_EQ(run_cli(*parse({"--duration", "1m", "--csv", "-"}), out,
                    std::cerr),
            0);
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
  EXPECT_EQ(run_cli(*parse({"--duration", "1m", "--csv", "-"}), out, err), 0);
  // stdout carries only the machine-readable CSV...
  EXPECT_NE(out.str().find("time_s,drift_ms_node1"), std::string::npos);
  EXPECT_EQ(out.str().find("scenario:"), std::string::npos);
  // ...and the human summary lands on the error stream.
  EXPECT_NE(err.str().find("scenario:"), std::string::npos);
  EXPECT_NE(err.str().find("node 1:"), std::string::npos);
}

TEST(CliRunner, SummaryStaysOnStdoutWithoutMachineOutput) {
  std::ostringstream out, err;
  EXPECT_EQ(run_cli(*parse({"--duration", "1m"}), out, err), 0);
  EXPECT_NE(out.str().find("scenario:"), std::string::npos);
  EXPECT_TRUE(err.str().empty());
}

TEST(CliRunner, MetricsToStdout) {
  std::ostringstream out, err;
  EXPECT_EQ(run_cli(*parse({"--duration", "1m", "--metrics", "-"}), out, err),
            0);
  EXPECT_NE(out.str().find("# TYPE triad_sim_events_scheduled_total counter"),
            std::string::npos);
  EXPECT_NE(out.str().find("triad_node_adoptions_total"), std::string::npos);
  EXPECT_NE(err.str().find("adoption events:"), std::string::npos);
}

TEST(CliRunner, TraceToStdoutEmitsJsonl) {
  std::ostringstream out, err;
  EXPECT_EQ(run_cli(*parse({"--duration", "1m", "--seed", "9", "--attack",
                            "fminus", "--trace", "-"}),
                    out, err),
            0);
  EXPECT_NE(out.str().find("\"type\":\"packet_send\""), std::string::npos);
  EXPECT_NE(out.str().find("\"type\":\"state_change\""), std::string::npos);
  EXPECT_NE(err.str().find("trace events:"), std::string::npos);
}

TEST(CliRunner, HelpPrintsUsage) {
  std::ostringstream out;
  EXPECT_EQ(run_cli(*parse({"--help"}), out, std::cerr), 0);
  EXPECT_NE(out.str().find("--attack"), std::string::npos);
}

}  // namespace
}  // namespace triad::exp
