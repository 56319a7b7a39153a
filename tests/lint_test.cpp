// Coverage for tools/lint/triad_lint itself: every rule R1-R9 must fire
// on its known-bad fixture at the marked lines, the repo's own tree must
// lint clean, and the committed R9 metric inventory must byte-match the
// tree. The built-in config is lint_rules.toml itself, embedded at
// configure time, so there is no second copy to keep in sync.
//
// Fixtures live in tests/lint_fixtures/ (excluded from tree scans) and
// mark each expected diagnostic with a `// LINT` rule comment, so the
// expectations survive edits without hardcoded line numbers.
#include "lint.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

namespace {

using triad::lint::AllowEntry;
using triad::lint::Config;
using triad::lint::Diagnostic;

std::string read_file(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "cannot read " << path;
  std::ostringstream content;
  content << in.rdbuf();
  return content.str();
}

std::filesystem::path fixture_path(const std::string& name) {
  return std::filesystem::path(TRIAD_LINT_FIXTURE_DIR) / name;
}

/// (rule, line) pairs marked `// LINT:<rule>` in fixture text.
std::set<std::pair<std::string, int>> markers(const std::string& text) {
  std::set<std::pair<std::string, int>> expected;
  std::istringstream lines(text);
  std::string line;
  int number = 0;
  while (std::getline(lines, line)) {
    ++number;
    for (std::size_t at = line.find("LINT:"); at != std::string::npos;
         at = line.find("LINT:", at + 1)) {
      std::size_t end = at + 5;
      while (end < line.size() && std::isalnum(static_cast<unsigned char>(
                                      line[end])) != 0) {
        ++end;
      }
      expected.emplace(line.substr(at + 5, end - at - 5), number);
    }
  }
  return expected;
}

std::set<std::pair<std::string, int>> fired(
    const std::vector<Diagnostic>& diagnostics) {
  std::set<std::pair<std::string, int>> result;
  for (const Diagnostic& diag : diagnostics) {
    result.emplace(diag.rule, diag.line);
  }
  return result;
}

/// Lints one fixture under a rel-path that opts it into the given rule's
/// file list, then checks fired (rule, line) pairs against the markers.
void expect_fixture_fires(const std::string& name, const std::string& rule) {
  const std::string text = read_file(fixture_path(name));
  const std::string rel = "tests/lint_fixtures/" + name;
  Config config = triad::lint::default_config();
  if (rule == "R2") config.r2_files.push_back(rel);
  if (rule == "R3") config.r3_files.push_back(rel);
  if (rule == "R4") config.r4_files.push_back(rel);
  const std::vector<Diagnostic> diagnostics =
      triad::lint::lint_source(rel, text, config);
  EXPECT_EQ(fired(diagnostics), markers(text)) << "fixture " << name;
  for (const Diagnostic& diag : diagnostics) {
    EXPECT_EQ(diag.rule, rule) << diag.format();
    EXPECT_EQ(diag.file, rel);
  }
}

TEST(LintFixtures, R1BannedIdentifiersFireAtMarkedLines) {
  expect_fixture_fires("r1_banned_clock.cpp", "R1");
}

TEST(LintFixtures, R2UnorderedIterationFiresAtMarkedLines) {
  expect_fixture_fires("r2_unordered_iter.cpp", "R2");
}

TEST(LintFixtures, R3UnpinnedFloatFiresAtMarkedLines) {
  expect_fixture_fires("r3_unpinned_float.cpp", "R3");
}

TEST(LintFixtures, R4HotPathAllocationFiresAtMarkedLines) {
  expect_fixture_fires("r4_hotpath_alloc.cpp", "R4");
}

TEST(LintFixtures, R1AmbientIoFiresAtMarkedLines) {
  expect_fixture_fires("r1_ambient_io.cpp", "R1");
}

// --- R6-R9: the cross-file analyses ---------------------------------------

/// Lints one fixture through the cross-file pass (lint_sources) under a
/// synthetic repo-relative path, then checks fired (rule, line) pairs
/// against the markers.
void expect_cross_fixture_fires(const std::string& name,
                                const std::string& rel,
                                const std::string& rule) {
  const std::string text = read_file(fixture_path(name));
  const std::vector<Diagnostic> diagnostics = triad::lint::lint_sources(
      {{rel, text}}, triad::lint::default_config());
  EXPECT_EQ(fired(diagnostics), markers(text)) << "fixture " << name;
  for (const Diagnostic& diag : diagnostics) {
    EXPECT_EQ(diag.rule, rule) << diag.format();
    EXPECT_EQ(diag.file, rel);
  }
}

TEST(LintFixtures, R6LayeringAndCycleFireAtMarkedLines) {
  // The R6 fixtures are a four-file set linted under synthetic src/
  // paths: a layer-2 header including a layer-5 one (upward edge), and
  // a two-header include cycle within one layer. Expected diagnostics
  // are the union of each file's markers, keyed by (file, line).
  const std::vector<std::pair<std::string, std::string>> layout = {
      {"r6_layering.h", "src/net/r6_layering.h"},
      {"r6_cycle_a.h", "src/sim/r6_cycle_a.h"},
      {"r6_cycle_b.h", "src/sim/r6_cycle_b.h"},
      {"r6_upper.h", "src/timed/r6_upper.h"},
  };
  std::vector<triad::lint::SourceFile> files;
  std::set<std::pair<std::string, int>> expected;  // (file, line)
  for (const auto& [name, rel] : layout) {
    const std::string text = read_file(fixture_path(name));
    for (const auto& [rule, line] : markers(text)) {
      EXPECT_EQ(rule, "R6") << name;
      expected.emplace(rel, line);
    }
    files.push_back({rel, text});
  }
  const std::vector<Diagnostic> diagnostics =
      triad::lint::lint_sources(files, triad::lint::default_config());
  std::set<std::pair<std::string, int>> got;
  for (const Diagnostic& diag : diagnostics) {
    EXPECT_EQ(diag.rule, "R6") << diag.format();
    got.emplace(diag.file, diag.line);
  }
  EXPECT_EQ(got, expected);
}

TEST(LintFixtures, R7CtorInitOrderFiresAtMarkedLines) {
  // The seeded PR 9 TelemetryServer reproduction: both the in-class and
  // the out-of-line constructor forms, plus a clean earlier-member read
  // that must not fire.
  expect_cross_fixture_fires("r7_ctor_init_order.cpp",
                             "src/timed/r7_ctor_init_order.cpp", "R7");
}

TEST(LintFixtures, R7CaughtTheRealBugsBeforeTheyWereFixed) {
  // The exact shape R7 flagged in the live tree before this PR reordered
  // the declarations: &bind_error_ handed to the socket's constructor
  // while bind_error_ was declared after socket_.
  const std::string src =
      "class UdpTransportBug {\n"
      " public:\n"
      "  UdpTransportBug() : socket_(&bind_error_) {}\n"
      " private:\n"
      "  int socket_;\n"
      "  int bind_error_;\n"
      "};\n";
  const std::vector<Diagnostic> diags = triad::lint::lint_sources(
      {{"src/runtime/bug.cpp", src}}, triad::lint::default_config());
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].rule, "R7");
  EXPECT_EQ(diags[0].line, 3);
  EXPECT_EQ(diags[0].token, "bind_error_");
}

TEST(LintFixtures, R8UncheckedSyscallFiresAtMarkedLines) {
  const std::string name = "r8_unchecked_syscall.cpp";
  const std::string text = read_file(fixture_path(name));
  const std::string rel = "tests/lint_fixtures/" + name;
  Config config = triad::lint::default_config();
  config.r8_files.push_back(rel);
  // R8's watched set is derived from the R1 [allow] entries for the
  // file — close/shutdown are not R1-banned tokens, so the fixture
  // exercises the return-consumption check without R1 noise.
  config.allow.push_back({"R1", rel, "close"});
  config.allow.push_back({"R1", rel, "shutdown"});
  const std::vector<Diagnostic> diagnostics =
      triad::lint::lint_source(rel, text, config);
  EXPECT_EQ(fired(diagnostics), markers(text)) << "fixture " << name;
  for (const Diagnostic& diag : diagnostics) {
    EXPECT_EQ(diag.rule, "R8") << diag.format();
  }
}

TEST(LintFixtures, R8BareVoidCastWithoutReasonFires) {
  // This case cannot live in the fixture file: a `// LINT:R8` marker on
  // the same line would itself be the named reason that legalizes the
  // cast. A (void) discard with no comment on the line is a diagnostic.
  Config config = triad::lint::default_config();
  config.r8_files.push_back("src/runtime/fake_env.cpp");
  config.allow.push_back({"R1", "src/runtime/fake_env.cpp", "close"});
  const std::string src = "void f(int fd) {\n  (void)::close(fd);\n}\n";
  const std::vector<Diagnostic> diags =
      triad::lint::lint_source("src/runtime/fake_env.cpp", src, config);
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].rule, "R8");
  EXPECT_EQ(diags[0].line, 2);
  EXPECT_NE(diags[0].message.find("named reason"), std::string::npos);
}

TEST(LintFixtures, R9KindConflictAndOrphanHelpFireAtMarkedLines) {
  expect_cross_fixture_fires("r9_metric_conflict.cpp",
                             "src/obs/r9_metric_conflict.cpp", "R9");
}

TEST(LintFixtures, R1RealEnvSyscallsAreNamedAllowEntriesNotABlanket) {
  // Each raw syscall RealEnv binds is its own (file, token) allow entry;
  // the same token in any other file — even the same directory — must
  // survive the allowlist and fail the tree.
  const Config config = triad::lint::default_config();
  std::vector<Diagnostic> diagnostics = {
      {"R1", "src/runtime/real_env.cpp", 311, "epoll_wait", "m"},
      {"R1", "src/runtime/other_env.cpp", 10, "epoll_wait", "m"},
      {"R1", "src/runtime/real_env.cpp", 20, "clock_gettime", "m"},
  };
  const triad::lint::TreeReport report =
      triad::lint::apply_allowlist(std::move(diagnostics), config);
  ASSERT_EQ(report.suppressed.size(), 1u);
  EXPECT_EQ(report.suppressed[0].file, "src/runtime/real_env.cpp");
  EXPECT_EQ(report.suppressed[0].token, "epoll_wait");
  // clock_gettime is not among real_env.cpp's listed tokens (RealEnv's
  // clock goes through MonotonicTimer), so it stays a diagnostic.
  ASSERT_EQ(report.diagnostics.size(), 2u);
  EXPECT_EQ(report.diagnostics[0].file, "src/runtime/other_env.cpp");
  EXPECT_EQ(report.diagnostics[1].token, "clock_gettime");
}

TEST(LintFixtures, R1HasNoBlanketLayerExemptions) {
  // Since PR 7 no directory is exempt from R1 — banned tokens fire even
  // inside the clock/util layers; each real binding site must be a named
  // allow entry instead.
  const std::string text = read_file(fixture_path("r1_banned_clock.cpp"));
  const Config config = triad::lint::default_config();
  EXPECT_TRUE(config.r1_exempt_prefixes.empty());
  EXPECT_FALSE(
      triad::lint::lint_source("src/runtime/impl.cpp", text, config).empty());
  EXPECT_FALSE(
      triad::lint::lint_source("src/util/impl.cpp", text, config).empty());
}

TEST(LintFixtures, R1MonotonicTimerBindingIsNamedAllowEntry) {
  // The single sanctioned wall-clock binding suppresses via the
  // allowlist, and only for that (file, token) pair.
  const Config config = triad::lint::default_config();
  std::vector<Diagnostic> diagnostics = {
      {"R1", "src/runtime/monotonic_timer.h", 41, "steady_clock", "m"},
      {"R1", "src/campaign/runner.cpp", 10, "steady_clock", "m"},
  };
  const triad::lint::TreeReport report =
      triad::lint::apply_allowlist(std::move(diagnostics), config);
  ASSERT_EQ(report.suppressed.size(), 1u);
  EXPECT_EQ(report.suppressed[0].file, "src/runtime/monotonic_timer.h");
  ASSERT_EQ(report.diagnostics.size(), 1u);
  EXPECT_EQ(report.diagnostics[0].file, "src/campaign/runner.cpp");
}

TEST(LintFixtures, DiagnosticFormatIsFileLineRuleMessage) {
  const Diagnostic diag{"R1", "src/x.cpp", 12, "steady_clock", "msg"};
  EXPECT_EQ(diag.format(), "src/x.cpp:12: R1: msg");
}

// --- R5: the generated compile-time audit --------------------------------

bool gxx_available() {
  return std::system("g++ --version > /dev/null 2>&1") == 0;
}

int syntax_check(const std::filesystem::path& file) {
  const std::string cmd = "g++ -std=c++20 -fsyntax-only -I " +
                          std::string(TRIAD_LINT_SOURCE_ROOT) + "/src " +
                          file.string() + " > /dev/null 2>&1";
  return std::system(cmd.c_str());
}

TEST(LintInvariants, GeneratedAuditCompilesAgainstRealHeaders) {
  if (!gxx_available()) GTEST_SKIP() << "g++ not on PATH";
  const std::filesystem::path out =
      std::filesystem::temp_directory_path() / "triad_lint_invariants.cpp";
  std::ofstream(out, std::ios::binary) << triad::lint::invariants_source();
  EXPECT_EQ(syntax_check(out), 0)
      << "generated static_assert audit no longer matches the real "
         "TraceEvent/SpanId layout";
  std::filesystem::remove(out);
}

TEST(LintInvariants, R5DriftedInvariantFailsTheCompile) {
  if (!gxx_available()) GTEST_SKIP() << "g++ not on PATH";
  // The fixture asserts the folklore 48-byte TraceEvent; the compile
  // must fail — that failure IS rule R5 firing.
  EXPECT_NE(syntax_check(fixture_path("r5_invariant_drift.cpp")), 0);
}

TEST(LintInvariants, AuditCoversTheLoadBearingClaims) {
  const std::string source = triad::lint::invariants_source();
  EXPECT_NE(source.find("sizeof(TraceEvent) == 56"), std::string::npos);
  EXPECT_NE(source.find("is_trivially_copyable_v<TraceEvent>"),
            std::string::npos);
  EXPECT_NE(source.find("kSpanNodeBits == 10"), std::string::npos);
  EXPECT_NE(source.find("offsetof(TraceEvent, span) == 20"),
            std::string::npos);
}

// --- config / allowlist ---------------------------------------------------

TEST(LintConfig, RejectsMalformedInput) {
  Config config;
  std::string error;
  EXPECT_FALSE(triad::lint::parse_config("[R1\nbanned = []", &config, &error));
  EXPECT_FALSE(
      triad::lint::parse_config("[R9]\nfiles = [\"x\"]", &config, &error));
  EXPECT_FALSE(triad::lint::parse_config(
      "[allow]\nentries = [\"R1 only-two\"]", &config, &error));
}

TEST(LintAllow, EntriesSuppressMatchingDiagnostics) {
  Config config = triad::lint::default_config();
  config.allow = {{"R1", "src/a.cpp", "steady_clock"},
                  {"R3", "src/b.cpp", "*"},
                  {"R4", "src/never.cpp", "new"}};
  std::vector<Diagnostic> diagnostics = {
      {"R1", "src/a.cpp", 3, "steady_clock", "m"},
      {"R1", "src/a.cpp", 9, "system_clock", "m"},  // token mismatch
      {"R3", "src/b.cpp", 4, "%f", "m"},            // wildcard token
  };
  const triad::lint::TreeReport report =
      triad::lint::apply_allowlist(std::move(diagnostics), config);
  ASSERT_EQ(report.diagnostics.size(), 1u);
  EXPECT_EQ(report.diagnostics[0].token, "system_clock");
  EXPECT_EQ(report.suppressed.size(), 2u);
  ASSERT_EQ(report.unused_allows.size(), 1u);
  EXPECT_EQ(report.unused_allows[0].file, "src/never.cpp");
}

TEST(LintAllow, FixAllowlistAppendsAndIsIdempotent) {
  const std::string base = "[allow]\nentries = [\n  \"R1 src/a.cpp x\",\n]\n";
  const std::vector<Diagnostic> diagnostics = {
      {"R2", "src/obs/export.cpp", 7, "cells", "m"}};
  const std::string once = triad::lint::add_to_allowlist(base, diagnostics);
  Config parsed;
  std::string error;
  ASSERT_TRUE(triad::lint::parse_config(once, &parsed, &error)) << error;
  ASSERT_EQ(parsed.allow.size(), 2u);
  EXPECT_EQ(parsed.allow[1].rule, "R2");
  EXPECT_EQ(parsed.allow[1].file, "src/obs/export.cpp");
  EXPECT_EQ(parsed.allow[1].token, "cells");
  // Baselining the same diagnostic again must not duplicate the entry.
  EXPECT_EQ(triad::lint::add_to_allowlist(once, diagnostics), once);
  // A config without an [allow] section gains one.
  const std::string grown = triad::lint::add_to_allowlist("", diagnostics);
  Config from_empty;
  ASSERT_TRUE(triad::lint::parse_config(grown, &from_empty, &error)) << error;
  ASSERT_EQ(from_empty.allow.size(), 1u);
}

// --- the repo itself ------------------------------------------------------

TEST(LintTree, MetricInventoryGoldenMatchesTree) {
  // The committed scripts/prom_families.txt must byte-match what the
  // harvest renders from the tree — it feeds check_prom.awk's required-
  // series lists and the DESIGN.md catalogue check, so drift here means
  // the exporter contract and its validators have diverged.
  const Config config = triad::lint::default_config();
  const std::vector<triad::lint::SourceFile> files =
      triad::lint::read_tree(TRIAD_LINT_SOURCE_ROOT, config);
  const std::string rendered = triad::lint::render_metric_inventory(
      triad::lint::harvest_metrics(files, config));
  const std::string committed =
      read_file(std::filesystem::path(TRIAD_LINT_SOURCE_ROOT) /
                config.r9_inventory);
  EXPECT_EQ(committed, rendered)
      << "regenerate with: triad_lint --emit-metric-inventory "
      << config.r9_inventory;
  // Sanity: the harvest actually saw the tree (68 families as of PR 10).
  EXPECT_GT(std::count(rendered.begin(), rendered.end(), '\n'), 50);
}

TEST(LintTree, RepoSourcesLintClean) {
  Config config = triad::lint::default_config();
  std::string error;
  ASSERT_TRUE(triad::lint::parse_config(read_file(TRIAD_LINT_CONFIG), &config,
                                        &error))
      << error;
  const triad::lint::TreeReport report =
      triad::lint::lint_tree(TRIAD_LINT_SOURCE_ROOT, config);
  EXPECT_GT(report.files_scanned.size(), 100u)
      << "tree scan found suspiciously few files — wrong root?";
  for (const Diagnostic& diag : report.diagnostics) {
    ADD_FAILURE() << diag.format();
  }
  for (const AllowEntry& entry : report.unused_allows) {
    ADD_FAILURE() << "stale allowlist entry: " << entry.rule << " "
                  << entry.file << " " << entry.token;
  }
}

}  // namespace
