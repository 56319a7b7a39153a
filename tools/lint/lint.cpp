// Orchestration: built-in defaults, per-file and tree-wide lint entry
// points. The actual analyses live in rules.cpp (per-file R1–R4, R8)
// and graph.cpp (cross-file R6/R7/R9); reporting plumbing in report.cpp.
#include "lint.h"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <tuple>

#include "graph.h"
#include "lexer.h"
#include "rules.h"

namespace triad::lint {
namespace {

/// R8's watched names for one file are its R1 [allow] syscall tokens:
/// a syscall allowed into a file is automatically return-checked there,
/// so the two lists cannot drift apart.
std::vector<std::string> r8_syscalls_for(const std::string& path,
                                         const Config& cfg) {
  std::vector<std::string> names;
  for (const AllowEntry& entry : cfg.allow) {
    if (entry.rule == "R1" && entry.file == path && entry.token != "*") {
      names.push_back(entry.token);
    }
  }
  return names;
}

void run_file_rules(const std::string& rel_path, const LexOutput& lexed,
                    const Config& config, std::vector<Diagnostic>* diags) {
  check_r1(rel_path, lexed.tokens, config, diags);
  if (in_file_list(rel_path, config.r2_files)) {
    check_r2(rel_path, lexed.tokens, diags);
  }
  if (in_file_list(rel_path, config.r3_files)) {
    check_r3(rel_path, lexed.tokens, diags);
  }
  if (in_file_list(rel_path, config.r4_files)) {
    check_r4(rel_path, lexed.tokens, config, diags);
  }
  if (in_file_list(rel_path, config.r8_files)) {
    check_r8(rel_path, lexed, r8_syscalls_for(rel_path, config), diags);
  }
}

void sort_diags(std::vector<Diagnostic>* diags) {
  std::sort(diags->begin(), diags->end(),
            [](const Diagnostic& a, const Diagnostic& b) {
              return std::tie(a.file, a.line, a.rule, a.token) <
                     std::tie(b.file, b.line, b.rule, b.token);
            });
}

}  // namespace

Config default_config() {
  Config cfg;
  cfg.scan_dirs = {"src", "bench", "examples", "tests", "tools"};
  cfg.exclude_prefixes = {"tests/lint_fixtures/"};
  cfg.r1_banned = {"system_clock",   "steady_clock", "high_resolution_clock",
                   "random_device",  "mt19937",      "mt19937_64",
                   "default_random_engine",          "srand",
                   "rand",           "time",         "getenv",
                   "clock_gettime",  "gettimeofday", "timespec_get",
                   "epoll_create1",  "epoll_wait",   "epoll_ctl",
                   "eventfd",        "recvmmsg",     "sendmmsg",
                   "setsockopt",     "socket",       "listen",
                   "accept4",        "connect"};
  cfg.r1_call_only = {"time", "rand", "getenv", "socket", "listen",
                      "connect"};
  // No blanket layer exemptions: every real-clock binding site is named
  // in [allow] so a new one cannot slip in under a directory prefix.
  cfg.r1_exempt_prefixes = {};
  cfg.r2_files = {"src/obs/json.h",       "src/obs/export.cpp",
                  "src/obs/report.h",     "src/obs/report.cpp",
                  "src/obs/forensic.cpp", "src/obs/cluster.cpp",
                  "src/obs/metrics.cpp",  "src/campaign/aggregate.cpp",
                  "src/exp/recorder.cpp"};
  cfg.r3_files = {"src/obs/json.h",       "src/obs/export.cpp",
                  "src/obs/report.h",     "src/obs/report.cpp",
                  "src/obs/forensic.cpp", "src/obs/cluster.cpp",
                  "src/obs/metrics.cpp",  "src/campaign/aggregate.cpp",
                  "src/exp/recorder.cpp", "src/campaign/cli.cpp"};
  cfg.r4_files = {"src/sim/simulation.cpp", "src/net/network.cpp",
                  "src/obs/trace.cpp",      "src/runtime/env.cpp",
                  "src/runtime/sim_env.cpp", "src/crypto/aes.cpp",
                  "src/crypto/gcm.cpp",     "src/crypto/channel.cpp",
                  "src/timed/serve_worker.cpp"};
  cfg.r4_banned = {"new",    "malloc",      "calloc",     "realloc",
                   "strdup", "make_unique", "make_shared", "function"};
  // R6 layer map. Longest prefix wins, so file-granular refinements
  // override their directory: the obs substrate headers (metrics/trace/
  // span/prof) are included by every layer and sit with runtime, while
  // the rest of obs (detect/forensic/cluster/export) is forensic-tier
  // above the protocol layers; runtime's environment *binders*
  // (sim_env/cluster_harness/real_env) glue protocol + net + sim
  // together and sit with the apps. Equal ranks may include each other.
  cfg.r6_layers = {
      {"src/util", 0},
      {"src/stats", 0},
      {"src/runtime", 1},
      {"src/obs/metrics.h", 1},
      {"src/obs/trace.h", 1},
      {"src/obs/span.h", 1},
      {"src/obs/prof.h", 1},
      {"src/crypto", 2},
      {"src/net", 2},
      {"src/tsc", 2},
      {"src/sim", 3},
      {"src/triad", 3},
      {"src/ta", 3},
      {"src/ntp", 3},
      {"src/t3e", 3},
      {"src/resilient", 3},
      {"src/enclave", 3},
      {"src/attacks", 3},
      {"src/obs", 4},
      {"src/exp", 5},
      {"src/campaign", 5},
      {"src/timed", 5},
      {"src/apps", 5},
      {"src/runtime/sim_env", 5},
      {"src/runtime/cluster_harness", 5},
      {"src/runtime/real_env", 5},
  };
  cfg.r8_files = {"src/runtime/real_env.cpp"};
  cfg.r9_prefixes = {"triad_", "obs_"};
  cfg.r9_docs = {"DESIGN.md"};
  cfg.r9_inventory = "scripts/prom_families.txt";
  cfg.allow = {
      // The one sanctioned wall-clock binding: MonotonicTimer wraps
      // steady_clock; bench/, profiler, and campaign wall_ms all go
      // through it rather than binding a real clock themselves.
      {"R1", "src/runtime/monotonic_timer.h", "steady_clock"},
      // The one sanctioned ambient-I/O site: RealEnv owns every raw
      // socket/epoll syscall. Entries are named per token so a second
      // binding site (or a new syscall here) must be listed explicitly —
      // no directory blanket. R8 derives its watched-syscall list from
      // these entries.
      {"R1", "src/runtime/real_env.cpp", "socket"},
      {"R1", "src/runtime/real_env.cpp", "setsockopt"},
      {"R1", "src/runtime/real_env.cpp", "recvmmsg"},
      {"R1", "src/runtime/real_env.cpp", "sendmmsg"},
      {"R1", "src/runtime/real_env.cpp", "epoll_create1"},
      {"R1", "src/runtime/real_env.cpp", "epoll_ctl"},
      {"R1", "src/runtime/real_env.cpp", "epoll_wait"},
      {"R1", "src/runtime/real_env.cpp", "eventfd"},
      {"R1", "src/runtime/real_env.cpp", "listen"},
      {"R1", "src/runtime/real_env.cpp", "accept4"},
      {"R1", "src/runtime/real_env.cpp", "connect"},
      // The slab event loop and runtime interfaces traffic in
      // std::function by design (SBO-sized closures, PR 1); R4 still
      // polices raw new/malloc there.
      {"R4", "src/sim/simulation.cpp", "std::function"},
      {"R4", "src/runtime/env.cpp", "std::function"},
      {"R4", "src/obs/trace.cpp", "std::function"},
      // The one sanctioned upward include: SimEnv's packet plane lives
      // in net/, whose delivery scheduling is the sim event loop. The
      // interface split (PR 7's RealEnv work) is tracked in ROADMAP.md.
      {"R6", "src/net/network.h", "sim/simulation.h"},
  };
  return cfg;
}

std::vector<Diagnostic> lint_source(const std::string& rel_path,
                                    std::string_view source,
                                    const Config& config) {
  const LexOutput lexed = lex(source);
  std::vector<Diagnostic> diags;
  run_file_rules(rel_path, lexed, config, &diags);
  std::sort(diags.begin(), diags.end(),
            [](const Diagnostic& a, const Diagnostic& b) {
              return std::tie(a.line, a.rule, a.token) <
                     std::tie(b.line, b.rule, b.token);
            });
  return diags;
}

std::vector<Diagnostic> lint_sources(const std::vector<SourceFile>& files,
                                     const Config& config) {
  std::vector<LexOutput> lexed;
  lexed.reserve(files.size());
  for (const SourceFile& file : files) lexed.push_back(lex(file.text));
  std::vector<Diagnostic> diags;
  for (std::size_t i = 0; i < files.size(); ++i) {
    run_file_rules(files[i].rel_path, lexed[i], config, &diags);
  }
  check_r6(files, lexed, config, &diags);
  check_r7(files, lexed, &diags);
  check_r9_inventory(harvest_metrics_lexed(files, lexed, config), &diags);
  sort_diags(&diags);
  return diags;
}

MetricInventory harvest_metrics(const std::vector<SourceFile>& files,
                                const Config& config) {
  std::vector<LexOutput> lexed;
  lexed.reserve(files.size());
  for (const SourceFile& file : files) lexed.push_back(lex(file.text));
  return harvest_metrics_lexed(files, lexed, config);
}

std::vector<SourceFile> read_tree(const std::string& root,
                                  const Config& config) {
  namespace fs = std::filesystem;
  static const std::set<std::string> kExtensions = {".h", ".hpp", ".cpp",
                                                    ".cc", ".cxx"};
  std::vector<std::string> paths;
  for (const std::string& dir : config.scan_dirs) {
    const fs::path base = fs::path(root) / dir;
    if (!fs::exists(base)) continue;
    for (const auto& entry : fs::recursive_directory_iterator(base)) {
      if (!entry.is_regular_file()) continue;
      if (kExtensions.count(entry.path().extension().string()) == 0) continue;
      paths.push_back(fs::relative(entry.path(), root).generic_string());
    }
  }
  std::sort(paths.begin(), paths.end());
  std::vector<SourceFile> files;
  for (std::string& rel : paths) {
    if (has_prefix(rel, config.exclude_prefixes)) continue;
    std::ifstream in(fs::path(root) / rel, std::ios::binary);
    std::ostringstream content;
    content << in.rdbuf();
    files.push_back(SourceFile{std::move(rel), content.str()});
  }
  return files;
}

TreeReport lint_tree(const std::string& root, const Config& config) {
  namespace fs = std::filesystem;
  const std::vector<SourceFile> files = read_tree(root, config);

  std::vector<LexOutput> lexed;
  lexed.reserve(files.size());
  for (const SourceFile& file : files) lexed.push_back(lex(file.text));

  std::vector<Diagnostic> diags;
  for (std::size_t i = 0; i < files.size(); ++i) {
    run_file_rules(files[i].rel_path, lexed[i], config, &diags);
  }
  check_r6(files, lexed, config, &diags);
  check_r7(files, lexed, &diags);

  const MetricInventory inventory =
      harvest_metrics_lexed(files, lexed, config);
  check_r9_inventory(inventory, &diags);
  const auto slurp = [&root](const std::string& rel) {
    std::ifstream in(fs::path(root) / rel, std::ios::binary);
    std::ostringstream content;
    content << in.rdbuf();
    return content.str();
  };
  std::vector<std::string> doc_texts;
  doc_texts.reserve(config.r9_docs.size());
  for (const std::string& doc : config.r9_docs) doc_texts.push_back(slurp(doc));
  const std::string committed =
      config.r9_inventory.empty() ? std::string() : slurp(config.r9_inventory);
  check_r9_tree(inventory, config, doc_texts, committed, &diags);

  sort_diags(&diags);
  TreeReport report = apply_allowlist(std::move(diags), config);
  report.files_scanned.reserve(files.size());
  for (const SourceFile& file : files) {
    report.files_scanned.push_back(file.rel_path);
  }
  return report;
}

}  // namespace triad::lint
