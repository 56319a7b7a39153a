// Orchestration: the built-in config (lint_rules.toml, embedded at
// configure time), per-file and tree-wide lint entry points. The actual
// analyses live in rules.cpp (per-file R1–R4, R8) and graph.cpp
// (cross-file R6/R7/R9); reporting plumbing in report.cpp.
#include "lint.h"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <stdexcept>
#include <tuple>

#include "graph.h"
#include "lexer.h"
#include "lint_rules_toml.h"
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
  std::string error;
  if (!parse_config(kLintRulesToml, &cfg, &error)) {
    throw std::logic_error("embedded lint_rules.toml: " + error);
  }
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
