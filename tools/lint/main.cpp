// triad_lint CLI. Exit status: 0 clean, 1 diagnostics, 2 usage/config
// error. Diagnostics print as "file:line: rule: message" on stdout.
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "lint.h"

namespace {

int usage(const char* argv0) {
  std::cerr
      << "usage: " << argv0 << " [options] [file...]\n"
         "\n"
         "Lints the repo's C++ sources for determinism/invariant rule\n"
         "violations (R1-R4, R6-R9) and generates the R5 static_assert\n"
         "audit and the R9 metric inventory.\n"
         "\n"
         "  --root DIR           repo root to scan (default: .)\n"
         "  --config FILE        rule config (default: tools/lint/\n"
         "                       lint_rules.toml as embedded at build time)\n"
         "  --fix-allowlist      append current diagnostics to the config's\n"
         "                       [allow] baseline instead of failing\n"
         "  --fail-unused-allow  stale [allow] entries fail the run (exit 1)\n"
         "                       instead of printing as notes\n"
         "  --emit-invariants F  write the generated static_assert test to F\n"
         "  --emit-metric-inventory F\n"
         "                       write the R9 metric family inventory to F\n"
         "                       (the committed scripts/prom_families.txt)\n"
         "  --list-files         print the files a tree scan would lint\n"
         "  -q, --quiet          suppress the summary line\n"
         "\n"
         "With explicit files, only those files are linted (paths are\n"
         "interpreted relative to --root for rule targeting); cross-file\n"
         "analyses then see only that subset.\n";
  return 2;
}

std::string read_file(const std::filesystem::path& path, bool* ok) {
  std::ifstream in(path, std::ios::binary);
  *ok = in.good();
  std::ostringstream content;
  content << in.rdbuf();
  return content.str();
}

}  // namespace

int main(int argc, char** argv) {
  std::string root = ".";
  std::string config_path;
  std::string emit_path;
  std::string emit_inventory_path;
  bool fix_allowlist = false;
  bool fail_unused_allow = false;
  bool list_files = false;
  bool quiet = false;
  std::vector<std::string> files;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::cerr << argv[0] << ": " << flag << " needs a value\n";
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--root") {
      root = value("--root");
    } else if (arg == "--config") {
      config_path = value("--config");
    } else if (arg == "--emit-invariants") {
      emit_path = value("--emit-invariants");
    } else if (arg == "--emit-metric-inventory") {
      emit_inventory_path = value("--emit-metric-inventory");
    } else if (arg == "--fix-allowlist") {
      fix_allowlist = true;
    } else if (arg == "--fail-unused-allow") {
      fail_unused_allow = true;
    } else if (arg == "--list-files") {
      list_files = true;
    } else if (arg == "-q" || arg == "--quiet") {
      quiet = true;
    } else if (arg == "-h" || arg == "--help") {
      return usage(argv[0]);
    } else if (!arg.empty() && arg.front() == '-') {
      std::cerr << argv[0] << ": unknown option '" << arg << "'\n";
      return usage(argv[0]);
    } else {
      files.push_back(arg);
    }
  }

  if (!emit_path.empty()) {
    std::ofstream out(emit_path, std::ios::binary);
    out << triad::lint::invariants_source();
    if (!out) {
      std::cerr << argv[0] << ": cannot write " << emit_path << "\n";
      return 2;
    }
    if (!quiet) std::cerr << "wrote " << emit_path << "\n";
    return 0;
  }

  triad::lint::Config config = triad::lint::default_config();
  std::string config_text;
  if (!config_path.empty()) {
    bool ok = false;
    config_text = read_file(config_path, &ok);
    if (!ok) {
      std::cerr << argv[0] << ": cannot read " << config_path << "\n";
      return 2;
    }
    std::string error;
    if (!triad::lint::parse_config(config_text, &config, &error)) {
      std::cerr << config_path << ": " << error << "\n";
      return 2;
    }
  }

  if (!emit_inventory_path.empty()) {
    const triad::lint::MetricInventory inventory = triad::lint::harvest_metrics(
        triad::lint::read_tree(root, config), config);
    std::ofstream out(emit_inventory_path, std::ios::binary);
    out << triad::lint::render_metric_inventory(inventory);
    if (!out) {
      std::cerr << argv[0] << ": cannot write " << emit_inventory_path << "\n";
      return 2;
    }
    if (!quiet) {
      std::cerr << "wrote " << emit_inventory_path << " ("
                << inventory.size() << " families)\n";
    }
    return 0;
  }

  triad::lint::TreeReport report;
  if (files.empty()) {
    report = triad::lint::lint_tree(root, config);
  } else {
    std::vector<triad::lint::SourceFile> sources;
    for (const std::string& file : files) {
      bool ok = false;
      const std::filesystem::path path =
          std::filesystem::path(file).is_absolute()
              ? std::filesystem::path(file)
              : std::filesystem::path(root) / file;
      std::string content = read_file(path, &ok);
      if (!ok) {
        std::cerr << argv[0] << ": cannot read " << path.string() << "\n";
        return 2;
      }
      const std::string rel =
          std::filesystem::path(file).is_absolute()
              ? std::filesystem::relative(file, root).generic_string()
              : std::filesystem::path(file).generic_string();
      sources.push_back(triad::lint::SourceFile{rel, std::move(content)});
      report.files_scanned.push_back(rel);
    }
    triad::lint::TreeReport filtered = triad::lint::apply_allowlist(
        triad::lint::lint_sources(sources, config), config);
    report.diagnostics = std::move(filtered.diagnostics);
    report.suppressed = std::move(filtered.suppressed);
    // Unused allow entries are only meaningful on full-tree scans.
  }

  if (list_files) {
    for (const std::string& file : report.files_scanned) {
      std::cout << file << "\n";
    }
    return 0;
  }

  if (fix_allowlist) {
    if (config_path.empty()) {
      std::cerr << argv[0] << ": --fix-allowlist needs --config\n";
      return 2;
    }
    const std::string updated =
        triad::lint::add_to_allowlist(config_text, report.diagnostics);
    if (updated != config_text) {
      std::ofstream out(config_path, std::ios::binary);
      out << updated;
      if (!out) {
        std::cerr << argv[0] << ": cannot rewrite " << config_path << "\n";
        return 2;
      }
    }
    if (!quiet) {
      std::cerr << "baselined " << report.diagnostics.size()
                << " diagnostic(s) into " << config_path << "\n";
    }
    return 0;
  }

  for (const triad::lint::Diagnostic& diag : report.diagnostics) {
    std::cout << diag.format() << "\n";
  }
  const bool unused_fail = fail_unused_allow && !report.unused_allows.empty();
  for (const triad::lint::AllowEntry& entry : report.unused_allows) {
    std::cerr << (unused_fail ? "error" : "note")
              << ": unused allowlist entry: " << entry.rule << " "
              << entry.file << " " << entry.token << "\n";
  }
  if (!quiet) {
    std::cerr << "triad_lint: " << report.files_scanned.size() << " file(s), "
              << report.diagnostics.size() << " diagnostic(s), "
              << report.suppressed.size() << " allowlisted, "
              << report.unused_allows.size() << " unused allow(s)\n";
  }
  return (report.diagnostics.empty() && !unused_fail) ? 0 : 1;
}
