// triad_lint — repo-aware determinism/invariant linter.
//
// Every reproducibility claim this repo makes (byte-identical traces,
// jobs-1/4/8-identical campaign aggregates, offline==online detector
// verdicts) rests on source-level conventions: all time via
// runtime::Clock, all randomness via the per-run Rng, no
// unordered-container iteration in exported paths, fixed-precision float
// formatting, allocation-free hot paths. This tool checks those
// conventions statically — a tokenizer-level scanner, not a compiler
// plugin, because the container only ships g++ (no libclang).
//
// Since PR 10 it is a small multi-pass analyzer (lexer / rules / graph /
// report units): per-file token rules plus cross-file analyses over the
// whole scanned tree.
//
// Rules (see tools/lint/lint_rules.toml for the repo-specific targets):
//   R1  banned nondeterminism identifiers (system_clock, rand(), ...);
//       no layer is blanket-exempt — each real binding site (today only
//       runtime::MonotonicTimer) is a named [allow] entry;
//   R2  no range-for / .begin() iteration over unordered_map/set in
//       byte-stable export/aggregate/forensic files;
//   R3  no %f/%g/%e printf conversions without an explicit precision in
//       exporter/report files (the %.9g byte-stability rule), and no
//       std::to_chars naming a chars_format without a precision;
//   R4  no raw new/malloc/std::function construction in designated
//       hot-path files;
//   R5  compile-time invariant audit — invariants_source() emits a
//       static_assert file (TraceEvent layout, SpanId packing) that is
//       compiled as a test, so drift fails the build, not just the lint;
//   R6  include-graph layering: the repo-wide include DAG must respect
//       util < runtime < crypto/net < protocol layers < obs < apps (see
//       DESIGN.md §2.4 for the refined map), with cycle detection;
//   R7  constructor init-list order: no initializer may read a member
//       declared after the one being initialized;
//   R8  unchecked syscall returns in the R8-targeted files: every
//       R1-allowlisted syscall's return value must be consumed, or cast
//       to (void) with a same-line comment naming why;
//   R9  metric family inventory: every family registered via the obs
//       Registry across src/ is harvested into a generated inventory
//       (scripts/prom_families.txt) that check_prom.awk and the
//       DESIGN.md catalogue are validated against.
#pragma once

#include <map>
#include <set>
#include <string>
#include <string_view>
#include <vector>

namespace triad::lint {

struct Diagnostic {
  std::string rule;     // "R1".."R9" (no R5: that rule is generated code)
  std::string file;     // repo-relative, forward slashes
  int line = 0;         // 1-based
  std::string token;    // offending token (allowlist key)
  std::string message;  // human-readable explanation

  /// "file:line: rule: message" — the format the ctest entry greps.
  [[nodiscard]] std::string format() const;
};

/// One allowlist entry: "<rule> <file> <token>", token "*" matches any.
struct AllowEntry {
  std::string rule;
  std::string file;
  std::string token;
};

/// One R6 layer assignment: any path starting with `prefix` has `rank`;
/// the longest matching prefix wins, so file-granular refinements can
/// override their directory (e.g. obs/metrics.h is substrate while the
/// rest of obs/ is forensic-tier).
struct LayerEntry {
  std::string prefix;
  int rank = 0;
};

struct Config {
  // Directories scanned (repo-relative) and path prefixes excluded.
  std::vector<std::string> scan_dirs;
  std::vector<std::string> exclude_prefixes;

  // R1: banned identifiers; call_only ones additionally require a
  // following "(" ("time" also requires a preceding "::").
  std::vector<std::string> r1_banned;
  std::vector<std::string> r1_call_only;
  std::vector<std::string> r1_exempt_prefixes;

  // R2/R3/R4 apply only to these files (repo-relative paths).
  std::vector<std::string> r2_files;
  std::vector<std::string> r3_files;
  std::vector<std::string> r4_files;
  std::vector<std::string> r4_banned;

  // R6: the layer map (empty disables the rule).
  std::vector<LayerEntry> r6_layers;

  // R8 applies to these files; the watched syscall names are derived
  // from the R1 [allow] entries for each file, so the two lists cannot
  // drift apart (a syscall allowed into a file is automatically
  // return-checked there).
  std::vector<std::string> r8_files;

  // R9: family-name prefixes harvested (e.g. "triad_", "obs_"), the
  // documentation files every family must appear in, and the committed
  // generated inventory file (empty disables the drift check).
  std::vector<std::string> r9_prefixes;
  std::vector<std::string> r9_docs;
  std::string r9_inventory;

  std::vector<AllowEntry> allow;
};

/// The checked-in lint_rules.toml, embedded at configure time (used when
/// no config file is given, and by the fixture tests).
[[nodiscard]] Config default_config();

/// Parses the lint_rules.toml subset (sections, string/array values,
/// # comments). Returns false and sets *error on malformed input.
/// Parsed values *replace* the corresponding defaults in *config.
bool parse_config(std::string_view text, Config* config, std::string* error);

/// One in-memory source file for lint_sources/harvest_metrics. rel_path
/// is repo-relative with forward slashes; it selects which rules apply.
struct SourceFile {
  std::string rel_path;
  std::string text;
};

/// Lints one translation unit with the per-file rules only (R1–R4, R8).
/// Diagnostics are sorted by (line, rule); allowlist is NOT applied here.
[[nodiscard]] std::vector<Diagnostic> lint_source(const std::string& rel_path,
                                                  std::string_view source,
                                                  const Config& config);

/// Lints a set of sources together: per-file rules plus the cross-file
/// analyses (R6 layering/cycles, R7 ctor init order, R9 inventory
/// conflicts). Diagnostics are sorted by (file, line, rule, token);
/// allowlist is NOT applied here.
[[nodiscard]] std::vector<Diagnostic> lint_sources(
    const std::vector<SourceFile>& files, const Config& config);

struct TreeReport {
  std::vector<Diagnostic> diagnostics;     // after allowlist filtering
  std::vector<Diagnostic> suppressed;      // matched an allow entry
  std::vector<AllowEntry> unused_allows;   // stale baseline entries
  std::vector<std::string> files_scanned;  // sorted repo-relative paths
};

/// Reads every lintable file under config.scan_dirs (sorted path order,
/// exclusions applied). Exposed so --emit-metric-inventory and the tests
/// share lint_tree's exact file set.
[[nodiscard]] std::vector<SourceFile> read_tree(const std::string& root,
                                                const Config& config);

/// Walks config.scan_dirs under `root`, lints every C++ source with all
/// rules (including R9's doc/inventory cross-checks, which read the
/// [R9] docs and inventory files under `root`), applies the allowlist.
/// Deterministic: files are visited in sorted path order.
[[nodiscard]] TreeReport lint_tree(const std::string& root,
                                   const Config& config);

/// Applies the allowlist to raw diagnostics (exposed for tests).
[[nodiscard]] TreeReport apply_allowlist(std::vector<Diagnostic> diagnostics,
                                         const Config& config);

// --- R9 metric inventory ---------------------------------------------------

/// One registration/help site of a metric family.
struct MetricSite {
  std::string file;
  int line = 0;
  std::string kind;  // "counter" | "gauge" | "histogram" | "" (set_help)
};

struct MetricFamily {
  /// Kinds seen across registration sites (>1 is an R9 conflict).
  std::set<std::string> kinds;
  /// Literal label values per label key; "*" marks a site whose value
  /// is computed at runtime (non-literal).
  std::map<std::string, std::set<std::string>> labels;
  bool registered = false;  // any non-set_help site
  bool has_help = false;    // any set_help site
  std::vector<MetricSite> sites;
};

/// family name -> facts, ordered by name (deterministic render).
using MetricInventory = std::map<std::string, MetricFamily>;

/// Harvests every metric family registered via the obs Registry across
/// the given sources (only rel_paths under src/ participate): counter /
/// gauge / histogram / counter_fn / gauge_fn / set_help calls, plus the
/// node-stats `count(...)` helper idiom. The family is the first string
/// literal in the call matching an [R9] prefix.
[[nodiscard]] MetricInventory harvest_metrics(
    const std::vector<SourceFile>& files, const Config& config);

/// Renders the inventory in the committed scripts/prom_families.txt
/// format: sorted `<kind> <family> [label=v1|v2...]` lines under a
/// generated-file header. Byte-stable.
[[nodiscard]] std::string render_metric_inventory(
    const MetricInventory& inventory);

// ---------------------------------------------------------------------------

/// R5: the generated static_assert translation unit (compiled as
/// tests/lint_invariants_test by the build).
[[nodiscard]] std::string invariants_source();

/// Inserts allowlist entries for `diagnostics` into config file text
/// (creating the [allow] section if absent) and returns the new text.
[[nodiscard]] std::string add_to_allowlist(
    std::string_view config_text, const std::vector<Diagnostic>& diagnostics);

}  // namespace triad::lint
