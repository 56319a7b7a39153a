// Campaign specification: a declarative grid of scenario runs.
//
// The paper's empirical results (Figs. 2-6, the cluster-size and WAN
// tables) are grids of scenario executions — seeds x attack x policy x
// AEX environment x cluster size. A CampaignSpec names each axis once;
// expand() flattens the cartesian product into RunSpecs in a fixed
// deterministic order:
//
//   cell  = (nodes, environment, policy, attack)   [nodes outermost]
//   run   = cell x seed                            [seeds innermost]
//   index = cell_index * seeds.size() + seed_ordinal
//
// The seed axis is the replication dimension: the Aggregator folds all
// seeds of one cell into cross-run statistics keyed by cell index, so
// the aggregate report order never depends on worker count or
// completion order.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "util/types.h"

namespace triad::campaign {

/// One fully-resolved run: a point in the campaign grid.
struct RunSpec {
  std::size_t index = 0;  // flattened grid index (see header comment)
  std::size_t cell = 0;   // index / seeds-per-cell

  // Cell axes; the names are those of exp/axes.h.
  std::size_t nodes = 3;
  std::string environment = "triad";
  std::string policy = "original";
  std::string attack = "none";

  // Replication axis.
  std::uint64_t seed = 1;

  // Shared scalars (not swept).
  Duration duration = minutes(2);
  Duration attack_delay = milliseconds(100);
  std::size_t victim = 0;  // 1-based; 0 = last node of the cluster
  bool machine_interrupts = true;

  /// 0-based index of the attacked node after resolving victim = 0.
  [[nodiscard]] std::size_t victim_index() const {
    return victim == 0 ? nodes - 1 : victim - 1;
  }
};

/// The declarative sweep. Every axis must be non-empty; single-valued
/// axes are how a campaign pins a dimension.
struct CampaignSpec {
  std::vector<std::uint64_t> seeds{1};
  std::vector<std::string> attacks{"none"};
  std::vector<std::string> policies{"original"};
  std::vector<std::string> environments{"triad"};
  std::vector<std::size_t> node_counts{3};

  Duration duration = minutes(2);
  Duration attack_delay = milliseconds(100);
  std::size_t victim = 0;  // 1-based; 0 = last node
  bool machine_interrupts = true;

  [[nodiscard]] std::size_t cell_count() const;
  [[nodiscard]] std::size_t run_count() const;

  /// Empty string when the spec is well-formed, else a message naming
  /// the offending axis/value.
  [[nodiscard]] std::string validate() const;

  /// Flattens the grid (see header comment for the order). Requires
  /// validate().empty().
  [[nodiscard]] std::vector<RunSpec> expand() const;

  bool operator==(const CampaignSpec&) const = default;
};

/// Sets one spec key from its text value, as a spec-file line or the
/// matching flag of either tool gives it (keys as for parse_spec). On an
/// unknown key or a bad value (nodes above kMaxNodes too) returns false
/// and writes a message to `error`. validate() checks the axis names.
bool set_spec_value(CampaignSpec* spec, std::string_view key,
                    std::string_view value, std::string* error);

/// Parses a "key = value" spec (one pair per line, '#' comments, blank
/// lines ignored). Lists are comma-separated; the seeds value also
/// accepts "A..B" inclusive ranges, e.g. "seeds = 1..32". Keys:
///   seeds, attacks, policies, environments, nodes,
///   duration, attack_delay, victim, machine_interrupts (on|off)
/// Unknown keys are an error. On failure returns nullopt and writes a
/// message to `error`.
std::optional<CampaignSpec> parse_spec(std::string_view text,
                                       std::string* error);

/// parse_spec over the contents of `path`.
std::optional<CampaignSpec> parse_spec_file(const std::string& path,
                                            std::string* error);

}  // namespace triad::campaign
