// One name -> value table per scenario axis (defined in axes.cpp): the
// only place the names are spelled. CampaignSpec::validate (behind both
// triad_sim's and triad_campaign's flags) and triad_sim's per-node --env
// check names against them, refusing with bad(); campaign::build_scenario
// maps through them.
#pragma once

#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>

#include "attacks/delay_attack.h"
#include "exp/scenario.h"

namespace triad::exp {

/// Every node's untainting policy: the paper's Triad, or Triad+
/// (resilient::harden plus the true-chimer policy).
enum class Policy { kOriginal, kTriadPlus };

template <typename T>
struct Axis {
  /// The axis as error messages name it ("attack").
  std::string_view what;
  std::span<const std::pair<std::string_view, T>> names;

  /// The value called `name`, or null when the axis has no such name.
  [[nodiscard]] const T* find(std::string_view name) const {
    for (const auto& [known, value] : names) {
      if (known == name) return &value;
    }
    return nullptr;
  }
  /// find(name), throwing std::invalid_argument(bad(name)) when null.
  [[nodiscard]] const T& at(std::string_view name) const {
    if (const T* value = find(name)) return *value;
    throw std::invalid_argument(bad(name));
  }
  /// "bad attack 'sneaky' (none|fplus|fminus)": every name in table
  /// order.
  [[nodiscard]] std::string bad(std::string_view name) const {
    std::string text =
        "bad " + std::string(what) + " '" + std::string(name) + "' (";
    for (const auto& entry : names) {
      text.append(text.back() == '(' ? "" : "|").append(entry.first);
    }
    return text + ")";
  }
};

/// "none" maps to no attack.
extern const Axis<std::optional<attacks::AttackKind>> kAttacks;
extern const Axis<Policy> kPolicies;
extern const Axis<AexEnvironment> kEnvironments;

}  // namespace triad::exp
