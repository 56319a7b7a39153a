#include "exp/axes.h"

namespace triad::exp {
namespace {

using attacks::AttackKind;

constexpr std::pair<std::string_view, std::optional<AttackKind>>
    kAttackNames[] = {{"none", std::nullopt},
                      {"fplus", AttackKind::kFPlus},
                      {"fminus", AttackKind::kFMinus}};
constexpr std::pair<std::string_view, Policy> kPolicyNames[] = {
    {"original", Policy::kOriginal}, {"triadplus", Policy::kTriadPlus}};
constexpr std::pair<std::string_view, AexEnvironment> kEnvironmentNames[] = {
    {"triad", AexEnvironment::kTriadLike},
    {"low", AexEnvironment::kLowAex},
    {"none", AexEnvironment::kNone}};

}  // namespace

const Axis<std::optional<AttackKind>> kAttacks{"attack", kAttackNames};
const Axis<Policy> kPolicies{"policy", kPolicyNames};
const Axis<AexEnvironment> kEnvironments{"environment", kEnvironmentNames};

}  // namespace triad::exp
