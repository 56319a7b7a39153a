#include "resilient/true_chimer_policy.h"

#include <algorithm>
#include <stdexcept>

namespace triad::resilient {

TrueChimerPolicy::TrueChimerPolicy(TrueChimerConfig config)
    : config_(config) {
  if (config_.margin < 0 || config_.quorum_fraction <= 0.0 ||
      config_.quorum_fraction >= 1.0 || config_.max_local_error <= 0 ||
      config_.adopt_error_ceiling <= 0) {
    throw std::invalid_argument("TrueChimerConfig: bad parameters");
  }
}

void TrueChimerPolicy::bind_obs(obs::Registry* registry, NodeId node) {
  if (registry == nullptr) return;
  const std::string id = std::to_string(node);
  registry->set_help("triad_policy_decisions_total",
                     "True-chimer untaint decisions by outcome");
  decide_keep_local_ = registry->counter(
      "triad_policy_decisions_total",
      {{"node", id}, {"outcome", "keep_local"}});
  decide_adopt_ = registry->counter("triad_policy_decisions_total",
                                    {{"node", id}, {"outcome", "adopt"}});
  decide_ask_ta_ = registry->counter("triad_policy_decisions_total",
                                     {{"node", id}, {"outcome", "ask_ta"}});
  registry->set_help("triad_policy_quorum_failures_total",
                     "Decisions where no majority clique of clocks agreed");
  quorum_failures_ =
      registry->counter("triad_policy_quorum_failures_total", {{"node", id}});
}

UntaintPolicy::Decision TrueChimerPolicy::decide(
    SimTime local_now, Duration local_error,
    const std::vector<PeerSample>& samples) {
  Decision decision;
  if (samples.empty() || local_error > config_.max_local_error) {
    decision.action = Decision::Action::kAskTimeAuthority;
    decide_ask_ta_.inc();
    return decision;
  }

  // Intervals: index 0 is the local clock, then one per peer sample.
  intervals_.clear();
  const Duration own_e = local_error + config_.margin;
  intervals_.push_back({local_now - own_e, local_now + own_e});
  for (const PeerSample& s : samples) {
    const Duration e = s.error_bound + config_.margin;
    intervals_.push_back({s.timestamp - e, s.timestamp + e});
  }

  const MarzulloResult best = marzullo(intervals_, events_);
  const auto total = intervals_.size();
  const auto quorum = static_cast<std::size_t>(
                          config_.quorum_fraction *
                          static_cast<double>(total)) +
                      1;
  if (best.count < quorum) {
    // No majority clique of true-chimers: do not guess, ask the root of
    // trust.
    decision.action = Decision::Action::kAskTimeAuthority;
    quorum_failures_.inc();
    decide_ask_ta_.inc();
    return decision;
  }

  // The true-chimer criterion: a clock whose *interval* overlaps the
  // majority intersection is a chimer. If our own clock is one, we keep
  // it — stepping onto the intersection midpoint here would let a tight
  // but false peer interval ratchet the whole cluster.
  overlapping(intervals_, best.best, chimers_);
  if (config_.on_chimer_set) {
    peer_chimers_.clear();
    for (std::size_t idx : chimers_) {
      if (idx != 0) peer_chimers_.push_back(samples[idx - 1].peer);
    }
    config_.on_chimer_set(peer_chimers_);
  }
  const bool own_consistent =
      std::find(chimers_.begin(), chimers_.end(), 0u) != chimers_.end();
  if (own_consistent) {
    decision.action = Decision::Action::kKeepLocal;
    decide_keep_local_.inc();
    return decision;
  }

  // Own clock is a false-ticker. Step onto the majority interval only if
  // the whole clique is high-quality; a wide honest interval would let a
  // tight attacker capture the intersection, so prefer the TA then.
  Duration widest = 0;
  for (std::size_t idx : chimers_) {
    if (idx == 0) continue;  // self
    widest = std::max(widest, samples[idx - 1].error_bound);
  }
  if (widest > config_.adopt_error_ceiling) {
    decision.action = Decision::Action::kAskTimeAuthority;
    decide_ask_ta_.inc();
    return decision;
  }

  decision.action = Decision::Action::kAdopt;
  decide_adopt_.inc();
  decision.adopted_time = best.midpoint();
  Duration best_error = kSimTimeMax;
  for (std::size_t idx : chimers_) {
    if (idx == 0) continue;  // self
    const PeerSample& s = samples[idx - 1];
    if (s.error_bound < best_error) {
      best_error = s.error_bound;
      decision.source = s.peer;
    }
  }
  return decision;
}

std::unique_ptr<UntaintPolicy> make_true_chimer_policy(
    TrueChimerConfig config) {
  return std::make_unique<TrueChimerPolicy>(config);
}

}  // namespace triad::resilient
