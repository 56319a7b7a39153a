// True-chimer untaint policy (paper §V).
//
// Instead of blindly following the fastest peer clock, the node collects
// every peer answer, forms intervals t_i ± e_i (including its own clock),
// and runs Marzullo's intersection. Only when a majority of clocks agree
// does it trust the result:
//   * own clock inside the majority interval  -> keep local;
//   * own clock outside, majority exists      -> adopt the midpoint;
//   * no majority                              -> fall back to the TA.
// An F- attacked peer races ahead of everyone else, lands outside the
// majority interval, and is simply out-voted instead of being followed.
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "obs/metrics.h"
#include "resilient/marzullo.h"
#include "triad/policy.h"

namespace triad::resilient {

struct TrueChimerConfig {
  /// Extra slack added to every interval for network/processing delay.
  Duration margin = milliseconds(2);
  /// Minimum fraction of clocks (peers + self) that must agree.
  /// 0.5 means strict majority (floor(n/2)+1).
  double quorum_fraction = 0.5;
  /// When the node's own error bound exceeds this, it resynchronizes
  /// with the TA instead of trusting interval votes — wide own intervals
  /// would otherwise let a tight-but-false clock drag the intersection
  /// (§V: "a node may now check if its clock is consistent with the TA").
  Duration max_local_error = milliseconds(50);
  /// Peer evidence is only *adopted* (clock stepped) when every clock in
  /// the majority clique reports an error bound at most this tight.
  /// A clique containing a wide honest interval can be captured by a
  /// tight false-ticker; stepping onto it would import the attack, so
  /// the node asks the TA instead.
  Duration adopt_error_ceiling = milliseconds(10);
  /// Called after every quorate decision with the peers found in the
  /// majority interval — the node's current true-chimer set, feedable to
  /// a ChimerRegistry (§V: nodes publish their true-chimer lists).
  std::function<void(const std::vector<NodeId>&)> on_chimer_set;
};

class TrueChimerPolicy final : public UntaintPolicy {
 public:
  explicit TrueChimerPolicy(TrueChimerConfig config = {});

  /// Registers triad_policy_decisions_total{node=,outcome=} plus
  /// triad_policy_quorum_failures_total{node=} (direct counters;
  /// incremented inside decide(), no-op without a registry).
  void bind_obs(obs::Registry* registry, NodeId node) override;

  [[nodiscard]] Mode mode() const override { return Mode::kCollectAll; }
  [[nodiscard]] Decision decide(
      SimTime local_now, Duration local_error,
      const std::vector<PeerSample>& samples) override;

 private:
  TrueChimerConfig config_;
  // decide()'s working storage, reused across calls so a warm policy
  // allocates nothing per decision.
  std::vector<Interval> intervals_;
  std::vector<SweepEvent> events_;
  std::vector<std::size_t> chimers_;
  std::vector<NodeId> peer_chimers_;
  obs::Counter decide_keep_local_;
  obs::Counter decide_adopt_;
  obs::Counter decide_ask_ta_;
  obs::Counter quorum_failures_;
};

std::unique_ptr<UntaintPolicy> make_true_chimer_policy(
    TrueChimerConfig config = {});

}  // namespace triad::resilient
