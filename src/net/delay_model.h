// One-way network delay models.
//
// The paper's testbed keeps the three Triad nodes and the TA on one
// machine (loopback-ish delays with OS jitter). Jitter is what limits
// Triad's calibration quality — ~100 µs of asymmetric noise across the
// 0 s / 1 s round-trip classes yields the ~110 ppm fault-free drift the
// paper measures — so the default model is base + truncated-normal jitter.
#pragma once

#include "util/rng.h"
#include "util/types.h"

namespace triad::net {

/// Samples a one-way packet delay. Implementations must return >= 0.
class DelayModel {
 public:
  virtual ~DelayModel() = default;
  virtual Duration sample(Rng& rng) = 0;
};

/// Constant delay (tests, idealized links).
class FixedDelay final : public DelayModel {
 public:
  explicit FixedDelay(Duration delay);
  Duration sample(Rng& rng) override;

 private:
  Duration delay_;
};

/// base + |N(0, jitter)| truncated below at min_delay.
class JitterDelay final : public DelayModel {
 public:
  JitterDelay(Duration base, Duration jitter_stddev, Duration min_delay = 0);
  Duration sample(Rng& rng) override;

 private:
  Duration base_;
  Duration jitter_stddev_;
  Duration min_delay_;
};

/// Exponentially distributed queueing tail on top of a base delay:
/// base + Exp(mean_tail). Models congested links in ablation studies.
class ExponentialTailDelay final : public DelayModel {
 public:
  ExponentialTailDelay(Duration base, Duration mean_tail);
  Duration sample(Rng& rng) override;

 private:
  Duration base_;
  Duration mean_tail_;
};

}  // namespace triad::net
