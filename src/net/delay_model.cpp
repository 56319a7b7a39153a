#include "net/delay_model.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace triad::net {

FixedDelay::FixedDelay(Duration delay) : delay_(delay) {
  if (delay < 0) throw std::invalid_argument("FixedDelay: negative delay");
}

Duration FixedDelay::sample(Rng& /*rng*/) { return delay_; }

JitterDelay::JitterDelay(Duration base, Duration jitter_stddev,
                         Duration min_delay)
    : base_(base), jitter_stddev_(jitter_stddev), min_delay_(min_delay) {
  if (base < 0 || jitter_stddev < 0 || min_delay < 0) {
    throw std::invalid_argument("JitterDelay: negative parameter");
  }
}

Duration JitterDelay::sample(Rng& rng) {
  const double jitter =
      std::abs(rng.normal(0.0, static_cast<double>(jitter_stddev_)));
  const auto delay = base_ + static_cast<Duration>(jitter);
  return std::max(delay, min_delay_);
}

ExponentialTailDelay::ExponentialTailDelay(Duration base, Duration mean_tail)
    : base_(base), mean_tail_(mean_tail) {
  if (base < 0 || mean_tail <= 0) {
    throw std::invalid_argument("ExponentialTailDelay: bad parameter");
  }
}

Duration ExponentialTailDelay::sample(Rng& rng) {
  return base_ + static_cast<Duration>(
                     rng.exponential(static_cast<double>(mean_tail_)));
}

}  // namespace triad::net
