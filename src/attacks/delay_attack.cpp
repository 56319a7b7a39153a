#include "attacks/delay_attack.h"

#include <stdexcept>

namespace triad::attacks {

namespace {

// Responses whose request->response elapsed time reaches this are
// classified as high-s probes (midpoint of Triad's 0 s / 1 s sweep).
constexpr Duration kHighSThreshold = milliseconds(500);

}  // namespace

DelayAttack::DelayAttack(DelayAttackConfig config) : config_(config) {
  if (config_.victim == config_.ta_address) {
    throw std::invalid_argument("DelayAttack: victim must differ from TA");
  }
  if (config_.added_delay < 0) {
    throw std::invalid_argument("DelayAttack: invalid delays");
  }
}

net::Middlebox::Action DelayAttack::on_packet(const net::Packet& packet,
                                              SimTime now) {
  if (!active_) return {};

  if (packet.src == config_.victim && packet.dst == config_.ta_address) {
    // Victim -> TA: remember when the probe left; payload is opaque.
    ++stats_.requests_observed;
    last_request_time_ = now;
    return {};
  }

  if (packet.src == config_.ta_address && packet.dst == config_.victim) {
    ++stats_.responses_observed;
    if (!last_request_time_) return {};  // unsolicited; nothing to infer
    const Duration elapsed = now - *last_request_time_;
    const bool high_s = elapsed >= kHighSThreshold;
    const bool target = config_.kind == AttackKind::kFPlus ? high_s : !high_s;
    if (target) {
      ++stats_.responses_delayed;
      return {.extra_delay = config_.added_delay, .drop = false};
    }
  }
  return {};
}

}  // namespace triad::attacks
