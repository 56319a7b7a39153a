// F+ / F- calibration delay attacks (paper §III-C).
//
// The attacker controls the victim's OS/network stack. It cannot read the
// sealed payloads — in particular not the requested wait-time s — but it
// observes every packet's endpoints and timing, so it classifies each TA
// response by the elapsed time since the victim's request: a response
// arriving ~1 s later belongs to a 1 s-sleep probe, an immediate one to a
// 0 s-sleep probe.
//
//   F+ : delay long-sleep (high s) responses  -> regression slope up
//        -> F_calib > F_TSC -> victim's clock runs SLOW.
//   F- : delay short-sleep (low s) responses  -> regression slope down
//        -> F_calib < F_TSC -> victim's clock runs FAST, and the
//        max-timestamp peer policy propagates it to honest nodes.
#pragma once

#include <cstdint>
#include <optional>
#include <unordered_map>

#include "net/network.h"
#include "util/types.h"

namespace triad::attacks {

enum class AttackKind {
  kFPlus,   // delay high-s responses: slow the victim's perceived time
  kFMinus,  // delay low-s responses: quicken the victim's perceived time
};

struct DelayAttackConfig {
  AttackKind kind = AttackKind::kFMinus;
  NodeId victim = 0;
  NodeId ta_address = 0;
  /// Extra delay injected into classified responses (paper: 100 ms).
  Duration added_delay = milliseconds(100);
};

/// Middlebox mounting an F+ or F- attack on one victim's TA traffic.
class DelayAttack final : public net::Middlebox {
 public:
  explicit DelayAttack(DelayAttackConfig config);

  Action on_packet(const net::Packet& packet, SimTime now) override;

  /// Enables/disables the attack at runtime (scenarios switching the
  /// attack on mid-experiment).
  void set_active(bool active) { active_ = active; }
  [[nodiscard]] bool active() const { return active_; }

  struct Stats {
    std::uint64_t requests_observed = 0;
    std::uint64_t responses_observed = 0;
    std::uint64_t responses_delayed = 0;
  };
  [[nodiscard]] const Stats& stats() const { return stats_; }

 private:
  DelayAttackConfig config_;
  bool active_ = true;
  /// Send time of the victim's most recent TA request. Triad keeps at
  /// most one TA round-trip outstanding, so a single slot suffices.
  std::optional<SimTime> last_request_time_;
  Stats stats_;
};

}  // namespace triad::attacks
