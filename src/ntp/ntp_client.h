// NTP-style client: polls a server, filters samples, disciplines a
// TSC-driven clock — the mature synchronization §V recommends over
// Triad's short-window regression.
//
// Defences relevant to the paper's attacker:
//  * minimum-delay sample selection (ClockFilter) discards exchanges an
//    attacker delayed — injected delay inflates the measured delay, and
//    the offset error is bounded by delay/2;
//  * poll intervals back off (2^tau), so frequency is measured over long
//    timeframes where per-message delay bias cancels.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "crypto/channel.h"
#include "ntp/disciplined_clock.h"
#include "ntp/sample.h"
#include "resilient/clock_filter.h"
#include "resilient/marzullo.h"
#include "runtime/env.h"
#include "tsc/tsc.h"
#include "util/types.h"

namespace triad::ntp {

struct NtpClientConfig {
  NodeId id = 0;
  /// Time sources. With several servers the client runs one filter per
  /// server and combines their candidates with Marzullo's intersection —
  /// a majority of honest servers out-votes a lying one (RFC 5905's
  /// select/cluster stage, simplified).
  std::vector<NodeId> servers;
  /// Poll interval bounds: 2^tau seconds (RFC 5905 uses tau in [4,17];
  /// simulations default lower so convergence is visible in minutes).
  int min_tau = 2;
  int max_tau = 6;
  /// Applied offsets below this let tau back off (clock is stable).
  Duration stable_offset = milliseconds(2);
  /// Half-width of a server candidate's interval for the selection
  /// stage: offset ± (delay/2 + margin).
  Duration selection_margin = microseconds(500);
  DisciplineConfig discipline;
};

struct NtpClientStats {
  std::uint64_t polls = 0;
  std::uint64_t samples = 0;
  std::uint64_t implausible = 0;
  std::uint64_t applied = 0;
  std::uint64_t steps = 0;
  std::uint64_t falsetickers_rejected = 0;  // selection-stage exclusions
};

class NtpClient {
 public:
  NtpClient(runtime::Env env, const crypto::Keyring& keyring,
            const tsc::Tsc& tsc, double nominal_frequency_hz,
            NtpClientConfig config);
  ~NtpClient();
  NtpClient(const NtpClient&) = delete;
  NtpClient& operator=(const NtpClient&) = delete;

  void start();

  /// The disciplined clock's current value.
  [[nodiscard]] SimTime now() const { return clock_.now(); }

  [[nodiscard]] const DisciplinedClock& clock() const { return clock_; }
  [[nodiscard]] int current_tau() const { return tau_; }
  [[nodiscard]] const NtpClientStats& stats() const { return stats_; }

 private:
  void poll();
  void on_packet(const runtime::Packet& packet);

  /// Combines the per-server candidates; applies the result if fresh.
  void select_and_apply();

  struct Source {
    NodeId server = 0;
    resilient::ClockFilter filter{8, hours(2)};
    std::uint64_t outstanding_id = 0;
    SimTime outstanding_t1 = 0;
  };

  runtime::Env env_;
  NtpClientConfig config_;
  crypto::SecureChannel channel_;
  DisciplinedClock clock_;
  std::vector<Source> sources_;
  int tau_;
  std::uint64_t next_request_id_ = 1;
  SimTime last_applied_sample_at_ = -1;
  bool started_ = false;
  runtime::TimerId next_poll_{};
  NtpClientStats stats_;
  // Scratch reused by every message and select_and_apply() call.
  Bytes plaintext_;
  Bytes frame_;
  std::vector<resilient::ClockSample> candidates_;
  std::vector<resilient::Interval> intervals_;
  std::vector<resilient::SweepEvent> events_;
  std::vector<std::size_t> chimers_;
};

}  // namespace triad::ntp
