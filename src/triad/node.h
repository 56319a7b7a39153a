// Triad node: the trusted-time state machine running inside one enclave.
//
// State machine (paper §III-B, Fig. 3b legend):
//   FullCalib --> Ok : TSC frequency regression + time reference acquired
//   Ok --> Tainted   : AEX severed time continuity
//   Tainted --> Ok   : peer untainting (original: first untainted peer,
//                      max policy) or TA reference calibration
//   * --> FullCalib  : INC monitor detected a TSC rate/offset discrepancy
//   Tainted --> RefCalib --> Ok : all peers tainted, fetch TA reference
//
// Time is served as ref_time + (tsc - ref_tsc) / F_calib, monotonicized.
// F_calib comes from a linear regression of TSC increments against the
// requested TA wait-times (0 s / 1 s) — the attackable step.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "crypto/channel.h"
#include "enclave/enclave_thread.h"
#include "obs/metrics.h"
#include "obs/span.h"
#include "runtime/env.h"
#include "stats/regression.h"
#include "triad/messages.h"
#include "triad/policy.h"
#include "tsc/core.h"
#include "tsc/inc_monitor.h"
#include "tsc/tsc.h"
#include "util/types.h"

namespace triad {

enum class NodeState : std::uint8_t {
  kFullCalib = 0,  // measuring TSC frequency + reference with the TA
  kRefCalib = 1,   // refreshing only the time reference with the TA
  kOk = 2,         // serving timestamps
  kTainted = 3,    // AEX happened; timestamp not trustworthy
};

[[nodiscard]] const char* to_string(NodeState state);

struct TriadConfig {
  NodeId id = 0;
  NodeId ta_address = 0;
  std::vector<NodeId> peers;

  // --- frequency calibration (the F+/F- attack surface) --------------
  /// Number of (low, high) wait round-trip pairs in the regression.
  int calib_pairs = 8;
  Duration calib_wait_low = 0;
  Duration calib_wait_high = seconds(1);
  /// Give up on a TA round-trip after this long and resend.
  Duration ta_timeout = seconds(3);

  // --- untainting ------------------------------------------------------
  /// How long to wait for peer answers before falling back to the TA.
  Duration peer_timeout = milliseconds(5);

  // --- INC-based TSC monitoring ---------------------------------------
  TscValue inc_window_ticks = tsc::kPaperWindowTicks;
  int inc_calib_runs = 64;
  double inc_tolerance_sigmas = 6.0;

  // --- clock error estimation (used by hardened policies) -------------
  /// Assumed worst-case own drift when estimating the error bound.
  double drift_bound_ppm = 500.0;
  /// Base error right after an external sync (≈ network delay bound).
  Duration base_sync_error = milliseconds(1);

  // --- Triad+ (Section V) extensions; defaults = original protocol ----
  /// In-TCB refresh deadline (0 = disabled). When enabled the node
  /// proactively re-checks its clock this often even with no AEX.
  Duration refresh_deadline = 0;
  /// NTP-style long-window frequency refinement: re-estimate F_calib
  /// from TA timestamps spanning at least long_window_min. Because both
  /// endpoints suffer (approximately) the same attacker delay, the
  /// estimate cancels the F+/F- bias that short-window regression cannot.
  bool long_window_calibration = false;
  Duration long_window_min = seconds(60);
  /// Maximum relative change (ppm) a single long-window refinement may
  /// apply; 0 (default) disables the guard. Trade-off: a ramping-delay
  /// attacker (attacks/ramp_attack.h) needs large per-window revisions,
  /// so a tight bound caps that attack's transient — but a large
  /// *honest* revision (repairing an F-/F+ poisoned initial regression)
  /// is locally indistinguishable and gets rate-limited too. Pick per
  /// threat model; the ablation bench quantifies both sides.
  double long_window_max_revision_ppm = 0.0;
};

struct NodeStats {
  std::uint64_t aex_count = 0;
  std::uint64_t full_calibrations = 0;
  std::uint64_t ta_time_references = 0;  // reference adoptions from the TA
  std::uint64_t calib_samples_rejected = 0;  // AEX hit mid-measurement
  std::uint64_t peer_rounds = 0;
  std::uint64_t peer_adoptions = 0;  // forward time jumps onto a peer clock
  std::uint64_t kept_local = 0;
  std::uint64_t ta_fallbacks = 0;  // peer round failed -> TA
  std::uint64_t proactive_checks = 0;  // Triad+ deadline firings
  std::uint64_t inc_check_failures = 0;
  std::uint64_t timestamps_served = 0;
  std::uint64_t serve_unavailable = 0;
  std::uint64_t bad_frames = 0;  // auth/decode failures on input
};

/// Observer hooks for experiment instrumentation (all optional).
struct NodeHooks {
  std::function<void(NodeState from, NodeState to)> on_state_change;
  /// Fired when the node steps its clock onto external evidence.
  /// `source` is the peer id, or the TA address for TA adoptions.
  std::function<void(SimTime local_before, SimTime adopted, NodeId source)>
      on_adoption;
};

class TriadNode {
 public:
  struct HardwareParams {
    double tsc_frequency_hz = tsc::kPaperTscFrequencyHz;
    TscValue tsc_initial = 0;
    tsc::CoreParams core;
  };

  TriadNode(runtime::Env env, const crypto::Keyring& keyring,
            TriadConfig config, HardwareParams hardware,
            std::unique_ptr<UntaintPolicy> policy = nullptr);
  ~TriadNode();
  TriadNode(const TriadNode&) = delete;
  TriadNode& operator=(const TriadNode&) = delete;

  /// Calibrates the INC monitor and starts the initial full calibration.
  void start();

  // --- public time API -------------------------------------------------

  /// Serves a monotonic trusted timestamp, or nullopt while the node is
  /// tainted or calibrating (unavailable).
  [[nodiscard]] std::optional<SimTime> serve_timestamp();

  /// The node's extrapolated clock (also defined while tainted; used for
  /// drift measurements and policy decisions).
  [[nodiscard]] SimTime current_time() const;

  /// Self-estimated clock error bound (grows with time since last sync).
  [[nodiscard]] Duration current_error_bound() const;

  /// TrueTime-style bounded timestamp (Spanner's TT.now(), cited in the
  /// paper's intro): the true reference time lies within
  /// [earliest, latest] as long as the node's real drift stays inside
  /// config().drift_bound_ppm. Monotonic in both endpoints across calls
  /// while the node stays available; nullopt while unavailable.
  struct TimeInterval {
    SimTime earliest = 0;
    SimTime latest = 0;
  };
  [[nodiscard]] std::optional<TimeInterval> now_interval();

  [[nodiscard]] NodeState state() const { return state_; }
  [[nodiscard]] bool available() const { return state_ == NodeState::kOk; }

  /// Calibrated TSC frequency estimate (ticks per reference second);
  /// 0 before the first full calibration finishes.
  [[nodiscard]] double calibrated_frequency_hz() const { return f_calib_hz_; }

  // --- environment access (scenario wiring, attacks, instrumentation) --
  [[nodiscard]] enclave::EnclaveThread& monitoring_thread() {
    return thread_;
  }
  [[nodiscard]] tsc::Tsc& tsc() { return tsc_; }
  [[nodiscard]] tsc::Core& core() { return core_; }
  [[nodiscard]] const TriadConfig& config() const { return config_; }
  [[nodiscard]] const NodeStats& stats() const { return stats_; }
  void set_hooks(NodeHooks hooks) { hooks_ = std::move(hooks); }

  /// Cumulative time spent in each state (indexed by NodeState).
  [[nodiscard]] std::array<Duration, 4> state_durations() const;

  /// Fraction of elapsed time the node was available (Ok state).
  [[nodiscard]] double availability() const;

 private:
  // --- observability ---------------------------------------------------
  /// Exports NodeStats + state/frequency/availability gauges as
  /// triad_node_* series labelled node="<id>" (callback series, zero
  /// hot-path cost) and resolves the direct adoption counter/histogram.
  /// No-op when the Env carries no registry.
  void register_metrics();

  // --- state management ------------------------------------------------
  void set_state(NodeState next);

  // --- causal spans ----------------------------------------------------
  /// Opens a new causal span: every trace event and outgoing request
  /// until the next call is tagged with it. Called at episode starts —
  /// an AEX hitting an Ok node, a proactive peer round, and each full
  /// calibration (see obs/span.h for the episode taxonomy).
  obs::SpanId begin_span();

  // --- clock -----------------------------------------------------------
  void sync_clock_to(SimTime new_time, Duration new_error, NodeId source);

  // --- AEX handling ----------------------------------------------------
  void on_aex();

  // --- TA round-trips --------------------------------------------------
  void begin_full_calibration();
  void send_calibration_request();
  void begin_ref_calibration();
  void send_ta_request(Duration wait);
  void on_ta_response(const proto::TaResponse& response);
  void on_ta_timeout(std::uint64_t request_id);
  void maybe_refine_frequency(SimTime ta_time);

  // --- peer untainting ---------------------------------------------------
  void begin_peer_round(bool proactive);
  void finish_peer_round();
  void on_peer_response(NodeId peer, const proto::PeerTimeResponse& response);
  void answer_peer_request(NodeId peer, const proto::PeerTimeRequest& request);

  // --- networking --------------------------------------------------------
  void on_packet(const runtime::Packet& packet);
  void send_message(NodeId to, const proto::Message& message);

  runtime::Env env_;
  TriadConfig config_;
  crypto::SecureChannel channel_;
  enclave::EnclaveThread thread_;
  tsc::Tsc tsc_;
  tsc::Core core_;
  tsc::IncMonitor monitor_;
  std::unique_ptr<UntaintPolicy> policy_;
  NodeHooks hooks_;

  NodeState state_ = NodeState::kFullCalib;
  SimTime state_since_ = 0;
  std::array<Duration, 4> state_time_{};
  SimTime started_at_ = 0;
  bool started_ = false;

  // Clock: time = ref_time_ + (tsc - ref_tsc_) / f_calib_hz_.
  double f_calib_hz_ = 0.0;
  SimTime ref_time_ = 0;
  TscValue ref_tsc_ = 0;
  SimTime last_served_ = 0;
  SimTime last_sync_ = 0;
  Duration error_at_sync_ = 0;
  TimeInterval last_interval_{};

  // INC monitoring calibration.
  tsc::IncCalibration inc_calibration_{};

  // Long-window frequency refinement anchor (Triad+): last TA sync.
  bool have_ta_anchor_ = false;
  SimTime anchor_ta_time_ = 0;
  TscValue anchor_tsc_ = 0;

  // Frequency calibration round-trips.
  stats::LinearRegression calib_regression_;
  int calib_samples_low_ = 0;
  int calib_samples_high_ = 0;

  // Outstanding TA request (one at a time).
  struct OutstandingTa {
    std::uint64_t request_id = 0;
    Duration wait = 0;
    SimTime sent_at = 0;
    TscValue sent_tsc = 0;
    bool for_full_calibration = false;
    runtime::TimerId timeout{};
  };
  std::optional<OutstandingTa> outstanding_ta_;

  // Peer untainting round.
  struct PeerRound {
    std::uint64_t request_id = 0;
    bool proactive = false;
    std::size_t answers = 0;  // including tainted answers
    runtime::TimerId timeout{};
  };
  std::optional<PeerRound> peer_round_;
  // The open round's untainted answers. Kept outside PeerRound so its
  // capacity carries over from round to round.
  std::vector<PeerSample> peer_samples_;

  // Triad+ in-TCB deadline timer.
  std::unique_ptr<runtime::PeriodicTimer> deadline_timer_;

  // Scratch for the message path, reused by every send and receive so a
  // warm node allocates nothing per message: encode_into -> seal_into ->
  // Transport::send, and open_into -> decode.
  Bytes plaintext_;
  Bytes frame_;

  std::uint64_t next_request_id_ = 1;
  std::uint32_t span_seq_ = 0;       // per-node span sequence (obs/span.h)
  obs::SpanId current_span_ = 0;     // tags events until the next episode
  NodeStats stats_;
  obs::Counter adoptions_counter_;       // triad_node_adoptions_total
  obs::Histogram adoption_step_ms_;      // triad_node_adoption_step_ms
};

}  // namespace triad
