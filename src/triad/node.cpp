#include "triad/node.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "util/log.h"

namespace triad {

const char* to_string(NodeState state) {
  switch (state) {
    case NodeState::kFullCalib: return "FullCalib";
    case NodeState::kRefCalib: return "RefCalib";
    case NodeState::kOk: return "OK";
    case NodeState::kTainted: return "Tainted";
  }
  return "?";
}

TriadNode::TriadNode(runtime::Env env, const crypto::Keyring& keyring,
                     TriadConfig config, HardwareParams hardware,
                     std::unique_ptr<UntaintPolicy> policy)
    : env_(env), config_(std::move(config)),
      channel_(config_.id, keyring), thread_(env_.clock()),
      tsc_(env_.clock(), hardware.tsc_frequency_hz, hardware.tsc_initial),
      core_(hardware.core,
            env_.fork_rng("core-" + std::to_string(config_.id))),
      monitor_(tsc_, core_),
      policy_(policy ? std::move(policy) : make_original_policy()) {
  if (config_.calib_pairs < 1) {
    throw std::invalid_argument("TriadConfig: calib_pairs must be >= 1");
  }
  if (config_.calib_wait_low >= config_.calib_wait_high) {
    throw std::invalid_argument(
        "TriadConfig: calib_wait_low must be < calib_wait_high");
  }
  if (config_.peer_timeout <= 0 || config_.ta_timeout <= 0) {
    throw std::invalid_argument("TriadConfig: timeouts must be positive");
  }
  env_.transport().attach(
      config_.id, [this](const runtime::Packet& packet) { on_packet(packet); });
  thread_.set_aex_handler([this] { on_aex(); });
  register_metrics();
  policy_->bind_obs(env_.metrics(), config_.id);
}

TriadNode::~TriadNode() {
  // Cancel every pending event that captures `this`.
  if (outstanding_ta_) env_.cancel(outstanding_ta_->timeout);
  if (peer_round_) env_.cancel(peer_round_->timeout);
  deadline_timer_.reset();
  env_.transport().detach(config_.id);
  if (env_.metrics() != nullptr) env_.metrics()->unregister(this);
}

void TriadNode::register_metrics() {
  obs::Registry* registry = env_.metrics();
  if (registry == nullptr) return;
  const obs::Labels labels{{"node", std::to_string(config_.id)}};
  const auto count = [&](const std::uint64_t NodeStats::* field,
                         const char* name, const char* help) {
    registry->set_help(name, help);
    registry->counter_fn(this, name, labels, [this, field] {
      return static_cast<double>(stats_.*field);
    });
  };
  count(&NodeStats::aex_count, "triad_node_aex_total",
        "Asynchronous enclave exits observed");
  count(&NodeStats::full_calibrations, "triad_node_full_calibrations_total",
        "Full frequency calibrations started");
  count(&NodeStats::ta_time_references, "triad_node_ta_references_total",
        "Time references adopted from the TA");
  count(&NodeStats::calib_samples_rejected,
        "triad_node_calib_samples_rejected_total",
        "Calibration round-trips invalidated by an AEX");
  count(&NodeStats::peer_rounds, "triad_node_peer_rounds_total",
        "Peer untainting rounds started");
  count(&NodeStats::peer_adoptions, "triad_node_peer_adoptions_total",
        "Peer clocks adopted (forward jumps)");
  count(&NodeStats::kept_local, "triad_node_kept_local_total",
        "Untaint rounds resolved by keeping the local clock");
  count(&NodeStats::ta_fallbacks, "triad_node_ta_fallbacks_total",
        "Untaint rounds that fell back to the TA");
  count(&NodeStats::proactive_checks, "triad_node_proactive_checks_total",
        "Triad+ refresh-deadline firings");
  count(&NodeStats::inc_check_failures, "triad_node_inc_failures_total",
        "INC monitor checks that detected a TSC discrepancy");
  count(&NodeStats::timestamps_served, "triad_node_timestamps_served_total",
        "Trusted timestamps served");
  count(&NodeStats::serve_unavailable, "triad_node_serve_unavailable_total",
        "Timestamp requests refused while not Ok");
  count(&NodeStats::bad_frames, "triad_node_bad_frames_total",
        "Undecodable or unauthenticated inbound frames");
  registry->set_help("triad_node_state",
                     "Current state (0=FullCalib 1=RefCalib 2=Ok 3=Tainted)");
  registry->gauge_fn(this, "triad_node_state", labels, [this] {
    return static_cast<double>(state_);
  });
  registry->set_help("triad_node_f_calib_hz",
                     "Calibrated TSC frequency estimate");
  registry->gauge_fn(this, "triad_node_f_calib_hz", labels,
                     [this] { return f_calib_hz_; });
  registry->set_help("triad_node_availability",
                     "Fraction of elapsed time spent serving (Ok)");
  registry->gauge_fn(this, "triad_node_availability", labels,
                     [this] { return availability(); });
  registry->set_help("triad_node_adoptions_total",
                     "Clock steps onto external evidence (peer or TA)");
  adoptions_counter_ = registry->counter("triad_node_adoptions_total", labels);
  registry->set_help("triad_node_adoption_step_ms",
                     "Absolute clock step size per adoption");
  adoption_step_ms_ = registry->histogram(
      "triad_node_adoption_step_ms",
      {0.001, 0.01, 0.1, 1.0, 10.0, 100.0, 1000.0, 10000.0}, labels);
}

void TriadNode::start() {
  if (started_) throw std::logic_error("TriadNode::start called twice");
  started_ = true;
  started_at_ = env_.now();
  state_since_ = env_.now();
  last_sync_ = env_.now();

  // Calibrate the INC monitor over uninterrupted windows (the paper's
  // §IV-A1 measurement, run at enclave start).
  inc_calibration_ =
      monitor_.calibrate(config_.inc_window_ticks, config_.inc_calib_runs);
  monitor_.reset_continuity();

  if (config_.refresh_deadline > 0) {
    deadline_timer_ = std::make_unique<runtime::PeriodicTimer>(
        env_, config_.refresh_deadline, [this] {
          if (state_ == NodeState::kOk) {
            ++stats_.proactive_checks;
            begin_peer_round(/*proactive=*/true);
          }
        });
  }

  begin_full_calibration();
}

// ---------------------------------------------------------------------
// Clock

SimTime TriadNode::current_time() const {
  if (f_calib_hz_ <= 0.0) return ref_time_;
  const double ticks =
      static_cast<double>(tsc_.read()) - static_cast<double>(ref_tsc_);
  return ref_time_ + static_cast<SimTime>(ticks / f_calib_hz_ * 1e9);
}

Duration TriadNode::current_error_bound() const {
  const double elapsed_s = to_seconds(env_.now() - last_sync_);
  return error_at_sync_ +
         static_cast<Duration>(config_.drift_bound_ppm * 1e-6 * elapsed_s *
                               1e9);
}

void TriadNode::sync_clock_to(SimTime new_time, Duration new_error,
                              NodeId source) {
  const SimTime before = current_time();
  ref_time_ = new_time;
  ref_tsc_ = tsc_.read();
  last_sync_ = env_.now();
  error_at_sync_ = new_error;
  adoptions_counter_.inc();
  adoption_step_ms_.observe(std::abs(to_milliseconds(new_time - before)));
  trace({.type = obs::TraceEventType::kAdoption,
         .peer = source,
         .a = before,
         .b = new_time});
  TRIAD_LOG_DEBUG("triad.node") << "node " << config_.id << " clock set to "
                          << to_seconds(new_time) << "s (source " << source
                          << ", step "
                          << to_milliseconds(new_time - before) << "ms)";
}

std::optional<TriadNode::TimeInterval> TriadNode::now_interval() {
  if (state_ != NodeState::kOk) {
    ++stats_.serve_unavailable;
    return std::nullopt;
  }
  const SimTime now = current_time();
  const Duration error = current_error_bound();
  TimeInterval interval{now - error, now + error};
  // Monotonicity of both endpoints across calls: intervals may only
  // move forward (callers use earliest/latest for ordering decisions).
  interval.earliest = std::max(interval.earliest, last_interval_.earliest);
  interval.latest = std::max(interval.latest, last_interval_.latest);
  last_interval_ = interval;
  ++stats_.timestamps_served;
  return interval;
}

std::optional<SimTime> TriadNode::serve_timestamp() {
  if (state_ != NodeState::kOk) {
    ++stats_.serve_unavailable;
    return std::nullopt;
  }
  const SimTime ts = std::max(current_time(), last_served_ + 1);
  last_served_ = ts;
  ++stats_.timestamps_served;
  return ts;
}

// ---------------------------------------------------------------------
// State accounting

obs::SpanId TriadNode::begin_span() {
  current_span_ = obs::make_span_id(config_.id, ++span_seq_);
  return current_span_;
}

void TriadNode::trace(obs::TraceEvent event) const {
  if (!env_.tracing()) return;
  event.node = config_.id;
  event.span = current_span_;
  env_.emit(event);
}

void TriadNode::set_state(NodeState next) {
  if (next == state_) return;
  state_time_[static_cast<std::size_t>(state_)] += env_.now() - state_since_;
  const NodeState prev = state_;
  state_ = next;
  state_since_ = env_.now();
  trace({.type = obs::TraceEventType::kStateChange,
         .a = static_cast<std::int64_t>(prev),
         .b = static_cast<std::int64_t>(next)});
  TRIAD_LOG_DEBUG("triad.node") << "node " << config_.id << " " << to_string(prev)
                          << " -> " << to_string(next);
}

std::array<Duration, 4> TriadNode::state_durations() const {
  std::array<Duration, 4> result = state_time_;
  result[static_cast<std::size_t>(state_)] += env_.now() - state_since_;
  return result;
}

double TriadNode::availability() const {
  const Duration total = env_.now() - started_at_;
  if (total <= 0) return 0.0;
  const auto durations = state_durations();
  return to_seconds(durations[static_cast<std::size_t>(NodeState::kOk)]) /
         to_seconds(total);
}

// ---------------------------------------------------------------------
// AEX handling

void TriadNode::on_aex() {
  if (!started_) return;
  ++stats_.aex_count;
  // An AEX hitting an Ok node opens a fresh taint episode; everything it
  // causes (INC checks, the peer round, the adoption or TA fallback)
  // shares the span. AEXes during an ongoing episode join it.
  if (state_ == NodeState::kOk) begin_span();
  trace({.type = obs::TraceEventType::kAex,
         .a = static_cast<std::int64_t>(stats_.aex_count)});

  // The monitoring thread re-validates the TSC whenever continuity
  // breaks: the most recent window checks for an ongoing rate mismatch,
  // and the whole uninterrupted interval checks for offset jumps. Either
  // discrepancy forces a full recalibration.
  if (inc_calibration_.window_ticks != 0) {
    const bool window_ok =
        monitor_.check(inc_calibration_, config_.inc_tolerance_sigmas);
    const bool interval_ok =
        monitor_.check_continuity(inc_calibration_).consistent;
    monitor_.reset_continuity();
    if (!window_ok || !interval_ok) {
      ++stats_.inc_check_failures;
      trace({.type = obs::TraceEventType::kIncAlarm,
             .a = window_ok ? 0 : 1,
             .b = interval_ok ? 0 : 1});
      TRIAD_LOG_WARN("triad.node") << "node " << config_.id
                             << " INC monitor detected TSC manipulation ("
                             << (window_ok ? "interval" : "window") << ")";
      begin_full_calibration();
      return;
    }
  }

  switch (state_) {
    case NodeState::kOk:
      set_state(NodeState::kTainted);
      begin_peer_round(/*proactive=*/false);
      break;
    case NodeState::kTainted:
      // Already recovering (peer round or TA ref-calib in flight).
      break;
    case NodeState::kFullCalib:
    case NodeState::kRefCalib:
      // In-flight calibration samples are invalidated by the AEX
      // timestamp check when the response arrives; nothing to do now.
      break;
  }
}

// ---------------------------------------------------------------------
// TA round-trips

void TriadNode::begin_full_calibration() {
  ++stats_.full_calibrations;
  begin_span();  // a calibration is its own causal episode
  have_ta_anchor_ = false;  // a fresh regression invalidates the anchor
  if (started_ && stats_.full_calibrations > 1) {
    // Recalibrate the INC monitor against the (possibly manipulated)
    // current TSC rate: the monitor can only pin rate *stability*, never
    // absolute truth — the paper's key limitation of INC monitoring.
    inc_calibration_ =
        monitor_.calibrate(config_.inc_window_ticks, config_.inc_calib_runs);
    monitor_.reset_continuity();
  }
  if (outstanding_ta_) {
    env_.cancel(outstanding_ta_->timeout);
    outstanding_ta_.reset();
  }
  if (peer_round_) {
    env_.cancel(peer_round_->timeout);
    peer_round_.reset();
  }
  calib_regression_.clear();
  calib_samples_low_ = 0;
  calib_samples_high_ = 0;
  set_state(NodeState::kFullCalib);
  send_calibration_request();
}

void TriadNode::send_calibration_request() {
  // Alternate 0 s / 1 s probes until both clusters have calib_pairs
  // samples.
  const Duration wait = calib_samples_low_ <= calib_samples_high_
                            ? config_.calib_wait_low
                            : config_.calib_wait_high;
  send_ta_request(wait);
}

void TriadNode::begin_ref_calibration() {
  if (outstanding_ta_) {
    env_.cancel(outstanding_ta_->timeout);
    outstanding_ta_.reset();
  }
  set_state(NodeState::kRefCalib);
  send_ta_request(config_.calib_wait_low);
}

void TriadNode::send_ta_request(Duration wait) {
  OutstandingTa ota;
  ota.request_id = next_request_id_++;
  ota.wait = wait;
  ota.sent_at = env_.now();
  ota.sent_tsc = tsc_.read();
  ota.for_full_calibration = state_ == NodeState::kFullCalib;
  ota.timeout = env_.schedule_after(
      config_.ta_timeout + wait,
      [this, id = ota.request_id] { on_ta_timeout(id); });
  outstanding_ta_ = ota;
  trace({.type = obs::TraceEventType::kTaRequest,
         .a = static_cast<std::int64_t>(ota.request_id),
         .x = to_seconds(wait)});

  proto::TaRequest request;
  request.request_id = ota.request_id;
  request.wait = wait;
  request.span = current_span_;
  send_message(config_.ta_address, request);
}

void TriadNode::on_ta_timeout(std::uint64_t request_id) {
  if (!outstanding_ta_ || outstanding_ta_->request_id != request_id) return;
  const Duration wait = outstanding_ta_->wait;
  outstanding_ta_.reset();
  TRIAD_LOG_DEBUG("triad.node") << "node " << config_.id << " TA request "
                          << request_id << " timed out; resending";
  send_ta_request(wait);
}

void TriadNode::on_ta_response(const proto::TaResponse& response) {
  if (!outstanding_ta_ ||
      outstanding_ta_->request_id != response.request_id) {
    return;  // stale or duplicate
  }
  const OutstandingTa ota = *outstanding_ta_;
  env_.cancel(ota.timeout);
  outstanding_ta_.reset();
  trace({.type = obs::TraceEventType::kTaResponse,
         .a = static_cast<std::int64_t>(response.request_id),
         .b = response.ta_time});

  if (ota.for_full_calibration && state_ == NodeState::kFullCalib) {
    // The measurement is only usable if the monitoring thread ran
    // uninterrupted across the whole round-trip (paper §III-C).
    if (thread_.last_aex_time() > ota.sent_at) {
      ++stats_.calib_samples_rejected;
      send_calibration_request();
      return;
    }
    const double ticks = static_cast<double>(tsc_.read()) -
                         static_cast<double>(ota.sent_tsc);
    calib_regression_.add(to_seconds(ota.wait), ticks);
    if (ota.wait == config_.calib_wait_low) {
      ++calib_samples_low_;
    } else {
      ++calib_samples_high_;
    }

    if (calib_samples_low_ >= config_.calib_pairs &&
        calib_samples_high_ >= config_.calib_pairs) {
      const stats::LinearFit fit = calib_regression_.fit();
      f_calib_hz_ = fit.slope;
      trace({.type = obs::TraceEventType::kCalibration,
             .a = calib_samples_low_ + calib_samples_high_,
             .x = fit.slope,
             .y = fit.r_squared});
      TRIAD_LOG_INFO("triad.node")
          << "node " << config_.id << " calibrated F = "
          << f_calib_hz_ / 1e6 << " MHz (r2 " << fit.r_squared << ")";
      ++stats_.ta_time_references;
      maybe_refine_frequency(response.ta_time);  // seeds the anchor
      sync_clock_to(response.ta_time, config_.base_sync_error,
                    config_.ta_address);
      set_state(NodeState::kOk);
    } else {
      send_calibration_request();
    }
    return;
  }

  if (state_ == NodeState::kRefCalib) {
    ++stats_.ta_time_references;
    maybe_refine_frequency(response.ta_time);
    sync_clock_to(response.ta_time, config_.base_sync_error,
                  config_.ta_address);
    set_state(NodeState::kOk);
  }
}

void TriadNode::maybe_refine_frequency(SimTime ta_time) {
  if (!config_.long_window_calibration) return;
  const TscValue tsc_now = tsc_.read();
  if (have_ta_anchor_) {
    const Duration window = ta_time - anchor_ta_time_;
    if (window >= config_.long_window_min) {
      // Two TA timestamps far apart share (roughly) the same one-way
      // delay and the same attacker-injected offset, so the ratio of TSC
      // ticks to TA seconds across the window isolates the true rate —
      // the NTP-style long-timeframe drift measurement of §V.
      const double ticks = static_cast<double>(tsc_now) -
                           static_cast<double>(anchor_tsc_);
      double refined = ticks / to_seconds(window);
      if (refined > 0) {
        if (config_.long_window_max_revision_ppm > 0 && f_calib_hz_ > 0) {
          // Clamp the revision: a ramping-delay attacker needs large
          // per-window jumps; honest refinements are small.
          const double bound =
              f_calib_hz_ * config_.long_window_max_revision_ppm * 1e-6;
          refined = std::clamp(refined, f_calib_hz_ - bound,
                               f_calib_hz_ + bound);
        }
        TRIAD_LOG_INFO("triad.node")
            << "node " << config_.id << " long-window refine F: "
            << f_calib_hz_ / 1e6 << " -> " << refined / 1e6 << " MHz over "
            << to_seconds(window) << "s";
        f_calib_hz_ = refined;
      }
    } else {
      return;  // keep the old anchor until the window is long enough
    }
  }
  have_ta_anchor_ = true;
  anchor_ta_time_ = ta_time;
  anchor_tsc_ = tsc_now;
}

// ---------------------------------------------------------------------
// Peer untainting

void TriadNode::begin_peer_round(bool proactive) {
  if (peer_round_) {
    env_.cancel(peer_round_->timeout);
    peer_round_.reset();
  }
  // Proactive rounds start their own episode; reactive rounds continue
  // the taint episode the triggering AEX opened.
  if (proactive) begin_span();
  if (config_.peers.empty()) {
    if (!proactive) {
      ++stats_.ta_fallbacks;
      trace({.type = obs::TraceEventType::kTaFallback,
             .a = static_cast<std::int64_t>(stats_.ta_fallbacks)});
      begin_ref_calibration();
    }
    return;
  }
  ++stats_.peer_rounds;
  peer_samples_.clear();
  PeerRound round;
  round.request_id = next_request_id_++;
  round.proactive = proactive;
  round.timeout =
      env_.schedule_after(config_.peer_timeout, [this] { finish_peer_round(); });
  peer_round_ = round;
  trace({.type = obs::TraceEventType::kPeerQuery,
         .a = static_cast<std::int64_t>(peer_round_->request_id),
         .b = proactive ? 1 : 0});

  proto::PeerTimeRequest request;
  request.request_id = peer_round_->request_id;
  request.span = current_span_;
  for (NodeId peer : config_.peers) send_message(peer, request);
}

void TriadNode::on_peer_response(NodeId peer,
                                 const proto::PeerTimeResponse& response) {
  if (!peer_round_ || peer_round_->request_id != response.request_id) return;
  ++peer_round_->answers;
  trace({.type = obs::TraceEventType::kPeerResponse,
         .peer = peer,
         .a = static_cast<std::int64_t>(response.request_id),
         .b = response.tainted ? 1 : 0});
  if (!response.tainted) {
    peer_samples_.push_back(PeerSample{peer, response.timestamp,
                                       response.error_bound, env_.now()});
  }

  const bool first_response_mode =
      policy_->mode() == UntaintPolicy::Mode::kFirstResponse;
  if (first_response_mode && !peer_samples_.empty()) {
    finish_peer_round();
    return;
  }
  if (peer_round_->answers >= config_.peers.size()) {
    finish_peer_round();
  }
}

void TriadNode::finish_peer_round() {
  if (!peer_round_) return;
  env_.cancel(peer_round_->timeout);
  const PeerRound round = *peer_round_;
  peer_round_.reset();

  const auto trace_outcome = [this, &round](std::int64_t outcome,
                                            NodeId source) {
    trace({.type = obs::TraceEventType::kPeerOutcome,
           .peer = source,
           .a = static_cast<std::int64_t>(round.request_id),
           .b = outcome});  // 0 adopt, 1 keep_local, 2 ta_fallback, 3 none
  };
  const auto trace_ta_fallback = [this] {
    trace({.type = obs::TraceEventType::kTaFallback,
           .a = static_cast<std::int64_t>(stats_.ta_fallbacks)});
  };

  if (peer_samples_.empty()) {
    trace_outcome(3, 0);
    if (round.proactive) return;  // stay Ok on our own clock
    ++stats_.ta_fallbacks;
    trace_ta_fallback();
    begin_ref_calibration();
    return;
  }

  const UntaintPolicy::Decision decision = policy_->decide(
      current_time(), current_error_bound(), peer_samples_);

  switch (decision.action) {
    case UntaintPolicy::Decision::Action::kAdopt: {
      ++stats_.peer_adoptions;
      trace_outcome(0, decision.source);
      Duration source_error = config_.base_sync_error;
      for (const PeerSample& s : peer_samples_) {
        if (s.peer == decision.source) {
          source_error += s.error_bound;
          break;
        }
      }
      sync_clock_to(decision.adopted_time, source_error, decision.source);
      if (!round.proactive) set_state(NodeState::kOk);
      break;
    }
    case UntaintPolicy::Decision::Action::kKeepLocal:
      // Original protocol: bump the local timestamp by the smallest
      // increment — serve_timestamp()'s monotonicity provides that.
      ++stats_.kept_local;
      trace_outcome(1, 0);
      if (!round.proactive) set_state(NodeState::kOk);
      break;
    case UntaintPolicy::Decision::Action::kAskTimeAuthority:
      ++stats_.ta_fallbacks;
      trace_outcome(2, 0);
      trace_ta_fallback();
      begin_ref_calibration();
      break;
  }
}

void TriadNode::answer_peer_request(NodeId peer,
                                    const proto::PeerTimeRequest& request) {
  proto::PeerTimeResponse response;
  response.request_id = request.request_id;
  response.tainted = state_ != NodeState::kOk;
  response.timestamp = current_time();
  response.error_bound = current_error_bound();
  send_message(peer, response);
}

// ---------------------------------------------------------------------
// Networking

void TriadNode::send_message(NodeId to, const proto::Message& message) {
  proto::encode_into(message, plaintext_);
  channel_.seal_into(to, plaintext_, frame_);
  env_.transport().send(config_.id, to, frame_);
}

void TriadNode::on_packet(const runtime::Packet& packet) {
  const auto bad_frame = [this](NodeId src) {
    ++stats_.bad_frames;
    env_.emit({.type = obs::TraceEventType::kBadFrame,  // no span
               .node = config_.id,
               .peer = src,
               .a = static_cast<std::int64_t>(stats_.bad_frames)});
  };
  const std::optional<NodeId> sender =
      channel_.open_into(packet.payload, plaintext_);
  if (!sender) {
    bad_frame(packet.src);
    return;
  }
  const auto message = proto::decode(plaintext_);
  if (!message) {
    bad_frame(packet.src);
    return;
  }
  std::visit(
      [this, sender = *sender, &bad_frame](const auto& m) {
        using T = std::decay_t<decltype(m)>;
        if constexpr (std::is_same_v<T, proto::TaResponse>) {
          if (sender == config_.ta_address) on_ta_response(m);
        } else if constexpr (std::is_same_v<T, proto::PeerTimeRequest>) {
          answer_peer_request(sender, m);
        } else if constexpr (std::is_same_v<T, proto::PeerTimeResponse>) {
          on_peer_response(sender, m);
        } else {
          // Nodes never serve TaRequest.
          bad_frame(sender);
        }
      },
      *message);
}

}  // namespace triad
