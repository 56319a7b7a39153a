#include "ntp/ntp_client.h"

#include <cmath>
#include <stdexcept>

#include "ntp/ntp_server.h"  // wire-format tags
#include "obs/metrics.h"
#include "util/bytes.h"
#include "util/log.h"

namespace triad::ntp {

NtpClient::NtpClient(runtime::Env env, const crypto::Keyring& keyring,
                     const tsc::Tsc& tsc, double nominal_frequency_hz,
                     NtpClientConfig config)
    : env_(env), config_(std::move(config)),
      channel_(config_.id, keyring),
      clock_(tsc, nominal_frequency_hz, config_.discipline),
      tau_(config_.min_tau) {
  if (config_.servers.empty()) {
    throw std::invalid_argument("NtpClientConfig: need at least one server");
  }
  if (config_.min_tau < 0 || config_.max_tau < config_.min_tau ||
      config_.max_tau > 17) {
    throw std::invalid_argument("NtpClientConfig: bad tau bounds");
  }
  if (config_.stable_offset <= 0 || config_.selection_margin < 0) {
    throw std::invalid_argument("NtpClientConfig: bad thresholds");
  }
  for (NodeId server : config_.servers) {
    sources_.push_back(Source{server});
  }
  env_.transport().attach(
      config_.id, [this](const runtime::Packet& packet) { on_packet(packet); });
  if (obs::Registry* registry = env_.metrics(); registry != nullptr) {
    const obs::Labels labels{{"node", std::to_string(config_.id)}};
    const auto count = [&](const std::uint64_t NtpClientStats::* field,
                           const char* name, const char* help) {
      registry->set_help(name, help);
      registry->counter_fn(this, name, labels, [this, field] {
        return static_cast<double>(stats_.*field);
      });
    };
    count(&NtpClientStats::polls, "triad_ntp_polls_total",
          "Poll rounds sent to the server set");
    count(&NtpClientStats::samples, "triad_ntp_samples_total",
          "Plausible round-trip samples accepted");
    count(&NtpClientStats::implausible, "triad_ntp_implausible_total",
          "Samples discarded by the plausibility check");
    count(&NtpClientStats::applied, "triad_ntp_applied_total",
          "Offsets applied to the disciplined clock");
    count(&NtpClientStats::steps, "triad_ntp_steps_total",
          "Applied offsets large enough to step the clock");
    count(&NtpClientStats::falsetickers_rejected,
          "triad_ntp_falsetickers_rejected_total",
          "Server candidates excluded by Marzullo selection");
    registry->set_help("triad_ntp_tau", "Current poll exponent (2^tau s)");
    registry->gauge_fn(this, "triad_ntp_tau", labels,
                       [this] { return static_cast<double>(tau_); });
  }
}

NtpClient::~NtpClient() {
  env_.cancel(next_poll_);
  env_.transport().detach(config_.id);
  if (env_.metrics() != nullptr) env_.metrics()->unregister(this);
}

void NtpClient::start() {
  if (started_) throw std::logic_error("NtpClient::start called twice");
  started_ = true;
  poll();
}

void NtpClient::poll() {
  ++stats_.polls;
  for (Source& source : sources_) {
    source.outstanding_id = next_request_id_++;
    source.outstanding_t1 = clock_.now();
    ByteWriter w(std::move(plaintext_));
    w.put_u8(kNtpRequestTag);
    w.put_u64(source.outstanding_id);
    w.put_i64(source.outstanding_t1);
    plaintext_ = w.take();
    channel_.seal_into(source.server, plaintext_, frame_);
    env_.transport().send(config_.id, source.server, frame_);
  }

  // Next poll at 2^tau seconds regardless of whether answers arrive
  // (a lost datagram just means a missed sample).
  next_poll_ =
      env_.schedule_after(seconds(1) << tau_, [this] { poll(); });
}

void NtpClient::on_packet(const runtime::Packet& packet) {
  const auto sender = channel_.open_into(packet.payload, plaintext_);
  if (!sender) return;

  Source* source = nullptr;
  for (Source& candidate : sources_) {
    if (candidate.server == *sender) {
      source = &candidate;
      break;
    }
  }
  if (source == nullptr) return;

  NtpSample sample;
  std::uint64_t id = 0;
  try {
    ByteReader reader(plaintext_);
    if (reader.get_u8() != kNtpResponseTag) return;
    id = reader.get_u64();
    sample.t1 = reader.get_i64();
    sample.t2 = reader.get_i64();
    sample.t3 = reader.get_i64();
    reader.expect_end();
  } catch (const DecodeError&) {
    return;
  }
  if (id != source->outstanding_id || sample.t1 != source->outstanding_t1) {
    return;
  }
  source->outstanding_id = 0;
  sample.t4 = clock_.now();

  if (!sample.plausible()) {
    ++stats_.implausible;
    return;
  }
  ++stats_.samples;
  source->filter.add({sample.offset(), sample.delay(), sample.t4});
  select_and_apply();
}

void NtpClient::select_and_apply() {
  const SimTime local_now = clock_.now();
  const Duration horizon = 4 * (seconds(1) << tau_);

  // Stage 1: per-server candidate = its filter's min-delay fresh sample.
  candidates_.clear();
  intervals_.clear();
  for (Source& source : sources_) {
    const auto best = source.filter.select(local_now, horizon);
    if (!best) continue;
    candidates_.push_back(*best);
    const Duration e = best->delay / 2 + config_.selection_margin;
    intervals_.push_back({best->offset - e, best->offset + e});
  }
  if (candidates_.empty()) return;

  // Stage 2: Marzullo over candidate offset intervals; a server whose
  // interval misses the majority intersection is a falseticker. The
  // quorum is over the *configured* server set — otherwise whichever
  // (possibly lying) server answers first forms a majority of one.
  const auto best_overlap = resilient::marzullo(intervals_, events_);
  if (best_overlap.count * 2 <= config_.servers.size()) return;
  resilient::overlapping(intervals_, best_overlap.best, chimers_);
  stats_.falsetickers_rejected += candidates_.size() - chimers_.size();

  // Stage 3: among true-chimers, the freshest minimum-delay candidate
  // drives the discipline — but only when it is genuinely new.
  const resilient::ClockSample* chosen = nullptr;
  for (std::size_t idx : chimers_) {
    const auto& sample = candidates_[idx];
    if (chosen == nullptr || sample.delay < chosen->delay ||
        (sample.delay == chosen->delay && sample.at > chosen->at)) {
      chosen = &sample;
    }
  }
  if (chosen == nullptr || chosen->at == last_applied_sample_at_ ||
      chosen->at != local_now) {
    return;  // nothing fresh to act on
  }
  last_applied_sample_at_ = chosen->at;
  ++stats_.applied;
  const bool stepped = clock_.apply_offset(chosen->offset);
  if (stepped) {
    ++stats_.steps;
    if (env_.tracing()) {
      obs::TraceEvent event;
      event.type = obs::TraceEventType::kClockStep;
      event.node = config_.id;
      event.a = chosen->offset;
      env_.emit(event);
    }
    // Retained samples were measured against the pre-step timescale;
    // mixing them with post-step ones would corrupt the selection.
    for (Source& source : sources_) source.filter.clear();
    last_applied_sample_at_ = -1;
  }

  // Poll-interval management.
  if (std::abs(chosen->offset) < config_.stable_offset && !stepped) {
    tau_ = std::min(tau_ + 1, config_.max_tau);
  } else {
    tau_ = std::max(tau_ - 1, config_.min_tau);
  }
  TRIAD_LOG_DEBUG("triad.ntp") << "client " << config_.id << " offset "
                         << to_milliseconds(chosen->offset) << "ms delay "
                         << to_milliseconds(chosen->delay) << "ms tau "
                         << tau_;
}

}  // namespace triad::ntp
