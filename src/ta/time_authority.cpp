#include "ta/time_authority.h"

#include "obs/metrics.h"
#include "util/log.h"

namespace triad::ta {

TimeAuthority::TimeAuthority(runtime::Env env, NodeId address,
                             const crypto::Keyring& keyring,
                             Duration max_wait)
    : env_(env), address_(address), channel_(address, keyring),
      max_wait_(max_wait) {
  env_.transport().attach(
      address_, [this](const runtime::Packet& packet) { on_packet(packet); });
  if (obs::Registry* registry = env_.metrics(); registry != nullptr) {
    const auto count = [&](const std::uint64_t TimeAuthorityStats::* field,
                           const char* name, const char* help) {
      registry->set_help(name, help);
      registry->counter_fn(this, name, {}, [this, field] {
        return static_cast<double>(stats_.*field);
      });
    };
    count(&TimeAuthorityStats::requests_served, "triad_ta_requests_total",
          "Authenticated wait-then-timestamp requests served");
    count(&TimeAuthorityStats::rejected_frames, "triad_ta_rejected_frames_total",
          "Unauthenticated/malformed frames dropped");
    count(&TimeAuthorityStats::rejected_waits, "triad_ta_rejected_waits_total",
          "Requests rejected for exceeding the wait bound");
  }
}

TimeAuthority::~TimeAuthority() {
  for (const PendingReply& reply : pending_) env_.cancel(reply.timer);
  env_.transport().detach(address_);
  if (env_.metrics() != nullptr) env_.metrics()->unregister(this);
}

SimTime TimeAuthority::reference_now() const { return env_.now(); }

void TimeAuthority::on_packet(const runtime::Packet& packet) {
  const std::optional<NodeId> sender =
      channel_.open_into(packet.payload, plaintext_);
  if (!sender) {
    ++stats_.rejected_frames;
    return;
  }
  const auto message = proto::decode(plaintext_);
  if (!message || !std::holds_alternative<proto::TaRequest>(*message)) {
    ++stats_.rejected_frames;
    return;
  }
  const auto& request = std::get<proto::TaRequest>(*message);
  if (request.wait > max_wait_) {
    ++stats_.rejected_waits;
    return;
  }

  const NodeId client = *sender;
  const std::uint64_t request_id = request.request_id;
  const Duration wait = request.wait;
  ++stats_.requests_served;
  if (env_.tracing()) {
    obs::TraceEvent event;
    event.type = obs::TraceEventType::kTaServe;
    event.node = address_;
    event.peer = client;
    event.span = request.span;  // requester's causal episode
    event.a = static_cast<std::int64_t>(request_id);
    event.x = to_seconds(wait);
    env_.emit(event);
  }

  std::uint32_t slot;
  if (!free_pending_.empty()) {
    slot = free_pending_.back();
    free_pending_.pop_back();
  } else {
    slot = static_cast<std::uint32_t>(pending_.size());
    pending_.emplace_back();
  }
  PendingReply& reply = pending_[slot];
  reply.client = client;
  reply.request_id = request_id;
  reply.wait = wait;
  reply.timer = env_.schedule_after(wait, [this, slot] { send_reply(slot); });
}

void TimeAuthority::send_reply(std::uint32_t slot) {
  const PendingReply reply = pending_[slot];
  pending_[slot].timer = {};
  free_pending_.push_back(slot);
  proto::TaResponse response;
  response.request_id = reply.request_id;
  response.ta_time = reference_now();
  response.requested_wait = reply.wait;
  TRIAD_LOG_DEBUG("triad.ta") << "reply to node " << reply.client << " req "
                              << reply.request_id << " wait "
                              << to_seconds(reply.wait) << "s";
  proto::encode_into(response, plaintext_);
  channel_.seal_into(reply.client, plaintext_, frame_);
  env_.transport().send(address_, reply.client, frame_);
}

}  // namespace triad::ta
