#include "triad/client.h"

#include <algorithm>
#include <stdexcept>

#include "util/log.h"

namespace triad {

TrustedTimeClient::TrustedTimeClient(runtime::Env env,
                                     const crypto::Keyring& keyring,
                                     ClientConfig config)
    : env_(env), config_(std::move(config)),
      channel_(config_.id, keyring) {
  if (config_.cluster.empty()) {
    throw std::invalid_argument("TrustedTimeClient: empty cluster");
  }
  env_.transport().attach(
      config_.id, [this](const runtime::Packet& packet) { on_packet(packet); });
}

TrustedTimeClient::~TrustedTimeClient() {
  for (auto& pending : pending_) env_.cancel(pending.timeout);
  env_.transport().detach(config_.id);
}

void TrustedTimeClient::request_timestamp(Duration node_timeout,
                                          Callback callback) {
  if (!callback) {
    throw std::invalid_argument("TrustedTimeClient: null callback");
  }
  if (node_timeout <= 0) {
    throw std::invalid_argument("TrustedTimeClient: bad timeout");
  }
  ++stats_.requests;
  Pending pending;
  pending.request_id = next_request_id_++;
  pending.start_offset = rotation_++ % config_.cluster.size();
  pending.node_timeout = node_timeout;
  pending.callback = std::move(callback);
  try_next(std::move(pending));
}

void TrustedTimeClient::try_next(Pending pending) {
  if (pending.attempt >= config_.cluster.size()) {
    finish(pending, std::nullopt);
    return;
  }
  pending.target = config_.cluster[(pending.start_offset + pending.attempt) %
                                   config_.cluster.size()];
  ++pending.attempt;

  proto::PeerTimeRequest request;
  request.request_id = pending.request_id;
  proto::encode_into(request, plaintext_);
  channel_.seal_into(pending.target, plaintext_, frame_);
  env_.transport().send(config_.id, pending.target, frame_);

  const std::uint64_t id = pending.request_id;
  pending.timeout = env_.schedule_after(pending.node_timeout, [this, id] {
    const auto it = std::find_if(
        pending_.begin(), pending_.end(),
        [id](const Pending& p) { return p.request_id == id; });
    if (it == pending_.end()) return;
    ++stats_.timeouts;
    Pending next = std::move(*it);
    pending_.erase(it);
    try_next(std::move(next));  // rotate to the next node
  });
  pending_.push_back(std::move(pending));
}

void TrustedTimeClient::finish(Pending& pending,
                               std::optional<TrustedTimestamp> result) {
  if (result) {
    ++stats_.successes;
  } else {
    ++stats_.failures;
  }
  // Move the callback out: it may re-enter request_timestamp().
  Callback callback = std::move(pending.callback);
  callback(result);
}

void TrustedTimeClient::on_packet(const runtime::Packet& packet) {
  const auto sender = channel_.open_into(packet.payload, plaintext_);
  if (!sender) {
    ++stats_.bad_frames;
    return;
  }
  const auto message = proto::decode(plaintext_);
  if (!message ||
      !std::holds_alternative<proto::PeerTimeResponse>(*message)) {
    ++stats_.bad_frames;
    return;
  }
  const auto& response = std::get<proto::PeerTimeResponse>(*message);

  // Only the node a request is waiting on may settle it: a late answer
  // from a node the request already timed out on is stale, whatever it
  // says.
  const auto it = std::find_if(pending_.begin(), pending_.end(),
                               [&](const Pending& p) {
                                 return p.request_id == response.request_id &&
                                        p.target == *sender;
                               });
  if (it == pending_.end()) return;

  if (response.tainted) {
    ++stats_.tainted_answers;
    env_.cancel(it->timeout);
    Pending next = std::move(*it);
    pending_.erase(it);
    try_next(std::move(next));
    return;
  }

  env_.cancel(it->timeout);
  Pending done = std::move(*it);
  pending_.erase(it);
  finish(done, TrustedTimestamp{response.timestamp, response.error_bound,
                                *sender});
}

}  // namespace triad
