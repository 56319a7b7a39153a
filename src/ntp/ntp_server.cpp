#include "ntp/ntp_server.h"

#include "obs/metrics.h"
#include "util/bytes.h"

namespace triad::ntp {

NtpServer::NtpServer(runtime::Env env, NodeId address,
                     const crypto::Keyring& keyring,
                     Duration processing_delay)
    : env_(env), address_(address), channel_(address, keyring),
      processing_delay_(processing_delay) {
  env_.transport().attach(
      address_, [this](const runtime::Packet& packet) { on_packet(packet); });
  if (obs::Registry* registry = env_.metrics(); registry != nullptr) {
    const obs::Labels labels{{"node", std::to_string(address_)}};
    registry->set_help("triad_ntp_server_requests_total",
                       "NTP requests answered");
    registry->counter_fn(this, "triad_ntp_server_requests_total", labels,
                         [this] {
                           return static_cast<double>(stats_.requests_served);
                         });
    registry->set_help("triad_ntp_server_rejected_frames_total",
                       "Unauthenticated/malformed NTP frames dropped");
    registry->counter_fn(this, "triad_ntp_server_rejected_frames_total",
                         labels, [this] {
                           return static_cast<double>(stats_.rejected_frames);
                         });
  }
}

NtpServer::~NtpServer() {
  env_.transport().detach(address_);
  if (env_.metrics() != nullptr) env_.metrics()->unregister(this);
}

void NtpServer::on_packet(const runtime::Packet& packet) {
  const auto client = channel_.open_into(packet.payload, plaintext_);
  if (!client) {
    ++stats_.rejected_frames;
    return;
  }
  std::uint64_t id = 0;
  SimTime t1 = 0;
  try {
    ByteReader reader(plaintext_);
    if (reader.get_u8() != kNtpRequestTag) {
      ++stats_.rejected_frames;
      return;
    }
    id = reader.get_u64();
    t1 = reader.get_i64();
    reader.expect_end();
  } catch (const DecodeError&) {
    ++stats_.rejected_frames;
    return;
  }

  const SimTime t2 = env_.now() + lie_offset_;
  ++stats_.requests_served;
  env_.schedule_after(processing_delay_, [this, client = *client, id, t1,
                                          t2] {
    ByteWriter w(std::move(plaintext_));
    w.put_u8(kNtpResponseTag);
    w.put_u64(id);
    w.put_i64(t1);
    w.put_i64(t2);
    w.put_i64(env_.now() + lie_offset_);  // t3
    plaintext_ = w.take();
    channel_.seal_into(client, plaintext_, frame_);
    env_.transport().send(address_, client, frame_);
  });
}

}  // namespace triad::ntp
