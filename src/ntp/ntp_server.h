// NTP-style time server (stands in for the NTPsec servers §V proposes).
//
// Speaks the four-timestamp protocol over the same sealed datagram
// channels as everything else. The server's clock is the environment's
// reference time (root of trust).
#pragma once

#include <cstdint>

#include "crypto/channel.h"
#include "runtime/env.h"
#include "util/types.h"

namespace triad::ntp {

// Wire format (sealed payloads):
//   request:  u8 tag=1 | u64 id | i64 t1
//   response: u8 tag=2 | u64 id | i64 t1 | i64 t2 | i64 t3
inline constexpr std::uint8_t kNtpRequestTag = 1;
inline constexpr std::uint8_t kNtpResponseTag = 2;

struct NtpServerStats {
  std::uint64_t requests_served = 0;
  std::uint64_t rejected_frames = 0;
};

class NtpServer {
 public:
  /// processing_delay: server-side time between receive (t2) and
  /// transmit (t3); real servers are microseconds.
  NtpServer(runtime::Env env, NodeId address,
            const crypto::Keyring& keyring,
            Duration processing_delay = microseconds(5));
  ~NtpServer();
  NtpServer(const NtpServer&) = delete;
  NtpServer& operator=(const NtpServer&) = delete;

  [[nodiscard]] NodeId address() const { return address_; }
  [[nodiscard]] const NtpServerStats& stats() const { return stats_; }

  /// Test/experiment hook: a compromised server reporting a clock offset
  /// from the true reference (a "falseticker" for selection tests).
  void set_lie_offset(Duration offset) { lie_offset_ = offset; }

 private:
  void on_packet(const runtime::Packet& packet);

  runtime::Env env_;
  NodeId address_;
  crypto::SecureChannel channel_;
  Duration processing_delay_;
  Duration lie_offset_ = 0;
  NtpServerStats stats_;
  Bytes plaintext_;  // scratch reused by every request and reply
  Bytes frame_;
};

}  // namespace triad::ntp
