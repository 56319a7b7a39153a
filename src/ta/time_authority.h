// Time Authority: the protocol's root of trust (an NTP-server stand-in).
//
// The TA owns the reference clock. On a request asking for wait time s it
// sleeps s, then replies with its current reference time. Requests are
// authenticated/decrypted through the cluster's secure channels; garbage
// or unauthenticated datagrams are counted and dropped.
#pragma once

#include <cstdint>
#include <vector>

#include "crypto/channel.h"
#include "runtime/env.h"
#include "triad/messages.h"
#include "util/types.h"

namespace triad::ta {

struct TimeAuthorityStats {
  std::uint64_t requests_served = 0;
  std::uint64_t rejected_frames = 0;   // auth/replay/malformed failures
  std::uint64_t rejected_waits = 0;    // wait above the allowed maximum
};

/// Longest server-side sleep a TA grants by default. Bounds what a client
/// can make the TA hold (resource-holding defence); 2 s covers Triad's
/// 0 s/1 s calibration probes. A request asking for more is dropped and
/// counted in rejected_waits, so a node whose calib_wait_high exceeds
/// the TA's cap never calibrates.
inline constexpr Duration kMaxTaWait = seconds(2);

class TimeAuthority {
 public:
  /// max_wait bounds the server-side sleep a client may request.
  TimeAuthority(runtime::Env env, NodeId address,
                const crypto::Keyring& keyring,
                Duration max_wait = kMaxTaWait);
  ~TimeAuthority();
  TimeAuthority(const TimeAuthority&) = delete;
  TimeAuthority& operator=(const TimeAuthority&) = delete;

  [[nodiscard]] NodeId address() const { return address_; }

  /// Reference time. The TA *is* the root of trust, so this is the
  /// environment's reference clock itself.
  [[nodiscard]] SimTime reference_now() const;

  [[nodiscard]] const TimeAuthorityStats& stats() const { return stats_; }

 private:
  /// A reply waiting out its requested wait.
  struct PendingReply {
    NodeId client = 0;
    std::uint64_t request_id = 0;
    Duration wait = 0;
    runtime::TimerId timer{};  // invalid once fired (slot free)
  };

  void on_packet(const runtime::Packet& packet);
  void send_reply(std::uint32_t slot);

  runtime::Env env_;
  NodeId address_;
  crypto::SecureChannel channel_;
  Duration max_wait_;
  TimeAuthorityStats stats_;
  // Pending replies live in a slab so the timer closure captures only
  // (this, slot) and fits std::function's inline storage.
  std::vector<PendingReply> pending_;
  std::vector<std::uint32_t> free_pending_;
  // Message-path scratch, reused by every request and reply: open_into ->
  // decode, and encode_into -> seal_into -> Transport::send.
  Bytes plaintext_;
  Bytes frame_;
};

}  // namespace triad::ta
