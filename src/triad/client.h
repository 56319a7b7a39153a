// Client-side access to a Triad cluster's trusted time.
//
// Applications are not always colocated with a Triad node: an iExec-style
// task may run on a different machine and fetch trusted timestamps over
// the (attacker-controlled) network. The client queries cluster nodes in
// rotation over the authenticated channel, skipping tainted nodes and
// timing out onto the next one — so a single unavailable or unreachable
// node does not stall the application. Only the node a request waits on
// can answer it: a late answer from a node it gave up on is dropped.
// timed::BlockingProbe runs this client on real sockets.
//
// Wire format: the client reuses PeerTimeRequest/PeerTimeResponse; a
// node answers clients exactly as it answers peers (timestamp + tainted
// flag + self-reported error bound).
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <optional>
#include <vector>

#include "crypto/channel.h"
#include "runtime/env.h"
#include "triad/messages.h"
#include "util/types.h"

namespace triad {

struct ClientConfig {
  NodeId id = 0;
  std::vector<NodeId> cluster;  // node addresses to query, in preference order
};

struct ClientStats {
  std::uint64_t requests = 0;
  std::uint64_t successes = 0;
  std::uint64_t failures = 0;        // every node tainted/unreachable
  std::uint64_t tainted_answers = 0;
  std::uint64_t timeouts = 0;
  std::uint64_t bad_frames = 0;
};

/// Result of one trusted-time request.
struct TrustedTimestamp {
  SimTime timestamp = 0;
  Duration error_bound = 0;  // the serving node's self-estimate
  NodeId served_by = 0;
};

class TrustedTimeClient {
 public:
  using Callback = std::function<void(std::optional<TrustedTimestamp>)>;

  TrustedTimeClient(runtime::Env env, const crypto::Keyring& keyring,
                    ClientConfig config);
  ~TrustedTimeClient();
  TrustedTimeClient(const TrustedTimeClient&) = delete;
  TrustedTimeClient& operator=(const TrustedTimeClient&) = delete;

  /// Requests a trusted timestamp; the callback fires exactly once, with
  /// nullopt if every attempted node was tainted or unreachable. Each
  /// cluster node is tried once, for at most `node_timeout` (> 0) before
  /// the next. Multiple requests may be in flight concurrently.
  void request_timestamp(Duration node_timeout, Callback callback);

  [[nodiscard]] const ClientStats& stats() const { return stats_; }

 private:
  struct Pending {
    std::uint64_t request_id = 0;
    std::size_t attempt = 0;       // index into the rotation for this req
    std::size_t start_offset = 0;  // round-robin start position
    NodeId target = 0;             // the node being waited on
    Duration node_timeout = 0;
    Callback callback;
    runtime::TimerId timeout{};
  };

  void try_next(Pending pending);
  void on_packet(const runtime::Packet& packet);
  void finish(Pending& pending, std::optional<TrustedTimestamp> result);

  runtime::Env env_;
  ClientConfig config_;
  crypto::SecureChannel channel_;
  std::deque<Pending> pending_;
  std::uint64_t next_request_id_ = 1;
  std::size_t rotation_ = 0;  // round-robin over cluster nodes
  ClientStats stats_;
  Bytes plaintext_;  // scratch: encode_into/open_into, then seal or decode
  Bytes frame_;
};

}  // namespace triad
