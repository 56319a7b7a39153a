// Triad wire messages.
//
// Four message types cover the whole protocol: calibration/reference
// round-trips with the Time Authority and peer time exchange inside the
// cluster. Messages travel as AES-256-GCM-sealed payloads (see
// crypto::SecureChannel); the encodings here are the plaintexts.
#pragma once

#include <cstdint>
#include <optional>
#include <variant>

#include "obs/trace.h"
#include "util/bytes.h"
#include "util/types.h"

namespace triad::proto {

/// Asks the TA to wait `wait` before answering — the knob Triad's
/// frequency calibration sweeps (0 s and 1 s in the reference
/// implementation).
struct TaRequest {
  std::uint64_t request_id = 0;
  Duration wait = 0;
  /// Requester's causal span (obs/span.h); rides inside the sealed
  /// payload so the TA's kTaServe trace event lands in the same span as
  /// the node-side kTaRequest/kTaResponse pair. 0 when untraced.
  obs::SpanId span = 0;

  friend bool operator==(const TaRequest&, const TaRequest&) = default;
};

/// TA's reply, stamped with its reference clock at send time. The
/// requested wait is echoed so the node can bucket the sample without
/// extra bookkeeping (it is inside the sealed payload, invisible to the
/// network attacker — who must *infer* it from timing, the basis of the
/// F+/F- attacks).
struct TaResponse {
  std::uint64_t request_id = 0;
  SimTime ta_time = 0;
  Duration requested_wait = 0;

  friend bool operator==(const TaResponse&, const TaResponse&) = default;
};

/// Sent to every peer when a node resumes from an AEX with a tainted
/// timestamp.
struct PeerTimeRequest {
  std::uint64_t request_id = 0;
  /// Requester's causal span (see TaRequest::span).
  obs::SpanId span = 0;

  friend bool operator==(const PeerTimeRequest&,
                         const PeerTimeRequest&) = default;
};

/// Peer's answer. A tainted peer answers with tainted=true (and a
/// meaningless timestamp) so the requester can distinguish "no useful
/// peer" from packet loss. error_bound carries the peer's self-reported
/// clock error estimate — always 0 under the original protocol, used by
/// the Section-V true-chimer policy (Triad+).
struct PeerTimeResponse {
  std::uint64_t request_id = 0;
  SimTime timestamp = 0;
  Duration error_bound = 0;
  bool tainted = false;

  friend bool operator==(const PeerTimeResponse&,
                         const PeerTimeResponse&) = default;
};

using Message =
    std::variant<TaRequest, TaResponse, PeerTimeRequest, PeerTimeResponse>;

/// Serializes a message (1-byte type tag + fixed-width fields).
Bytes encode(const Message& message);

/// encode() into `out`, replacing its contents and reusing its capacity,
/// so a warm buffer costs no allocation.
void encode_into(const Message& message, Bytes& out);

/// Parses a message; nullopt on malformed input (never throws on
/// attacker-controlled bytes).
std::optional<Message> decode(BytesView data);

}  // namespace triad::proto
