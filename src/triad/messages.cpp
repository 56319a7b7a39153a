#include "triad/messages.h"

#include <utility>

namespace triad::proto {
namespace {

enum class Tag : std::uint8_t {
  kTaRequest = 1,
  kTaResponse = 2,
  kPeerTimeRequest = 3,
  kPeerTimeResponse = 4,
};

}  // namespace

Bytes encode(const Message& message) {
  Bytes out;
  encode_into(message, out);
  return out;
}

void encode_into(const Message& message, Bytes& out) {
  ByteWriter w(std::move(out));
  std::visit(
      [&w](const auto& m) {
        using T = std::decay_t<decltype(m)>;
        if constexpr (std::is_same_v<T, TaRequest>) {
          w.put_u8(static_cast<std::uint8_t>(Tag::kTaRequest));
          w.put_u64(m.request_id);
          w.put_i64(m.wait);
          w.put_u32(m.span);
        } else if constexpr (std::is_same_v<T, TaResponse>) {
          w.put_u8(static_cast<std::uint8_t>(Tag::kTaResponse));
          w.put_u64(m.request_id);
          w.put_i64(m.ta_time);
          w.put_i64(m.requested_wait);
        } else if constexpr (std::is_same_v<T, PeerTimeRequest>) {
          w.put_u8(static_cast<std::uint8_t>(Tag::kPeerTimeRequest));
          w.put_u64(m.request_id);
          w.put_u32(m.span);
        } else if constexpr (std::is_same_v<T, PeerTimeResponse>) {
          w.put_u8(static_cast<std::uint8_t>(Tag::kPeerTimeResponse));
          w.put_u64(m.request_id);
          w.put_i64(m.timestamp);
          w.put_i64(m.error_bound);
          w.put_u8(m.tainted ? 1 : 0);
        }
      },
      message);
  out = w.take();
}

std::optional<Message> decode(BytesView data) {
  try {
    ByteReader r(data);
    const auto tag = static_cast<Tag>(r.get_u8());
    switch (tag) {
      case Tag::kTaRequest: {
        TaRequest m;
        m.request_id = r.get_u64();
        m.wait = r.get_i64();
        m.span = r.get_u32();
        r.expect_end();
        if (m.wait < 0) return std::nullopt;
        return m;
      }
      case Tag::kTaResponse: {
        TaResponse m;
        m.request_id = r.get_u64();
        m.ta_time = r.get_i64();
        m.requested_wait = r.get_i64();
        r.expect_end();
        return m;
      }
      case Tag::kPeerTimeRequest: {
        PeerTimeRequest m;
        m.request_id = r.get_u64();
        m.span = r.get_u32();
        r.expect_end();
        return m;
      }
      case Tag::kPeerTimeResponse: {
        PeerTimeResponse m;
        m.request_id = r.get_u64();
        m.timestamp = r.get_i64();
        m.error_bound = r.get_i64();
        const std::uint8_t tainted = r.get_u8();
        r.expect_end();
        if (tainted > 1 || m.error_bound < 0) return std::nullopt;
        m.tainted = tainted == 1;
        return m;
      }
    }
    return std::nullopt;
  } catch (const DecodeError&) {
    return std::nullopt;
  }
}

}  // namespace triad::proto
