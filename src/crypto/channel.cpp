#include "crypto/channel.h"

#include "crypto/hmac.h"
#include "obs/prof.h"
#include "util/bytes.h"

namespace triad::crypto {
namespace {

// Frame layout (all fixed width, little-endian):
//   sender   u32  -+
//   receiver u32   | AAD: the frame's first kAadSize bytes
//   counter  u64  -+
//   ct_len   u32
//   ct       ct_len bytes
//   tag      16 bytes
constexpr std::size_t kAadSize = 4 + 4 + 8;
constexpr std::size_t kHeaderSize = kAadSize + 4;

void put_le(std::uint8_t* p, std::uint64_t v, int width) {
  for (int i = 0; i < width; ++i) {
    p[i] = static_cast<std::uint8_t>(v >> (8 * i));
  }
}

std::uint64_t get_le(const std::uint8_t* p, int width) {
  std::uint64_t v = 0;
  for (int i = width - 1; i >= 0; --i) v = (v << 8) | p[i];
  return v;
}

GcmIv make_iv(NodeId sender, std::uint64_t counter) {
  GcmIv iv{};
  put_le(iv.data(), sender, 4);
  put_le(iv.data() + 4, counter, 8);
  return iv;
}

std::uint64_t pair_key(NodeId sender, NodeId receiver) {
  return (static_cast<std::uint64_t>(sender) << 32) | receiver;
}

}  // namespace

ClusterKeyring::ClusterKeyring(BytesView master_secret)
    : master_secret_(master_secret.begin(), master_secret.end()) {}

Bytes ClusterKeyring::direction_key(NodeId sender, NodeId receiver) const {
  ByteWriter info;
  info.put_string("triad-channel-v1");
  info.put_u32(sender);
  info.put_u32(receiver);
  static constexpr std::uint8_t kSalt[] = "triad-trusted-time";
  return hkdf(BytesView(kSalt, sizeof(kSalt) - 1), master_secret_,
              info.data(), kAes256KeySize);
}

SecureChannel::SecureChannel(NodeId self, const Keyring& keyring)
    : self_(self), keyring_(keyring) {}

const Aes256Gcm& SecureChannel::cipher_for(NodeId sender, NodeId receiver) {
  const std::uint64_t key = pair_key(sender, receiver);
  auto it = ciphers_.find(key);
  if (it == ciphers_.end()) {
    it = ciphers_.emplace(key, Aes256Gcm(keyring_.direction_key(sender,
                                                                receiver)))
             .first;
  }
  return it->second;
}

Bytes SecureChannel::seal(NodeId receiver, BytesView plaintext) {
  PROF_SCOPE("crypto/channel_seal");
  const std::uint64_t counter = ++send_counters_[receiver];
  // One allocation: the header is written in place and GCM encrypts
  // straight into the frame behind it.
  Bytes frame(kHeaderSize + plaintext.size() + kGcmTagSize);
  std::uint8_t* p = frame.data();
  put_le(p, self_, 4);
  put_le(p + 4, receiver, 4);
  put_le(p + 8, counter, 8);
  put_le(p + kAadSize, plaintext.size(), 4);
  cipher_for(self_, receiver)
      .seal_to(make_iv(self_, counter), plaintext, BytesView(p, kAadSize),
               p + kHeaderSize, p + kHeaderSize + plaintext.size());
  return frame;
}

std::optional<SecureChannel::Opened> SecureChannel::open(BytesView frame,
                                                         OpenError* error) {
  PROF_SCOPE("crypto/channel_open");
  auto fail = [&](OpenError e) -> std::optional<Opened> {
    if (error != nullptr) *error = e;
    return std::nullopt;
  };

  // The frame must be exactly header + ct_len + tag: nothing missing,
  // nothing trailing. Checked by subtraction, so no ct_len overflows.
  if (frame.size() < kHeaderSize + kGcmTagSize) {
    return fail(OpenError::kMalformed);
  }
  const std::uint8_t* p = frame.data();
  const std::uint64_t ct_len = get_le(p + kAadSize, 4);
  if (frame.size() - kHeaderSize - kGcmTagSize != ct_len) {
    return fail(OpenError::kMalformed);
  }
  const auto sender = static_cast<NodeId>(get_le(p, 4));
  const auto receiver = static_cast<NodeId>(get_le(p + 4, 4));
  const std::uint64_t counter = get_le(p + 8, 8);

  if (receiver != self_) return fail(OpenError::kWrongReceiver);

  // Authenticate on views into the frame; the plaintext is allocated only
  // once the tag checks out.
  Bytes plaintext;
  if (!cipher_for(sender, receiver)
           .open_to(make_iv(sender, counter),
                    frame.subspan(kHeaderSize, ct_len),
                    frame.first(kAadSize), p + kHeaderSize + ct_len,
                    plaintext)) {
    return fail(OpenError::kAuthFailed);
  }

  // Replay check happens only after authentication so an attacker cannot
  // advance the window with forged counters.
  if (!replay_windows_[sender].accept(counter)) {
    return fail(OpenError::kReplayed);
  }

  return Opened{sender, std::move(plaintext)};
}

bool SecureChannel::ReplayWindow::accept(std::uint64_t counter) {
  if (counter == 0) return false;  // counters start at 1
  if (counter > highest) {
    const std::uint64_t shift = counter - highest;
    bitmap = shift >= 64 ? 0 : bitmap << shift;
    bitmap |= 1;  // bit 0 == `counter` itself
    highest = counter;
    return true;
  }
  const std::uint64_t age = highest - counter;
  if (age >= 64) return false;  // older than the window: refuse
  const std::uint64_t bit = 1ULL << age;
  if (bitmap & bit) return false;  // already seen: replay
  bitmap |= bit;
  return true;
}

}  // namespace triad::crypto
