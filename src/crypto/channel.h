// Authenticated point-to-point channels for Triad protocol traffic.
//
// The paper's implementation encrypts all UDP traffic with AES-256-GCM;
// keys come from SGX remote attestation, which we model as a provisioned
// cluster master secret (the trust bootstrap is orthogonal to the timing
// attacks studied here — the attacker is the OS/network, which never
// learns enclave keys). Each ordered (sender -> receiver) direction gets
// its own HKDF-derived key, and nonces are strictly-increasing counters,
// giving confidentiality, integrity, and replay protection. The attacker
// can still observe sizes and timing, and can delay/drop/reorder — which
// is exactly the capability the F+/F- attacks need.
#pragma once

#include <cstdint>
#include <optional>
#include <unordered_map>

#include "crypto/gcm.h"
#include "util/bytes.h"
#include "util/types.h"

namespace triad::crypto {

/// Source of per-direction AES-256 channel keys. Implementations:
/// ClusterKeyring (provisioned master secret) and crypto::SessionKeyring
/// (attestation-handshake-derived, see handshake.h).
class Keyring {
 public:
  virtual ~Keyring() = default;
  /// Key for messages sent by `sender` to `receiver`.
  [[nodiscard]] virtual Bytes direction_key(NodeId sender,
                                            NodeId receiver) const = 0;
};

/// Derives per-direction AES-256 keys from a cluster master secret.
class ClusterKeyring final : public Keyring {
 public:
  explicit ClusterKeyring(BytesView master_secret);

  [[nodiscard]] Bytes direction_key(NodeId sender,
                                    NodeId receiver) const override;

 private:
  Bytes master_secret_;
};

/// Result of opening a sealed frame.
enum class OpenError {
  kMalformed,       // frame too short / bad structure
  kWrongReceiver,   // frame addressed to someone else
  kAuthFailed,      // GCM tag mismatch (tampering or wrong key)
  kReplayed,        // nonce counter did not increase
};

/// Sealing/opening endpoint owned by one node. Maintains a send counter
/// per peer and, per sender, an anti-replay sliding window (64 frames,
/// DTLS/IPsec style): datagrams may arrive reordered, but no frame is
/// ever accepted twice and frames older than the window are dropped.
/// A sender's cipher is cached only once a frame from it authenticates,
/// so frames with made-up sender ids leave nothing behind.
class SecureChannel {
 public:
  SecureChannel(NodeId self, const Keyring& keyring);

  /// Seals plaintext for `receiver`. The frame embeds sender, receiver,
  /// and counter in the clear (authenticated as AAD).
  [[nodiscard]] Bytes seal(NodeId receiver, BytesView plaintext);

  /// seal() into caller memory: `frame` is resized to the sealed frame,
  /// reusing its capacity, so a warm buffer costs no allocation.
  /// `plaintext` must not view `frame`.
  void seal_into(NodeId receiver, BytesView plaintext, Bytes& frame);

  struct Opened {
    NodeId sender;
    Bytes plaintext;
  };

  /// Opens a frame addressed to this node.
  [[nodiscard]] std::optional<Opened> open(BytesView frame,
                                           OpenError* error = nullptr);

  /// open() into caller memory: on success returns the sender and
  /// `plaintext` holds the payload, written into its existing capacity.
  /// On failure returns nullopt and the contents of `plaintext` are
  /// unspecified (a replayed frame is decrypted before the replay check
  /// refuses it). `frame` must not view `plaintext`.
  [[nodiscard]] std::optional<NodeId> open_into(BytesView frame,
                                                Bytes& plaintext,
                                                OpenError* error = nullptr);

 private:
  /// The cipher this node seals to `receiver` with, cached on first use.
  [[nodiscard]] const Aes256Gcm& sealing_cipher(NodeId receiver);

  /// Sliding-window anti-replay state for one sender.
  struct ReplayWindow {
    std::uint64_t highest = 0;   // highest counter accepted so far
    std::uint64_t bitmap = 0;    // bit i => (highest - i) was accepted
    /// Returns true (and records the counter) if the frame is fresh.
    bool accept(std::uint64_t counter);
  };

  NodeId self_;
  const Keyring& keyring_;
  std::unordered_map<std::uint64_t, Aes256Gcm> ciphers_;  // (s,r) -> cipher
  /// The last cache miss's cipher and (sender, receiver) pair: open_into
  /// moves it into ciphers_ once a frame authenticates under it.
  struct Scratch {
    std::uint64_t pair;
    Aes256Gcm cipher;
  };
  std::optional<Scratch> scratch_;
  std::unordered_map<NodeId, std::uint64_t> send_counters_;
  std::unordered_map<NodeId, ReplayWindow> replay_windows_;
};

}  // namespace triad::crypto
