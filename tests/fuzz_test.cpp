// Adversarial-input fuzzing (deterministic, seeded): attacker-controlled
// bytes must never crash, leak, or be accepted.
//
//  * proto::decode on random garbage and on random mutations of valid
//    messages;
//  * SecureChannel::open on garbage, mutated frames, and spliced frames;
//  * end-to-end: a malicious host injecting garbage datagrams at every
//    protocol participant;
//  * obs::parse_json_line on mutated lines of a recorded trace (a
//    compromised node serves its own trace to the forensic tier).
#include <gtest/gtest.h>

#include <map>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "crypto/channel.h"
#include "exp/scenario.h"
#include "obs/export.h"
#include "obs/span.h"
#include "triad/messages.h"
#include "util/rng.h"

namespace triad {
namespace {

Bytes random_bytes(Rng& rng, std::size_t max_len) {
  Bytes out(rng.next_below(max_len + 1));
  for (auto& b : out) b = static_cast<std::uint8_t>(rng.next_u64());
  return out;
}

class FuzzSeeds : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FuzzSeeds, ProtoDecodeNeverThrowsOnGarbage) {
  Rng rng(GetParam());
  for (int i = 0; i < 2000; ++i) {
    const Bytes garbage = random_bytes(rng, 64);
    EXPECT_NO_THROW((void)proto::decode(garbage));
  }
}

TEST_P(FuzzSeeds, ProtoDecodeSurvivesMutatedValidMessages) {
  Rng rng(GetParam());
  const proto::Message messages[] = {
      proto::TaRequest{1, seconds(1)},
      proto::TaResponse{2, seconds(99), 0},
      proto::PeerTimeRequest{3},
      proto::PeerTimeResponse{4, seconds(5), milliseconds(1), false},
  };
  for (int i = 0; i < 2000; ++i) {
    Bytes encoded = proto::encode(messages[rng.next_below(4)]);
    // Random mutation: flip bits, truncate, or extend.
    switch (rng.next_below(3)) {
      case 0:
        if (!encoded.empty()) {
          encoded[rng.next_below(encoded.size())] ^=
              static_cast<std::uint8_t>(1u << rng.next_below(8));
        }
        break;
      case 1:
        encoded.resize(rng.next_below(encoded.size() + 1));
        break;
      case 2:
        encoded.push_back(static_cast<std::uint8_t>(rng.next_u64()));
        break;
    }
    EXPECT_NO_THROW((void)proto::decode(encoded));
  }
}

TEST_P(FuzzSeeds, ChannelOpenRejectsGarbageWithoutThrowing) {
  Rng rng(GetParam());
  crypto::ClusterKeyring keyring{Bytes(32, 0x11)};
  crypto::SecureChannel receiver(2, keyring);
  for (int i = 0; i < 500; ++i) {
    const Bytes garbage = random_bytes(rng, 128);
    std::optional<crypto::SecureChannel::Opened> opened;
    EXPECT_NO_THROW(opened = receiver.open(garbage));
    EXPECT_FALSE(opened.has_value());
  }
}

TEST_P(FuzzSeeds, ChannelOpenRejectsEveryMutatedFrame) {
  Rng rng(GetParam());
  crypto::ClusterKeyring keyring{Bytes(32, 0x11)};
  crypto::SecureChannel sender(1, keyring);
  crypto::SecureChannel receiver(2, keyring);
  for (int i = 0; i < 300; ++i) {
    Bytes frame = sender.seal(2, random_bytes(rng, 48));
    const std::size_t pos = rng.next_below(frame.size());
    const auto mask = static_cast<std::uint8_t>(1u << rng.next_below(8));
    frame[pos] ^= mask;
    std::optional<crypto::SecureChannel::Opened> opened;
    EXPECT_NO_THROW(opened = receiver.open(frame));
    // Flipping the receiver field may merely misroute; everything else
    // must fail authentication. Either way, never accepted as-is by the
    // intended receiver with intact content:
    if (opened) {
      // Only possible if the flipped bit was in the receiver id and the
      // frame became addressed to... no: receiver 2 only accepts frames
      // for 2, and the AAD covers the header. Acceptance is a bug.
      ADD_FAILURE() << "mutated frame accepted at byte " << pos;
    }
  }
}

TEST_P(FuzzSeeds, SplicedFramesRejected) {
  // Cut-and-paste across two valid frames: header of one, body of
  // another.
  Rng rng(GetParam());
  crypto::ClusterKeyring keyring{Bytes(32, 0x11)};
  crypto::SecureChannel sender(1, keyring);
  crypto::SecureChannel receiver(2, keyring);
  for (int i = 0; i < 200; ++i) {
    const Bytes a = sender.seal(2, random_bytes(rng, 32));
    const Bytes b = sender.seal(2, random_bytes(rng, 32));
    const std::size_t cut = rng.next_below(std::min(a.size(), b.size()));
    Bytes spliced(a.begin(), a.begin() + static_cast<long>(cut));
    spliced.insert(spliced.end(), b.begin() + static_cast<long>(cut),
                   b.end());
    if (spliced == a || spliced == b) continue;  // degenerate cut
    EXPECT_FALSE(receiver.open(spliced).has_value());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzSeeds,
                         ::testing::Values(101, 202, 303));

TEST(EndToEndFuzz, GarbageDatagramStormDoesNotDisturbProtocol) {
  exp::ScenarioConfig cfg;
  cfg.seed = 4711;
  exp::Scenario sc(std::move(cfg));
  sc.start();

  // A malicious host injects garbage at every participant continuously.
  Rng rng(99);
  runtime::PeriodicTimer storm(sc.env(), milliseconds(3), [&] {
    const NodeId target = static_cast<NodeId>(1 + rng.next_below(4));
    sc.network().send(77, target, random_bytes(rng, 96));
  });
  sc.run_until(minutes(5));

  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(sc.node(i).state(), NodeState::kOk);
    EXPECT_GT(sc.node(i).stats().bad_frames, 0u);  // storm was seen
    EXPECT_NEAR(sc.node(i).calibrated_frequency_hz(),
                tsc::kPaperTscFrequencyHz, 0.6e6);
  }
  EXPECT_GT(sc.time_authority().stats().rejected_frames, 0u);
}

// --- trace parser -----------------------------------------------------------

std::string line_of(const obs::TraceEvent& event) {
  std::ostringstream out;
  obs::write_json_line(event, out);
  return out.str();
}

/// Up to 8 lines per event type of a 2-minute seed-9 F- trace: every
/// type the run emits, not only the packet lines that dominate it. Each
/// type the run does not emit gets one written line of an event with
/// every slot nonzero.
std::vector<std::string> recorded_fminus_lines() {
  exp::ScenarioConfig cfg;
  cfg.seed = 9;
  cfg.trace_capacity = std::size_t{1} << 16;
  exp::Scenario sc(std::move(cfg));
  attacks::DelayAttackConfig attack;
  attack.kind = attacks::AttackKind::kFMinus;
  attack.victim = sc.node_address(2);
  attack.ta_address = sc.ta_address();
  sc.add_delay_attack(attack);
  sc.start();
  sc.run_until(minutes(2));
  std::map<obs::TraceEventType, int> per_type;
  std::vector<std::string> lines;
  for (const obs::TraceEvent& event : sc.trace()->events()) {
    if (++per_type[event.type] <= 8) lines.push_back(line_of(event));
  }
  for (int i = 0; i <= static_cast<int>(obs::TraceEventType::kDetectorAlarm);
       ++i) {
    const auto type = static_cast<obs::TraceEventType>(i);
    if (per_type.count(type) != 0) continue;
    // a=1 and b=2 are valid as every enum, count and boolean.
    lines.push_back(line_of({.at = 1500000000, .type = type, .node = 3,
                             .peer = 2, .span = obs::make_span_id(3, 7),
                             .a = 1, .b = 2, .x = 1.5, .y = 0.25}));
  }
  return lines;
}

/// `line` without the whitespace the parser skips between tokens.
std::string without_ws(std::string line) {
  std::erase_if(line,
                [](char c) { return c == ' ' || c == '\t' || c == '\r'; });
  return line;
}

/// Byte offsets just past each member's separator: where a member may be
/// cut out, copied in, or a spliced line may join.
std::vector<std::size_t> member_starts(const std::string& line) {
  std::vector<std::size_t> starts;
  for (std::size_t i = 0; i < line.size(); ++i) {
    if (line[i] == '{' || line[i] == ',') starts.push_back(i + 1);
  }
  return starts;
}

std::size_t pick(Rng& rng, const std::vector<std::size_t>& from) {
  return from.empty() ? 0 : from[rng.next_below(from.size())];
}

/// One random mutation of `line`; `other` is a second recorded line
/// for splices.
std::string mutate(Rng& rng, std::string line, const std::string& other) {
  // Bytes that move a line between the writer's grammar and near
  // misses: digits, signs, separators, quotes, exponents, whitespace.
  static constexpr std::string_view kNearMiss = "0123456789-+.,:{}\" e\t";
  const auto byte = [&]() -> char {
    if (rng.next_below(2) == 0) {
      return kNearMiss[rng.next_below(kNearMiss.size())];
    }
    return static_cast<char>(rng.next_below(256));
  };
  switch (rng.next_below(5)) {
    case 0:  // byte flip
      line[rng.next_below(line.size())] = byte();
      break;
    case 1:  // insertion
      line.insert(line.begin() + static_cast<long>(
                                     rng.next_below(line.size() + 1)),
                  byte());
      break;
    case 2: {  // deletion of 1..3 bytes
      const std::size_t at = rng.next_below(line.size());
      line.erase(at, 1 + rng.next_below(3));
      break;
    }
    case 3: {  // a member copied, or moved, to another member boundary
      const std::vector<std::size_t> starts = member_starts(line);
      const std::size_t from = pick(rng, starts);
      const std::size_t end = line.find_first_of(",}", from);
      const std::string member = line.substr(from, end - from) + ",";
      if (rng.next_below(2) == 0 && end < line.size() && line[end] == ',') {
        line.erase(from, end + 1 - from);  // moved: out of the writer's order
        line.insert(pick(rng, member_starts(line)), member);
      } else {
        line.insert(pick(rng, starts), member);
      }
      break;
    }
    default: {  // splice: a head of this line, a tail of the other;
                // at member boundaries half the time
      const bool at_members = rng.next_below(2) == 0;
      const std::size_t head = at_members ? pick(rng, member_starts(line))
                                          : rng.next_below(line.size() + 1);
      const std::size_t tail = at_members ? pick(rng, member_starts(other))
                                          : rng.next_below(other.size() + 1);
      line = line.substr(0, head) + other.substr(tail);
      break;
    }
  }
  return line;
}

TEST(TraceParserFuzz, MutatedRecordedLinesRoundTripOrAreRefused) {
  const std::vector<std::string> lines = recorded_fminus_lines();
  ASSERT_GE(lines.size(), 40u);
  Rng rng(2024);
  std::size_t accepted = 0;
  for (int i = 0; i < 30000; ++i) {
    std::string line = lines[rng.next_below(lines.size())];
    // One to three stacked mutations.
    for (std::uint64_t m = rng.next_below(3); m < 3; ++m) {
      if (line.empty()) break;
      line = mutate(rng, std::move(line), lines[rng.next_below(lines.size())]);
    }
    const auto event = obs::parse_json_line(line);
    if (!event) continue;
    ++accepted;
    // What the parser accepts is what the writer prints, byte for byte,
    // whitespace between tokens aside.
    ASSERT_EQ(without_ws(line), line_of(*event)) << line;
  }
  // Neither vacuous nor trivially permissive: some mutations keep a line
  // valid (whitespace, a splice at member boundaries), most do not.
  EXPECT_GT(accepted, 300u);
  EXPECT_LT(accepted, 20000u);
}

}  // namespace
}  // namespace triad
