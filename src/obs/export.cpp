#include "obs/export.h"

#include <algorithm>
#include <array>
#include <charconv>
#include <iterator>
#include <ostream>
#include <span>
#include <string>

#include "obs/detect.h"
#include "obs/json.h"
#include "obs/prof.h"

namespace triad::obs {
namespace {

// --- the trace line format --------------------------------------------------
//
// One table defines the JSONL line of every event type, and both
// append_json_line and parse_json_line walk it in order: kHead's members
// first, then the type's own members (kMembers). The writer leaves an
// omit_zero member out when its value is 0; every other member is
// always written.

/// What a member's value is: a bare number, or one of a set of names.
enum class Value : std::uint8_t {
  kEndpoint,  // integer in NodeId/SpanId range (32 bits, non-negative)
  kInteger,
  kDouble,
  kBoolean,  // bare true/false
  kType,     // quoted names from here on: the event type
  kOutcome,
  kReason,
  kDetector,
};

/// The TraceEvent slot a member shows. kStep is derived: the writer
/// prints b - a, and the parser checks it.
enum class Slot : std::uint8_t {
  kAt, kType, kNode, kPeer, kSpan, kA, kB, kX, kY, kStep,
};

struct Member {
  std::string_view key;
  Value value;
  Slot slot;
  bool omit_zero = false;
};

constexpr bool kOmitZero = true;

constexpr Member kHead[] = {
    {"t", Value::kInteger, Slot::kAt},
    {"type", Value::kType, Slot::kType},
    {"node", Value::kEndpoint, Slot::kNode, kOmitZero},
    {"span", Value::kEndpoint, Slot::kSpan, kOmitZero},
};

struct TypeMember {
  TraceEventType type;
  Member member;
};

using T = TraceEventType;

/// Each type's own members in write order, the types in enum order.
constexpr TypeMember kMembers[] = {
    {T::kStateChange, {"from", Value::kInteger, Slot::kA}},
    {T::kStateChange, {"to", Value::kInteger, Slot::kB}},
    {T::kAdoption, {"source", Value::kEndpoint, Slot::kPeer}},
    {T::kAdoption, {"before", Value::kInteger, Slot::kA}},
    {T::kAdoption, {"adopted", Value::kInteger, Slot::kB}},
    {T::kAdoption, {"step_ns", Value::kInteger, Slot::kStep}},
    {T::kAex, {"count", Value::kInteger, Slot::kA}},
    {T::kIncAlarm, {"window_failed", Value::kBoolean, Slot::kA}},
    {T::kIncAlarm, {"continuity_failed", Value::kBoolean, Slot::kB}},
    {T::kCalibration, {"f_hz", Value::kDouble, Slot::kX}},
    {T::kCalibration, {"r2", Value::kDouble, Slot::kY}},
    {T::kCalibration, {"samples", Value::kInteger, Slot::kA}},
    {T::kPeerQuery, {"request", Value::kInteger, Slot::kA}},
    {T::kPeerQuery, {"proactive", Value::kBoolean, Slot::kB}},
    {T::kPeerResponse, {"peer", Value::kEndpoint, Slot::kPeer}},
    {T::kPeerResponse, {"request", Value::kInteger, Slot::kA}},
    {T::kPeerResponse, {"tainted", Value::kBoolean, Slot::kB}},
    {T::kPeerOutcome, {"request", Value::kInteger, Slot::kA}},
    {T::kPeerOutcome, {"outcome", Value::kOutcome, Slot::kB}},
    {T::kPeerOutcome, {"source", Value::kEndpoint, Slot::kPeer, kOmitZero}},
    {T::kTaRequest, {"request", Value::kInteger, Slot::kA}},
    {T::kTaRequest, {"wait_s", Value::kDouble, Slot::kX}},
    {T::kTaResponse, {"request", Value::kInteger, Slot::kA}},
    {T::kTaResponse, {"ta_time", Value::kInteger, Slot::kB}},
    {T::kTaFallback, {"count", Value::kInteger, Slot::kA}},
    {T::kTaServe, {"client", Value::kEndpoint, Slot::kPeer}},
    {T::kTaServe, {"request", Value::kInteger, Slot::kA}},
    {T::kTaServe, {"wait_s", Value::kDouble, Slot::kX}},
    {T::kPacketSend, {"dst", Value::kEndpoint, Slot::kPeer}},
    {T::kPacketSend, {"packet", Value::kInteger, Slot::kA}},
    {T::kPacketSend, {"bytes", Value::kInteger, Slot::kB}},
    {T::kPacketDrop, {"dst", Value::kEndpoint, Slot::kPeer}},
    {T::kPacketDrop, {"packet", Value::kInteger, Slot::kA}},
    {T::kPacketDrop, {"reason", Value::kReason, Slot::kB}},
    {T::kPacketDeliver, {"src", Value::kEndpoint, Slot::kPeer}},
    {T::kPacketDeliver, {"packet", Value::kInteger, Slot::kA}},
    {T::kPacketDeliver, {"bytes", Value::kInteger, Slot::kB}},
    {T::kHandshake, {"peer", Value::kEndpoint, Slot::kPeer}},
    {T::kHandshake, {"ok", Value::kBoolean, Slot::kA}},
    {T::kBadFrame, {"src", Value::kEndpoint, Slot::kPeer}},
    {T::kBadFrame, {"count", Value::kInteger, Slot::kA}},
    {T::kClockStep, {"offset_ns", Value::kInteger, Slot::kA}},
    {T::kDetectorAlarm, {"detector", Value::kDetector, Slot::kA}},
    {T::kDetectorAlarm, {"n", Value::kInteger, Slot::kB}},
    {T::kDetectorAlarm, {"source", Value::kEndpoint, Slot::kPeer, kOmitZero}},
    {T::kDetectorAlarm, {"value", Value::kDouble, Slot::kX}},
    {T::kDetectorAlarm, {"threshold", Value::kDouble, Slot::kY}},
};

constexpr std::size_t kEventTypes =
    static_cast<std::size_t>(TraceEventType::kDetectorAlarm) + 1;

/// kMembers index of each type's first member; [kEventTypes] is the end.
constexpr auto kFirstMember = [] {
  std::array<std::size_t, kEventTypes + 1> first{};
  std::size_t i = 0;
  for (std::size_t type = 0; type < kEventTypes; ++type) {
    first[type] = i;
    while (i < std::size(kMembers) &&
           static_cast<std::size_t>(kMembers[i].type) == type) {
      ++i;
    }
  }
  first[kEventTypes] = i;
  return first;
}();
static_assert(kFirstMember[kEventTypes] == std::size(kMembers),
              "kMembers lists the types in enum order");

/// A type's own members, in write order.
std::span<const TypeMember> members_of(TraceEventType type) {
  const auto i = static_cast<std::size_t>(type);
  if (i >= kEventTypes) return {};
  return std::span(kMembers).subspan(kFirstMember[i],
                                     kFirstMember[i + 1] - kFirstMember[i]);
}

/// The names of an enum's values 0..N-1, as its to_string writes them.
template <typename Enum, std::size_t N>
std::array<std::string_view, N> enum_names() {
  std::array<std::string_view, N> names;
  for (std::size_t v = 0; v < N; ++v) {
    names[v] = to_string(static_cast<Enum>(v));
  }
  return names;
}

/// The names of a kBoolean or quoted member: value v is written as
/// names[v].
std::span<const std::string_view> names_of(Value value) {
  static constexpr std::string_view kBooleans[] = {"false", "true"};
  static constexpr std::string_view kOutcomes[] = {
      "adopt", "keep_local", "ta_fallback", "no_answers"};
  static constexpr std::string_view kReasons[] = {"loss", "middlebox",
                                                  "no_receiver"};
  static const auto kTypes = enum_names<TraceEventType, kEventTypes>();
  static const auto kDetectors = enum_names<DetectorKind, 3>();
  switch (value) {
    case Value::kBoolean: return kBooleans;
    case Value::kType: return kTypes;
    case Value::kOutcome: return kOutcomes;
    case Value::kReason: return kReasons;
    case Value::kDetector: return kDetectors;
    default: return {};
  }
}

/// The integer a member shows (0 for the double slots).
std::int64_t integer_of(const TraceEvent& event, Slot slot) {
  switch (slot) {
    case Slot::kAt: return event.at;
    case Slot::kType: return static_cast<std::int64_t>(event.type);
    case Slot::kNode: return event.node;
    case Slot::kPeer: return event.peer;
    case Slot::kSpan: return event.span;
    case Slot::kA: return event.a;
    case Slot::kB: return event.b;
    case Slot::kStep:  // two's-complement wrap, never undefined
      return static_cast<std::int64_t>(static_cast<std::uint64_t>(event.b) -
                                       static_cast<std::uint64_t>(event.a));
    case Slot::kX:
    case Slot::kY: break;
  }
  return 0;
}

void append_member(const TraceEvent& event, const Member& member,
                   JsonFields* w) {
  if (member.value == Value::kDouble) {
    w->number(member.key, member.slot == Slot::kX ? event.x : event.y);
    return;
  }
  const std::int64_t value = integer_of(event, member.slot);
  if (member.omit_zero && value == 0) return;
  if (member.value <= Value::kInteger) {
    w->integer(member.key, value);
  } else if (member.value == Value::kBoolean) {
    w->boolean(member.key, value != 0);
  } else {
    const auto names = names_of(member.value);
    const auto v = static_cast<std::size_t>(value);  // < 0 wraps past
    w->str(member.key, v < names.size() ? names[v] : "?");
  }
}

/// Appends one event's JSON object (no newline) onto *line.
void append_json_line(const TraceEvent& event, std::string* line) {
  *line += '{';
  JsonFields w(line);
  for (const Member& member : kHead) append_member(event, member, &w);
  for (const TypeMember& own : members_of(event.type)) {
    append_member(event, own.member, &w);
  }
  *line += '}';
}

}  // namespace

void write_prometheus(const Registry& registry, std::ostream& out) {
  PROF_SCOPE("obs/export_prometheus");
  registry.write_prometheus(out);
}

void write_csv(const Registry& registry, std::ostream& out) {
  PROF_SCOPE("obs/export_csv");
  registry.write_csv(out);
}

void write_json_line(const TraceEvent& event, std::ostream& out) {
  std::string line;
  append_json_line(event, &line);
  out << line;
}

void write_jsonl(const RingTraceSink& sink, std::ostream& out,
                 std::size_t last) {
  PROF_SCOPE("obs/export_jsonl");
  // One buffer for all lines, handed to the stream in 64 KiB chunks.
  constexpr std::size_t kChunk = std::size_t{1} << 16;
  std::string chunk;
  chunk.reserve(kChunk + 512);
  std::size_t skip = sink.size() - std::min(sink.size(), last);
  sink.for_each([&](const TraceEvent& event) {
    if (skip > 0) {
      --skip;
      return;
    }
    append_json_line(event, &chunk);
    chunk += '\n';
    if (chunk.size() >= kChunk) {
      out.write(chunk.data(), static_cast<std::streamsize>(chunk.size()));
      chunk.clear();
    }
  });
  out.write(chunk.data(), static_cast<std::streamsize>(chunk.size()));
}

namespace {

// --- parse_json_line ------------------------------------------------------
//
// The writer emits a flat object of number/string/bool members with no
// escapes (string values are enum names), so a tiny hand scanner is
// enough, no JSON library needed. It walks the same member table as the
// writer and accepts the writer's lines only: each key the next member
// of the table, every member present except an omit_zero one at 0,
// single commas, quotes only around keys and names, and each number in
// the exact text the writer prints for its value. A trace may come from
// a compromised node, so anything else is refused. Only whitespace
// between tokens is not checked. Tokens are views into the line:
// nothing is copied.

bool is_skipped_ws(char c) { return c == ' ' || c == '\t' || c == '\r'; }

/// A bare token ends at a separator or at any whitespace skip_ws skips.
bool ends_bare_token(char c) {
  return c == ',' || c == '}' || is_skipped_ws(c);
}

struct JsonScanner {
  std::string_view text;
  std::size_t pos = 0;
  std::string_view key{};  // the key of the member to read next
  bool closed = false;   // the closing brace was read instead of a key

  void skip_ws() {
    while (pos < text.size() && is_skipped_ws(text[pos])) ++pos;
  }
  bool accept(char c) {
    skip_ws();
    if (pos >= text.size() || text[pos] != c) return false;
    ++pos;
    return true;
  }
  /// Reads a quoted string (writer output never contains escapes).
  bool string_token(std::string_view* out) {
    if (!accept('"')) return false;
    const std::size_t start = pos;
    while (pos < text.size() && text[pos] != '"') {
      if (text[pos] == '\\') return false;
      ++pos;
    }
    if (pos >= text.size()) return false;
    *out = text.substr(start, pos - start);
    ++pos;  // closing quote
    return true;
  }
  /// Reads `"key":` into key.
  bool read_key() { return string_token(&key) && accept(':'); }
  /// After a value: reads the next key, or the closing brace.
  bool next_member() {
    if (accept(',')) return read_key();
    closed = accept('}');
    return closed;
  }
  /// Reads an unquoted value token (number, true, false).
  bool bare_token(std::string_view* out) {
    skip_ws();
    const std::size_t start = pos;
    while (pos < text.size() && !ends_bare_token(text[pos])) ++pos;
    *out = text.substr(start, pos - start);
    return !out->empty();
  }
  /// Reads a bare token of the writer's integer form, '-'? and 1 to 18
  /// digits (too few to overflow) with no leading zero and not "-0", in
  /// the same pass as its value. On any other token it moves nothing
  /// past the whitespace and returns false; bare_token and
  /// writer_number then read and judge it.
  bool bare_integer(std::int64_t* out) {
    skip_ws();
    std::size_t end = pos;
    const bool negative = end < text.size() && text[end] == '-';
    if (negative) ++end;
    const std::size_t digits = end;
    std::uint64_t magnitude = 0;
    while (end < text.size() && text[end] >= '0' && text[end] <= '9') {
      magnitude = magnitude * 10 + static_cast<std::uint64_t>(text[end] - '0');
      ++end;
    }
    if (end == digits || end - digits > 18) return false;
    if (text[digits] == '0' && (end - digits > 1 || negative)) return false;
    if (end < text.size() && !ends_bare_token(text[end])) return false;
    const auto value = static_cast<std::int64_t>(magnitude);
    *out = negative ? -value : value;
    pos = end;
    return true;
  }
};

/// Reads a number token as std::from_chars does and accepts it only when
/// it is the text JsonFields writes for that value: that refuses '+',
/// leading zeros, "-0" integers, and doubles the writer would print
/// otherwise ("1.0", more than 10 significant digits, "nan(1)").
template <typename Number>
bool writer_number(std::string_view token, Number* out) {
  const char* last = token.data() + token.size();
  const auto [end, error] = std::from_chars(token.data(), last, *out);
  NumberBuffer buffer;
  return error == std::errc() && end == last &&
         number_text(*out, &buffer) == token;
}

/// The value v whose name names[v] is `name`, testing length and first
/// character before the full compare: most candidates fail there.
bool from_name(std::string_view name, std::span<const std::string_view> names,
               std::int64_t* out) {
  for (std::size_t v = 0; v < names.size(); ++v) {
    const std::string_view known = names[v];
    if (known.size() == name.size() && known[0] == name[0] && known == name) {
      *out = static_cast<std::int64_t>(v);
      return true;
    }
  }
  return false;
}

/// Reads the value of `member` and stores it into its slot; false on a
/// value the writer would not print there.
bool read_value(JsonScanner* scan, const Member& member, TraceEvent* event) {
  std::string_view token;
  if (member.value == Value::kDouble) {
    double value = 0.0;
    if (!scan->bare_token(&token) || !writer_number(token, &value)) {
      return false;
    }
    (member.slot == Slot::kX ? event->x : event->y) = value;
    return true;
  }
  std::int64_t value = 0;
  const bool ok =
      member.value <= Value::kInteger
          ? scan->bare_integer(&value) ||
                (scan->bare_token(&token) && writer_number(token, &value))
          : (member.value == Value::kBoolean ? scan->bare_token(&token)
                                             : scan->string_token(&token)) &&
                from_name(token, names_of(member.value), &value);
  if (!ok || (member.omit_zero && value == 0) ||
      (member.value == Value::kEndpoint &&
       (value < 0 || value > std::int64_t{0xffffffff}))) {
    return false;
  }
  switch (member.slot) {
    case Slot::kAt: event->at = value; break;
    case Slot::kType: event->type = static_cast<TraceEventType>(value); break;
    case Slot::kNode: event->node = static_cast<NodeId>(value); break;
    case Slot::kPeer: event->peer = static_cast<NodeId>(value); break;
    case Slot::kSpan: event->span = static_cast<SpanId>(value); break;
    case Slot::kA: event->a = value; break;
    case Slot::kB: event->b = value; break;
    case Slot::kStep: {  // b - a, which must not overflow
      std::int64_t step = 0;
      return !__builtin_sub_overflow(event->b, event->a, &step) &&
             step == value;
    }
    case Slot::kX:
    case Slot::kY: break;
  }
  return true;
}

/// Reads `member` if the next key is its key. An absent omit_zero member
/// leaves its slot at 0; any other mismatch refuses the line.
bool read_member(JsonScanner* scan, const Member& member, TraceEvent* event) {
  if (scan->closed || scan->key != member.key) return member.omit_zero;
  return read_value(scan, member, event) && scan->next_member();
}

}  // namespace

std::optional<TraceEvent> parse_json_line(std::string_view line) {
  JsonScanner scan{line};
  TraceEvent event;
  if (!scan.accept('{') || !scan.read_key()) return std::nullopt;
  for (const Member& member : kHead) {
    if (!read_member(&scan, member, &event)) return std::nullopt;
  }
  for (const TypeMember& own : members_of(event.type)) {
    if (!read_member(&scan, own.member, &event)) return std::nullopt;
  }
  scan.skip_ws();
  if (!scan.closed || scan.pos != line.size()) return std::nullopt;
  return event;
}

std::vector<TraceEvent> parse_jsonl(std::string_view text,
                                    std::size_t* rejected) {
  std::vector<TraceEvent> events;
  std::size_t lines = 1;
  for (std::size_t at = text.find('\n'); at != std::string_view::npos;
       at = text.find('\n', at + 1)) {
    ++lines;
  }
  events.reserve(lines);
  if (rejected != nullptr) *rejected = 0;
  std::size_t start = 0;
  while (start <= text.size()) {
    const std::size_t newline = text.find('\n', start);
    const std::string_view line = text.substr(
        start, newline == std::string_view::npos ? text.size() - start
                                                 : newline - start);
    if (!line.empty()) {
      if (const auto event = parse_json_line(line)) {
        events.push_back(*event);
      } else if (rejected != nullptr) {
        ++*rejected;
      }
    }
    if (newline == std::string_view::npos) break;
    start = newline + 1;
  }
  return events;
}

}  // namespace triad::obs
