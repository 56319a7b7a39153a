#include "obs/export.h"

#include <array>
#include <charconv>
#include <iterator>
#include <ostream>
#include <string>

#include "obs/detect.h"
#include "obs/json.h"
#include "obs/prof.h"

namespace triad::obs {
namespace {

const char* drop_reason_name(std::int64_t reason) {
  switch (reason) {
    case 0: return "loss";
    case 1: return "middlebox";
    case 2: return "no_receiver";
  }
  return "?";
}

const char* outcome_name(std::int64_t outcome) {
  switch (outcome) {
    case 0: return "adopt";
    case 1: return "keep_local";
    case 2: return "ta_fallback";
    case 3: return "no_answers";
  }
  return "?";
}

/// Appends one event's JSON object (no newline) onto *line.
void append_json_line(const TraceEvent& event, std::string* line) {
  *line += '{';
  JsonFields w(line);
  w.integer("t", event.at);
  w.str("type", to_string(event.type));
  if (event.node != 0) w.integer("node", event.node);
  if (event.span != 0) w.uinteger("span", event.span);
  switch (event.type) {
    case TraceEventType::kStateChange:
      w.integer("from", event.a);
      w.integer("to", event.b);
      break;
    case TraceEventType::kAdoption:
      w.integer("source", event.peer);
      w.integer("before", event.a);
      w.integer("adopted", event.b);
      w.integer("step_ns", event.b - event.a);
      break;
    case TraceEventType::kAex:
      w.integer("count", event.a);
      break;
    case TraceEventType::kIncAlarm:
      w.boolean("window_failed", event.a != 0);
      w.boolean("continuity_failed", event.b != 0);
      break;
    case TraceEventType::kCalibration:
      w.number("f_hz", event.x);
      w.number("r2", event.y);
      w.integer("samples", event.a);
      break;
    case TraceEventType::kPeerQuery:
      w.integer("request", event.a);
      w.boolean("proactive", event.b != 0);
      break;
    case TraceEventType::kPeerResponse:
      w.integer("peer", event.peer);
      w.integer("request", event.a);
      w.boolean("tainted", event.b != 0);
      break;
    case TraceEventType::kPeerOutcome:
      w.integer("request", event.a);
      w.str("outcome", outcome_name(event.b));
      if (event.peer != 0) w.integer("source", event.peer);
      break;
    case TraceEventType::kTaRequest:
      w.integer("request", event.a);
      w.number("wait_s", event.x);
      break;
    case TraceEventType::kTaResponse:
      w.integer("request", event.a);
      w.integer("ta_time", event.b);
      break;
    case TraceEventType::kTaFallback:
      w.integer("count", event.a);
      break;
    case TraceEventType::kTaServe:
      w.integer("client", event.peer);
      w.integer("request", event.a);
      w.number("wait_s", event.x);
      break;
    case TraceEventType::kPacketSend:
      w.integer("dst", event.peer);
      w.integer("packet", event.a);
      w.integer("bytes", event.b);
      break;
    case TraceEventType::kPacketDrop:
      w.integer("dst", event.peer);
      w.integer("packet", event.a);
      w.str("reason", drop_reason_name(event.b));
      break;
    case TraceEventType::kPacketDeliver:
      w.integer("src", event.peer);
      w.integer("packet", event.a);
      w.integer("bytes", event.b);
      break;
    case TraceEventType::kHandshake:
      w.integer("peer", event.peer);
      w.boolean("ok", event.a != 0);
      break;
    case TraceEventType::kBadFrame:
      w.integer("src", event.peer);
      w.integer("count", event.a);
      break;
    case TraceEventType::kClockStep:
      w.integer("offset_ns", event.a);
      break;
    case TraceEventType::kDetectorAlarm:
      w.str("detector", to_string(static_cast<DetectorKind>(event.a)));
      w.integer("n", event.b);
      if (event.peer != 0) w.integer("source", event.peer);
      w.number("value", event.x);
      w.number("threshold", event.y);
      break;
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

void write_jsonl(const RingTraceSink& sink, std::ostream& out) {
  PROF_SCOPE("obs/export_jsonl");
  // One buffer for all lines, handed to the stream in 64 KiB chunks.
  constexpr std::size_t kChunk = std::size_t{1} << 16;
  std::string chunk;
  chunk.reserve(kChunk + 512);
  sink.for_each([&](const TraceEvent& event) {
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
// The writer emits a flat object of number/string/bool fields with no
// escapes (string values are enum names), so a tiny hand scanner is
// enough, no JSON library needed. It accepts the writer's grammar and
// nothing more: members separated by single commas, integers as '-'?
// digits with no leading zero, doubles as std::to_chars prints them
// (at most the 10 significant digits the writer keeps), booleans bare,
// quotes only around keys and enum names, each key at most once, and
// only the keys the writer emits for the line's type. A trace may come
// from a compromised node, so anything else is refused. Key order and
// whitespace between tokens are not checked. Tokens are views into the
// line: nothing is copied.

bool is_skipped_ws(char c) { return c == ' ' || c == '\t' || c == '\r'; }

/// A bare token ends at a separator or at any whitespace skip_ws skips.
bool ends_bare_token(char c) {
  return c == ',' || c == '}' || is_skipped_ws(c);
}

struct JsonScanner {
  std::string_view text;
  std::size_t pos = 0;

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
  /// Reads an unquoted value token (number, true, false).
  bool bare_token(std::string_view* out) {
    skip_ws();
    const std::size_t start = pos;
    while (pos < text.size() && !ends_bare_token(text[pos])) ++pos;
    *out = text.substr(start, pos - start);
    return !out->empty();
  }
  /// Reads a bare token of the writer's integer form, '-'? and 1 to 18
  /// digits (too few to overflow) with no leading zero, in the same pass
  /// as its value. On any other token it moves nothing past the
  /// whitespace and returns false; bare_token and parse_value then read
  /// and judge it.
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
    if (text[digits] == '0' && end - digits > 1) return false;
    if (end < text.size() && !ends_bare_token(text[end])) return false;
    const auto value = static_cast<std::int64_t>(magnitude);
    *out = negative ? -value : value;
    pos = end;
    return true;
  }
};

/// The whole token as std::from_chars reads it: '-'? digits for an
/// integer (no '+', no whitespace) and the general format for a double
/// (nan and inf included, no hex); out-of-range values and a leading
/// zero before another digit ("007", "00.5") are refused.
template <typename Number>
bool parse_number(std::string_view token, Number* out) {
  const std::size_t lead = !token.empty() && token[0] == '-' ? 1 : 0;
  if (token.size() > lead + 1 && token[lead] == '0' &&
      token[lead + 1] >= '0' && token[lead + 1] <= '9') {
    return false;
  }
  const char* last = token.data() + token.size();
  const auto [end, error] = std::from_chars(token.data(), last, *out);
  return error == std::errc() && end == last;
}

/// True when the mantissa of a double token has at most the 10
/// significant digits the writer prints (%.10g), so the value survives
/// a write unchanged; a "nan(payload)" form is refused as well.
bool writer_precision(std::string_view token) {
  int digits = 0;
  for (const char c : token) {
    if (c == 'e' || c == 'E') break;
    if (c == '(') return false;
    // Zeros before the first nonzero digit are not significant.
    if ((c >= '1' && c <= '9') || (c == '0' && digits > 0)) ++digits;
  }
  return digits <= 10;
}

bool parse_bool(std::string_view token, std::int64_t* out) {
  if (token == "true") {
    *out = 1;
    return true;
  }
  if (token == "false") {
    *out = 0;
    return true;
  }
  return false;
}

/// `known == name` for a non-empty `known`, testing length and first
/// character before the full compare: most table entries fail there.
bool same_key(std::string_view known, std::string_view name) {
  return known.size() == name.size() && known[0] == name[0] && known == name;
}

/// Inverse of an enum-name function: the value v in [0, count) whose
/// name_of(v) is `name`.
template <typename NameOf>
bool from_name(std::string_view name, std::int64_t count, NameOf name_of,
               std::int64_t* out) {
  for (std::int64_t v = 0; v < count; ++v) {
    if (name == name_of(v)) {
      *out = v;
      return true;
    }
  }
  return false;
}

const char* detector_name(std::int64_t v) {
  return to_string(static_cast<DetectorKind>(v));
}

/// What a key's value is and which TraceEvent slot it fills. The
/// key→slot mapping is global: every key the writer emits names the same
/// slot regardless of event type, so the parser needs no per-type
/// dispatch.
enum class Value : std::uint8_t {
  kEndpoint,  // integer in NodeId/SpanId range (32 bits, non-negative)
  kInteger,
  kBoolean,
  kDouble,
  kOutcome,  // quoted enum names from here on
  kReason,
  kDetector,
};
enum class Slot : std::uint8_t {
  kAt, kNode, kPeer, kSpan, kA, kB, kX, kY,
  kNone,  // parsed and checked, then dropped
};

struct Field {
  std::string_view key;
  Value value;
  Slot slot;
};

// Most frequent keys first: packet events dominate a trace.
constexpr Field kFields[] = {
    {"t", Value::kInteger, Slot::kAt},
    {"node", Value::kEndpoint, Slot::kNode},
    {"span", Value::kEndpoint, Slot::kSpan},
    {"dst", Value::kEndpoint, Slot::kPeer},
    {"src", Value::kEndpoint, Slot::kPeer},
    {"packet", Value::kInteger, Slot::kA},
    {"bytes", Value::kInteger, Slot::kB},
    {"request", Value::kInteger, Slot::kA},
    {"peer", Value::kEndpoint, Slot::kPeer},
    {"source", Value::kEndpoint, Slot::kPeer},
    {"client", Value::kEndpoint, Slot::kPeer},
    {"from", Value::kInteger, Slot::kA},
    {"count", Value::kInteger, Slot::kA},
    {"samples", Value::kInteger, Slot::kA},
    {"offset_ns", Value::kInteger, Slot::kA},
    {"before", Value::kInteger, Slot::kA},
    {"to", Value::kInteger, Slot::kB},
    {"adopted", Value::kInteger, Slot::kB},
    {"ta_time", Value::kInteger, Slot::kB},
    {"n", Value::kInteger, Slot::kB},
    {"step_ns", Value::kInteger, Slot::kNone},  // adopted - before
    {"window_failed", Value::kBoolean, Slot::kA},
    {"ok", Value::kBoolean, Slot::kA},
    {"continuity_failed", Value::kBoolean, Slot::kB},
    {"proactive", Value::kBoolean, Slot::kB},
    {"tainted", Value::kBoolean, Slot::kB},
    {"f_hz", Value::kDouble, Slot::kX},
    {"wait_s", Value::kDouble, Slot::kX},
    {"value", Value::kDouble, Slot::kX},
    {"r2", Value::kDouble, Slot::kY},
    {"threshold", Value::kDouble, Slot::kY},
    {"outcome", Value::kOutcome, Slot::kB},
    {"reason", Value::kReason, Slot::kB},
    {"detector", Value::kDetector, Slot::kA},
};

constexpr std::size_t kFieldCount = std::size(kFields);
static_assert(kFieldCount < 64, "a line's keys are a 64-bit mask");

/// Index into kFields of `key`, or kFieldCount for an unknown key.
std::size_t find_field(std::string_view key) {
  std::size_t i = 0;
  while (i < kFieldCount && !same_key(kFields[i].key, key)) ++i;
  return i;
}

constexpr int kEventTypes =
    static_cast<int>(TraceEventType::kDetectorAlarm) + 1;

/// Per event type: its name, and the kFields keys its writer emits (bit
/// i = kFields[i]). The key sets come from the writer itself: one probe
/// event per type with every slot nonzero, so optional keys appear too.
struct TypeTable {
  std::array<std::string_view, kEventTypes> names;
  std::array<std::uint64_t, kEventTypes> keys{};
};

const TypeTable& type_table() {
  static const TypeTable table = [] {
    TypeTable t;
    std::string line;
    for (int i = 0; i < kEventTypes; ++i) {
      const auto type = static_cast<TraceEventType>(i);
      t.names[i] = to_string(type);
      line.clear();
      append_json_line({.at = 1, .type = type, .node = 1, .peer = 1,
                        .span = 1, .a = 1, .b = 1, .x = 1.0, .y = 1.0},
                       &line);
      for (std::size_t f = 0; f < kFieldCount; ++f) {
        const std::string member = '"' + std::string(kFields[f].key) + "\":";
        if (line.find(member) != std::string::npos) {
          t.keys[i] |= std::uint64_t{1} << f;
        }
      }
    }
    return t;
  }();
  return table;
}

std::optional<TraceEventType> type_from_name(const TypeTable& table,
                                             std::string_view name) {
  for (int i = 0; i < kEventTypes; ++i) {
    if (same_key(table.names[i], name)) return static_cast<TraceEventType>(i);
  }
  return std::nullopt;
}

/// Judges a value token of `field`; integers, booleans and enum values
/// land in *i64, doubles in *f64.
bool parse_value(const Field& field, std::string_view token,
                 std::int64_t* i64, double* f64) {
  switch (field.value) {
    case Value::kEndpoint:
    case Value::kInteger: return parse_number(token, i64);
    case Value::kBoolean: return parse_bool(token, i64);
    case Value::kDouble:
      return writer_precision(token) && parse_number(token, f64);
    case Value::kOutcome: return from_name(token, 4, outcome_name, i64);
    case Value::kReason: return from_name(token, 3, drop_reason_name, i64);
    case Value::kDetector: return from_name(token, 3, detector_name, i64);
  }
  return false;
}

/// Reads the value of `field` at the scanner and stores it into its
/// slot; false on a bad value. Enum names are the only quoted values.
bool read_field(JsonScanner* scan, const Field& field, TraceEvent* event) {
  std::int64_t i64 = 0;
  double f64 = 0.0;
  const bool integer =
      field.value == Value::kEndpoint || field.value == Value::kInteger;
  if (!integer || !scan->bare_integer(&i64)) {
    const bool quoted = field.value >= Value::kOutcome;
    std::string_view token;
    if (quoted ? !scan->string_token(&token) : !scan->bare_token(&token)) {
      return false;
    }
    if (!parse_value(field, token, &i64, &f64)) return false;
  }
  if (field.value == Value::kEndpoint &&
      (i64 < 0 || i64 > std::int64_t{0xffffffff})) {
    return false;
  }
  switch (field.slot) {
    case Slot::kAt: event->at = i64; break;
    case Slot::kNode: event->node = static_cast<NodeId>(i64); break;
    case Slot::kPeer: event->peer = static_cast<NodeId>(i64); break;
    case Slot::kSpan: event->span = static_cast<SpanId>(i64); break;
    case Slot::kA: event->a = i64; break;
    case Slot::kB: event->b = i64; break;
    case Slot::kX: event->x = f64; break;
    case Slot::kY: event->y = f64; break;
    case Slot::kNone: break;
  }
  return true;
}

}  // namespace

std::optional<TraceEvent> parse_json_line(std::string_view line) {
  const TypeTable& types = type_table();
  JsonScanner scan{line};
  if (!scan.accept('{')) return std::nullopt;
  TraceEvent event;
  bool have_type = false;
  // Keys seen so far, one bit per kFields entry. A repeated key is
  // refused here; two different keys for one slot (where the last would
  // silently win) are refused by the type check below, because the
  // writer emits at most one key per slot for each type.
  std::uint64_t keys = 0;
  do {
    std::string_view key;
    if (!scan.string_token(&key) || !scan.accept(':')) return std::nullopt;
    if (key == "type") {  // a quoted event type name
      std::string_view name;
      if (have_type || !scan.string_token(&name)) return std::nullopt;
      const auto type = type_from_name(types, name);
      if (!type) return std::nullopt;
      event.type = *type;
      have_type = true;
    } else {
      const std::size_t f = find_field(key);
      const std::uint64_t bit = std::uint64_t{1} << f;
      if (f == kFieldCount || (keys & bit) != 0 ||
          !read_field(&scan, kFields[f], &event)) {
        return std::nullopt;
      }
      keys |= bit;
    }
  } while (scan.accept(','));
  if (!scan.accept('}')) return std::nullopt;
  scan.skip_ws();
  if (!have_type || scan.pos != line.size() ||
      (keys & ~types.keys[static_cast<int>(event.type)]) != 0) {
    return std::nullopt;
  }
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
