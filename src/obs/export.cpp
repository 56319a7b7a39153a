#include "obs/export.h"

#include <cerrno>
#include <cstdlib>
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
  std::string line = "{";
  JsonFields w(&line);
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
  line += '}';
  out << line;
}

void write_jsonl(const RingTraceSink& sink, std::ostream& out) {
  PROF_SCOPE("obs/export_jsonl");
  sink.for_each([&out](const TraceEvent& event) {
    write_json_line(event, out);
    out << '\n';
  });
}

namespace {

// --- parse_json_line ------------------------------------------------------
//
// The writer emits a flat object of number/string/bool fields with no
// escapes (string values are enum names), so a tiny hand scanner is
// enough — no JSON library needed, and strictness (nullopt on any
// surprise) keeps the two sides honest.

struct JsonScanner {
  std::string_view text;
  std::size_t pos = 0;

  void skip_ws() {
    while (pos < text.size() &&
           (text[pos] == ' ' || text[pos] == '\t' || text[pos] == '\r')) {
      ++pos;
    }
  }
  bool accept(char c) {
    skip_ws();
    if (pos >= text.size() || text[pos] != c) return false;
    ++pos;
    return true;
  }
  char peek() {
    skip_ws();
    return pos < text.size() ? text[pos] : '\0';
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
    while (pos < text.size() && text[pos] != ',' && text[pos] != '}' &&
           text[pos] != ' ') {
      ++pos;
    }
    *out = text.substr(start, pos - start);
    return !out->empty();
  }
};

bool parse_i64(std::string_view token, std::int64_t* out) {
  const std::string buf(token);
  char* end = nullptr;
  errno = 0;
  const long long v = std::strtoll(buf.c_str(), &end, 10);
  if (errno != 0 || end != buf.c_str() + buf.size()) return false;
  *out = v;
  return true;
}

bool parse_f64(std::string_view token, double* out) {
  const std::string buf(token);
  char* end = nullptr;
  errno = 0;
  const double v = std::strtod(buf.c_str(), &end);
  if (errno != 0 || end != buf.c_str() + buf.size()) return false;
  *out = v;
  return true;
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

std::optional<TraceEventType> type_from_name(std::string_view name) {
  for (int i = 0; i <= static_cast<int>(TraceEventType::kDetectorAlarm);
       ++i) {
    const auto type = static_cast<TraceEventType>(i);
    if (name == to_string(type)) return type;
  }
  return std::nullopt;
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

/// Applies one key/value pair. The key→slot mapping is global: every
/// key the writer emits names the same TraceEvent slot regardless of
/// event type, so the parser needs no per-type dispatch.
bool apply_field(TraceEvent* event, std::string_view key,
                 std::string_view value, bool quoted) {
  std::int64_t i64 = 0;
  double f64 = 0.0;

  // Endpoint slots.
  if (key == "node" || key == "peer" || key == "source" || key == "dst" ||
      key == "src" || key == "client") {
    if (!parse_i64(value, &i64) || i64 < 0) return false;
    if (key == "node") {
      event->node = static_cast<NodeId>(i64);
    } else {
      event->peer = static_cast<NodeId>(i64);
    }
    return true;
  }
  if (key == "span") {
    if (!parse_i64(value, &i64) || i64 < 0) return false;
    event->span = static_cast<SpanId>(i64);
    return true;
  }
  if (key == "t") {
    if (!parse_i64(value, &i64)) return false;
    event->at = i64;
    return true;
  }

  // Integer a/b slots.
  if (key == "from" || key == "count" || key == "request" ||
      key == "packet" || key == "samples" || key == "offset_ns" ||
      key == "before") {
    if (!parse_i64(value, &i64)) return false;
    event->a = i64;
    return true;
  }
  if (key == "to" || key == "adopted" || key == "ta_time" ||
      key == "bytes" || key == "n") {
    if (!parse_i64(value, &i64)) return false;
    event->b = i64;
    return true;
  }
  if (key == "step_ns") {  // derived from before/adopted; ignore
    return parse_i64(value, &i64);
  }

  // Booleans.
  if (key == "window_failed" || key == "ok") {
    if (!parse_bool(value, &i64)) return false;
    event->a = i64;
    return true;
  }
  if (key == "continuity_failed" || key == "proactive" ||
      key == "tainted") {
    if (!parse_bool(value, &i64)) return false;
    event->b = i64;
    return true;
  }

  // Doubles.
  if (key == "f_hz" || key == "wait_s" || key == "value") {
    if (!parse_f64(value, &f64)) return false;
    event->x = f64;
    return true;
  }
  if (key == "r2" || key == "threshold") {
    if (!parse_f64(value, &f64)) return false;
    event->y = f64;
    return true;
  }

  // Enum names.
  if (key == "outcome") {
    if (!quoted || !from_name(value, 4, outcome_name, &i64)) return false;
    event->b = i64;
    return true;
  }
  if (key == "reason") {
    if (!quoted || !from_name(value, 3, drop_reason_name, &i64)) return false;
    event->b = i64;
    return true;
  }
  if (key == "detector") {
    const auto detector_name = [](std::int64_t v) {
      return to_string(static_cast<DetectorKind>(v));
    };
    if (!quoted || !from_name(value, 3, detector_name, &i64)) return false;
    event->a = i64;
    return true;
  }
  return false;  // unknown key
}

}  // namespace

std::optional<TraceEvent> parse_json_line(std::string_view line) {
  JsonScanner scan{line};
  if (!scan.accept('{')) return std::nullopt;
  TraceEvent event;
  bool have_type = false;
  while (!scan.accept('}')) {
    std::string_view key;
    if (!scan.string_token(&key) || !scan.accept(':')) return std::nullopt;
    std::string_view value;
    const bool quoted = scan.peek() == '"';
    if (quoted ? !scan.string_token(&value) : !scan.bare_token(&value)) {
      return std::nullopt;
    }
    if (key == "type") {
      const auto type = quoted ? type_from_name(value) : std::nullopt;
      if (!type) return std::nullopt;
      event.type = *type;
      have_type = true;
    } else if (!apply_field(&event, key, value, quoted)) {
      return std::nullopt;
    }
    if (scan.peek() == ',') scan.accept(',');
  }
  scan.skip_ws();
  if (!have_type || scan.pos != line.size()) return std::nullopt;
  return event;
}

std::vector<TraceEvent> parse_jsonl(std::string_view text,
                                    std::size_t* rejected) {
  std::vector<TraceEvent> events;
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
