// Minimal recursive-descent JSON reader for tests.
//
// Scope: full JSON grammar (objects, arrays, strings with escapes,
// numbers, booleans, null) with no streaming, no comments, and no
// attempt at speed — inputs are kilobyte-scale profiler traces
// (prof_test's Chrome-trace check). Object members keep document order.
#pragma once

#include <memory>
#include <string>
#include <variant>
#include <vector>

namespace triad::tools {

class JsonValue;
using JsonArray = std::vector<JsonValue>;
/// Members in document order (the order the keys appeared).
using JsonObject = std::vector<std::pair<std::string, JsonValue>>;

class JsonValue {
 public:
  using Storage = std::variant<std::nullptr_t, bool, double, std::string,
                               std::shared_ptr<JsonArray>,
                               std::shared_ptr<JsonObject>>;

  JsonValue() : storage_(nullptr) {}
  explicit JsonValue(Storage storage) : storage_(std::move(storage)) {}

  [[nodiscard]] bool is_number() const;
  [[nodiscard]] bool is_string() const;
  [[nodiscard]] bool is_array() const;
  [[nodiscard]] bool is_object() const;

  /// Typed accessors; wrong-type access throws std::runtime_error with
  /// the expected/actual kinds (tests want loud failures).
  [[nodiscard]] double as_number() const;
  [[nodiscard]] const std::string& as_string() const;
  [[nodiscard]] const JsonArray& as_array() const;
  [[nodiscard]] const JsonObject& as_object() const;

  /// Object member lookup; nullptr when absent or not an object.
  [[nodiscard]] const JsonValue* find(const std::string& key) const;
  /// find() that throws when the key is missing.
  [[nodiscard]] const JsonValue& at(const std::string& key) const;

 private:
  Storage storage_;
};

/// Parses one JSON document (must consume the whole input apart from
/// trailing whitespace). Throws std::runtime_error "json: offset N:
/// message" on failure.
JsonValue parse_json_or_throw(const std::string& text);

}  // namespace triad::tools
