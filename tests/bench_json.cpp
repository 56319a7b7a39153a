#include "bench_json.h"

#include <cctype>
#include <cstdlib>
#include <stdexcept>

namespace triad::tools {

namespace {

const char* kind_name(const JsonValue::Storage& storage) {
  switch (storage.index()) {
    case 0: return "null";
    case 1: return "bool";
    case 2: return "number";
    case 3: return "string";
    case 4: return "array";
    case 5: return "object";
    default: return "?";
  }
}

[[noreturn]] void type_error(const char* expected,
                             const JsonValue::Storage& storage) {
  throw std::runtime_error(std::string("json: expected ") + expected +
                           ", got " + kind_name(storage));
}

class Parser {
 public:
  Parser(const std::string& text, std::string* error)
      : text_(text), error_(error) {}

  bool parse_document(JsonValue* out) {
    skip_ws();
    if (!parse_value(out)) return false;
    skip_ws();
    if (pos_ != text_.size()) return fail("trailing characters");
    return true;
  }

 private:
  bool fail(const std::string& message) {
    if (error_ != nullptr) {
      *error_ = "offset " + std::to_string(pos_) + ": " + message;
    }
    return false;
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  [[nodiscard]] int peek() const {
    return pos_ < text_.size() ? static_cast<unsigned char>(text_[pos_]) : -1;
  }

  bool consume_literal(const char* literal) {
    const std::size_t start = pos_;
    for (const char* p = literal; *p != '\0'; ++p, ++pos_) {
      if (pos_ >= text_.size() || text_[pos_] != *p) {
        pos_ = start;
        return fail(std::string("expected '") + literal + "'");
      }
    }
    return true;
  }

  bool parse_value(JsonValue* out) {
    if (depth_ > 64) return fail("nesting too deep");
    switch (peek()) {
      case '{': return parse_object(out);
      case '[': return parse_array(out);
      case '"': {
        std::string s;
        if (!parse_string(&s)) return false;
        *out = JsonValue(JsonValue::Storage{std::move(s)});
        return true;
      }
      case 't':
        if (!consume_literal("true")) return false;
        *out = JsonValue(JsonValue::Storage{true});
        return true;
      case 'f':
        if (!consume_literal("false")) return false;
        *out = JsonValue(JsonValue::Storage{false});
        return true;
      case 'n':
        if (!consume_literal("null")) return false;
        *out = JsonValue(JsonValue::Storage{nullptr});
        return true;
      default: return parse_number(out);
    }
  }

  bool parse_object(JsonValue* out) {
    ++pos_;  // '{'
    ++depth_;
    auto object = std::make_shared<JsonObject>();
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      --depth_;
      *out = JsonValue(JsonValue::Storage{std::move(object)});
      return true;
    }
    for (;;) {
      skip_ws();
      std::string key;
      if (!parse_string(&key)) return false;
      skip_ws();
      if (peek() != ':') return fail("expected ':'");
      ++pos_;
      skip_ws();
      JsonValue value;
      if (!parse_value(&value)) return false;
      object->emplace_back(std::move(key), std::move(value));
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      if (peek() == '}') {
        ++pos_;
        --depth_;
        *out = JsonValue(JsonValue::Storage{std::move(object)});
        return true;
      }
      return fail("expected ',' or '}'");
    }
  }

  bool parse_array(JsonValue* out) {
    ++pos_;  // '['
    ++depth_;
    auto array = std::make_shared<JsonArray>();
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      --depth_;
      *out = JsonValue(JsonValue::Storage{std::move(array)});
      return true;
    }
    for (;;) {
      skip_ws();
      JsonValue value;
      if (!parse_value(&value)) return false;
      array->push_back(std::move(value));
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      if (peek() == ']') {
        ++pos_;
        --depth_;
        *out = JsonValue(JsonValue::Storage{std::move(array)});
        return true;
      }
      return fail("expected ',' or ']'");
    }
  }

  bool parse_string(std::string* out) {
    if (peek() != '"') return fail("expected string");
    ++pos_;
    out->clear();
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c == '"') {
        ++pos_;
        return true;
      }
      if (c == '\\') {
        ++pos_;
        if (pos_ >= text_.size()) return fail("dangling escape");
        const char esc = text_[pos_];
        switch (esc) {
          case '"': out->push_back('"'); break;
          case '\\': out->push_back('\\'); break;
          case '/': out->push_back('/'); break;
          case 'b': out->push_back('\b'); break;
          case 'f': out->push_back('\f'); break;
          case 'n': out->push_back('\n'); break;
          case 'r': out->push_back('\r'); break;
          case 't': out->push_back('\t'); break;
          case 'u': {
            if (pos_ + 4 >= text_.size()) return fail("short \\u escape");
            unsigned code = 0;
            for (int i = 1; i <= 4; ++i) {
              const char h = text_[pos_ + static_cast<std::size_t>(i)];
              code <<= 4;
              if (h >= '0' && h <= '9') code += static_cast<unsigned>(h - '0');
              else if (h >= 'a' && h <= 'f') code += 10u + static_cast<unsigned>(h - 'a');
              else if (h >= 'A' && h <= 'F') code += 10u + static_cast<unsigned>(h - 'A');
              else return fail("bad \\u escape");
            }
            pos_ += 4;
            // UTF-8 encode the BMP code point (surrogate pairs are out
            // of scope for the documents these tests read).
            if (code < 0x80) {
              out->push_back(static_cast<char>(code));
            } else if (code < 0x800) {
              out->push_back(static_cast<char>(0xC0 | (code >> 6)));
              out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
            } else {
              out->push_back(static_cast<char>(0xE0 | (code >> 12)));
              out->push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
              out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
            }
            break;
          }
          default: return fail("bad escape");
        }
        ++pos_;
        continue;
      }
      out->push_back(c);
      ++pos_;
    }
    return fail("unterminated string");
  }

  bool parse_number(JsonValue* out) {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    while (std::isdigit(peek()) != 0) ++pos_;
    if (peek() == '.') {
      ++pos_;
      while (std::isdigit(peek()) != 0) ++pos_;
    }
    if (peek() == 'e' || peek() == 'E') {
      ++pos_;
      if (peek() == '+' || peek() == '-') ++pos_;
      while (std::isdigit(peek()) != 0) ++pos_;
    }
    if (pos_ == start) return fail("expected value");
    const std::string token = text_.substr(start, pos_ - start);
    char* end = nullptr;
    const double value = std::strtod(token.c_str(), &end);
    if (end == nullptr || *end != '\0') {
      pos_ = start;
      return fail("bad number '" + token + "'");
    }
    *out = JsonValue(JsonValue::Storage{value});
    return true;
  }

  const std::string& text_;
  std::string* error_;
  std::size_t pos_ = 0;
  int depth_ = 0;
};

}  // namespace

bool JsonValue::is_number() const { return storage_.index() == 2; }
bool JsonValue::is_string() const { return storage_.index() == 3; }
bool JsonValue::is_array() const { return storage_.index() == 4; }
bool JsonValue::is_object() const { return storage_.index() == 5; }

double JsonValue::as_number() const {
  if (!is_number()) type_error("number", storage_);
  return std::get<double>(storage_);
}
const std::string& JsonValue::as_string() const {
  if (!is_string()) type_error("string", storage_);
  return std::get<std::string>(storage_);
}
const JsonArray& JsonValue::as_array() const {
  if (!is_array()) type_error("array", storage_);
  return *std::get<std::shared_ptr<JsonArray>>(storage_);
}
const JsonObject& JsonValue::as_object() const {
  if (!is_object()) type_error("object", storage_);
  return *std::get<std::shared_ptr<JsonObject>>(storage_);
}

const JsonValue* JsonValue::find(const std::string& key) const {
  if (!is_object()) return nullptr;
  for (const auto& [k, v] : as_object()) {
    if (k == key) return &v;
  }
  return nullptr;
}

const JsonValue& JsonValue::at(const std::string& key) const {
  const JsonValue* value = find(key);
  if (value == nullptr) {
    throw std::runtime_error("json: missing key '" + key + "'");
  }
  return *value;
}

JsonValue parse_json_or_throw(const std::string& text) {
  JsonValue value;
  std::string error;
  if (!Parser(text, &error).parse_document(&value)) {
    throw std::runtime_error("json: " + error);
  }
  return value;
}

}  // namespace triad::tools
