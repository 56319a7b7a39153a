#include "rules.h"

#include <algorithm>
#include <set>

namespace triad::lint {

bool has_prefix(const std::string& path, const std::vector<std::string>& set) {
  return std::any_of(set.begin(), set.end(), [&path](const std::string& p) {
    return path.compare(0, p.size(), p) == 0;
  });
}

bool in_file_list(const std::string& path,
                  const std::vector<std::string>& set) {
  return std::any_of(set.begin(), set.end(), [&path](const std::string& p) {
    if (!p.empty() && p.back() == '/') return path.compare(0, p.size(), p) == 0;
    return path == p;
  });
}

void check_r1(const std::string& path, const std::vector<Token>& tokens,
              const Config& cfg, std::vector<Diagnostic>* out) {
  if (has_prefix(path, cfg.r1_exempt_prefixes)) return;
  const std::set<std::string> banned(cfg.r1_banned.begin(),
                                     cfg.r1_banned.end());
  const std::set<std::string> call_only(cfg.r1_call_only.begin(),
                                        cfg.r1_call_only.end());
  for (std::size_t i = 0; i < tokens.size(); ++i) {
    const Token& t = tokens[i];
    if (t.kind != TokKind::kIdent || banned.count(t.text) == 0) continue;
    if (call_only.count(t.text) != 0) {
      // Only the call form is banned ("time(", "rand(", "getenv(").
      if (i + 1 >= tokens.size() || tokens[i + 1].text != "(") continue;
      // "time(" must be the C library function, not a member/local named
      // time: require a preceding "::" (::time / std::time).
      if (t.text == "time" && (i == 0 || tokens[i - 1].text != "::")) continue;
      // A member call (x.rand(), obj->getenv()) is someone else's API.
      if (i > 0 && (tokens[i - 1].text == "." || tokens[i - 1].text == "->")) {
        continue;
      }
    }
    out->push_back(Diagnostic{
        "R1", path, t.line, t.text,
        "banned nondeterminism source '" + t.text +
            "' — all time must flow from runtime::Clock and all randomness "
            "from the per-run Rng; wall time only via runtime::MonotonicTimer "
            "(src/runtime/monotonic_timer.h is the sole binding site)"});
  }
}

void check_r2(const std::string& path, const std::vector<Token>& tokens,
              std::vector<Diagnostic>* out) {
  static const std::set<std::string> kUnorderedTypes = {
      "unordered_map", "unordered_set", "unordered_multimap",
      "unordered_multiset"};
  static const std::set<std::string> kIterFns = {"begin",  "end",  "cbegin",
                                                 "cend",   "rbegin", "rend"};
  // Pass 1: names declared with an unordered container type.
  std::set<std::string> declared;
  for (std::size_t i = 0; i < tokens.size(); ++i) {
    if (tokens[i].kind != TokKind::kIdent ||
        kUnorderedTypes.count(tokens[i].text) == 0) {
      continue;
    }
    std::size_t j = i + 1;
    if (j < tokens.size() && tokens[j].text == "<") {
      int depth = 1;
      ++j;
      while (j < tokens.size() && depth > 0) {
        if (tokens[j].text == "<") ++depth;
        if (tokens[j].text == ">") --depth;
        ++j;
      }
    }
    while (j < tokens.size() &&
           (tokens[j].text == "&" || tokens[j].text == "*" ||
            tokens[j].text == "const")) {
      ++j;
    }
    if (j < tokens.size() && tokens[j].kind == TokKind::kIdent) {
      declared.insert(tokens[j].text);
    }
  }
  const auto flag = [&](const Token& at, const std::string& name) {
    out->push_back(Diagnostic{
        "R2", path, at.line, name,
        "iteration over unordered container '" + name +
            "' in a byte-stable export path — hash order is not part of the "
            "determinism contract; iterate a sorted copy or an ordered "
            "container"});
  };
  // Pass 2a: range-for whose range expression mentions a declared name
  // (or an unordered type directly).
  for (std::size_t i = 0; i + 1 < tokens.size(); ++i) {
    if (tokens[i].text != "for" || tokens[i + 1].text != "(") continue;
    std::size_t j = i + 2;
    int depth = 1;
    bool has_semicolon = false;
    std::size_t colon = 0;
    while (j < tokens.size() && depth > 0) {
      if (tokens[j].text == "(") ++depth;
      if (tokens[j].text == ")") --depth;
      if (depth == 1 && tokens[j].text == ";") has_semicolon = true;
      if (depth == 1 && colon == 0 && tokens[j].text == ":") colon = j;
      ++j;
    }
    if (has_semicolon || colon == 0) continue;  // classic for / no range
    for (std::size_t k = colon + 1; k + 1 < j; ++k) {
      if (tokens[k].kind != TokKind::kIdent) continue;
      if (declared.count(tokens[k].text) != 0 ||
          kUnorderedTypes.count(tokens[k].text) != 0) {
        flag(tokens[i], tokens[k].text);
        break;
      }
    }
  }
  // Pass 2b: explicit iterator loops — name.begin() / name.cbegin() ...
  for (std::size_t i = 0; i + 3 < tokens.size(); ++i) {
    if (tokens[i].kind == TokKind::kIdent &&
        declared.count(tokens[i].text) != 0 &&
        (tokens[i + 1].text == "." || tokens[i + 1].text == "->") &&
        kIterFns.count(tokens[i + 2].text) != 0 &&
        tokens[i + 3].text == "(") {
      flag(tokens[i], tokens[i].text);
    }
  }
}

namespace {

/// R3's second form: a floating std::to_chars call that names
/// chars_format but passes no precision prints the shortest round-trip
/// digits, not a pinned %.Ng. Counts the call's top-level arguments:
/// (first, last, value, format) lacks the fifth, the precision.
void check_r3_to_chars(const std::string& path,
                       const std::vector<Token>& tokens,
                       std::vector<Diagnostic>* out) {
  for (std::size_t i = 0; i + 1 < tokens.size(); ++i) {
    if (tokens[i].text != "to_chars" || tokens[i + 1].text != "(") continue;
    int depth = 0;
    std::size_t args = 1;
    bool names_format = false;
    for (std::size_t j = i + 1; j < tokens.size(); ++j) {
      const std::string& text = tokens[j].text;
      if (text == "(" || text == "[" || text == "{") ++depth;
      if (text == ")" || text == "]" || text == "}") --depth;
      if (depth == 0) break;
      if (depth == 1 && text == ",") ++args;
      names_format |= text == "chars_format";
    }
    if (!names_format || args >= 5) continue;
    out->push_back(Diagnostic{
        "R3", path, tokens[i].line, "to_chars",
        "std::to_chars with a chars_format but no precision prints the "
        "shortest round-trip digits, not a pinned precision; pass one "
        "(chars_format::general, 10 prints what %.10g prints)"});
  }
}

}  // namespace

void check_r3(const std::string& path, const std::vector<Token>& tokens,
              std::vector<Diagnostic>* out) {
  check_r3_to_chars(path, tokens, out);
  for (const Token& t : tokens) {
    if (t.kind != TokKind::kString) continue;
    const std::string& s = t.text;
    for (std::size_t i = 0; i < s.size(); ++i) {
      if (s[i] != '%') continue;
      std::size_t j = i + 1;
      if (j < s.size() && s[j] == '%') {
        i = j;
        continue;
      }
      while (j < s.size() && (s[j] == '-' || s[j] == '+' || s[j] == ' ' ||
                              s[j] == '#' || s[j] == '0' || s[j] == '\'')) {
        ++j;
      }
      while (j < s.size() && (std::isdigit(static_cast<unsigned char>(s[j])) ||
                              s[j] == '*')) {
        ++j;
      }
      bool has_precision = false;
      if (j < s.size() && s[j] == '.') {
        has_precision = true;
        ++j;
        while (j < s.size() &&
               (std::isdigit(static_cast<unsigned char>(s[j])) ||
                s[j] == '*')) {
          ++j;
        }
      }
      while (j < s.size() && (s[j] == 'h' || s[j] == 'l' || s[j] == 'L' ||
                              s[j] == 'q' || s[j] == 'j' || s[j] == 'z' ||
                              s[j] == 't')) {
        ++j;
      }
      if (j < s.size() && !has_precision &&
          (s[j] == 'f' || s[j] == 'F' || s[j] == 'g' || s[j] == 'G' ||
           s[j] == 'e' || s[j] == 'E')) {
        const std::string spec = s.substr(i, j - i + 1);
        out->push_back(Diagnostic{
            "R3", path, t.line, spec,
            "float conversion '" + spec +
                "' without an explicit precision — exported bytes must not "
                "depend on default-precision rounding; use %.9g (or a fixed "
                "%.Nf)"});
      }
      i = j;
    }
  }
}

void check_r4(const std::string& path, const std::vector<Token>& tokens,
              const Config& cfg, std::vector<Diagnostic>* out) {
  const std::set<std::string> banned(cfg.r4_banned.begin(),
                                     cfg.r4_banned.end());
  for (std::size_t i = 0; i < tokens.size(); ++i) {
    const Token& t = tokens[i];
    if (t.kind != TokKind::kIdent) continue;
    std::string hit;
    if (t.text == "function" && banned.count("function") != 0) {
      if (i >= 2 && tokens[i - 1].text == "::" && tokens[i - 2].text == "std") {
        hit = "std::function";
      }
    } else if (banned.count(t.text) != 0 && t.text != "function") {
      // Member calls (allocator.malloc(...)) are someone else's API.
      if (i > 0 && (tokens[i - 1].text == "." || tokens[i - 1].text == "->")) {
        continue;
      }
      hit = t.text;
    }
    if (hit.empty()) continue;
    out->push_back(Diagnostic{
        "R4", path, t.line, hit,
        "allocation/type-erasure '" + hit +
            "' in a designated hot-path file — the event/packet path must "
            "stay allocation-lean (see DESIGN.md, runtime layer)"});
  }
}

void check_r8(const std::string& path, const LexOutput& lexed,
              const std::vector<std::string>& syscalls,
              std::vector<Diagnostic>* out) {
  const std::set<std::string> watched(syscalls.begin(), syscalls.end());
  const std::vector<Token>& tokens = lexed.tokens;
  for (std::size_t i = 0; i < tokens.size(); ++i) {
    const Token& t = tokens[i];
    if (t.kind != TokKind::kIdent || watched.count(t.text) == 0) continue;
    if (i + 1 >= tokens.size() || tokens[i + 1].text != "(") continue;
    if (i > 0 && (tokens[i - 1].text == "." || tokens[i - 1].text == "->")) {
      continue;  // member call: someone else's API
    }
    // Previous significant token, looking through a qualifying "::".
    std::size_t p = i;
    if (p > 0 && tokens[p - 1].text == "::") --p;
    if (p == 0) continue;  // file starts with the call — no statement context
    const std::string& prev = tokens[p - 1].text;
    const auto flag = [&](const std::string& why) {
      out->push_back(Diagnostic{
          "R8", path, t.line, t.text,
          "unchecked syscall return from '" + t.text + "' — " + why +
              "; assign/compare the result or cast to (void) with a "
              "same-line comment naming why discarding is safe"});
    };
    if (prev == ";" || prev == "{" || prev == "}" || prev == "else" ||
        prev == "do") {
      flag("the result is discarded");
      continue;
    }
    if (prev == ")") {
      const bool void_cast = p >= 3 && tokens[p - 2].text == "void" &&
                             tokens[p - 3].text == "(";
      if (void_cast) {
        if (lexed.comment_lines.count(t.line) == 0) {
          flag("(void) cast without a named reason");
        }
        continue;
      }
      // `if (cond) syscall(...)` / `while (cond) syscall(...)`: the call
      // is a bare statement whose result still vanishes.
      flag("the result is discarded");
      continue;
    }
    // Anything else — '=', '(', ',', 'return', '!', comparison, a
    // declaration type — consumes the value.
  }
}

}  // namespace triad::lint
