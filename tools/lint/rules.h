// Per-file rules: each checks one translation unit's token stream in
// isolation. Cross-file analyses (R6/R7/R9) live in graph.h.
#pragma once

#include <string>
#include <vector>

#include "lexer.h"
#include "lint.h"

namespace triad::lint {

// Shared path helpers (repo-relative, forward-slash paths).
[[nodiscard]] bool has_prefix(const std::string& path,
                              const std::vector<std::string>& set);
[[nodiscard]] bool in_file_list(const std::string& path,
                                const std::vector<std::string>& set);

/// R1: banned nondeterminism identifiers.
void check_r1(const std::string& path, const std::vector<Token>& tokens,
              const Config& cfg, std::vector<Diagnostic>* out);

/// R2: unordered-container iteration in byte-stable export paths.
void check_r2(const std::string& path, const std::vector<Token>& tokens,
              std::vector<Diagnostic>* out);

/// R3: %f/%g/%e printf conversions without an explicit precision, and
/// std::to_chars calls that name a chars_format but pass no precision.
void check_r3(const std::string& path, const std::vector<Token>& tokens,
              std::vector<Diagnostic>* out);

/// R4: allocation/type-erasure in designated hot-path files.
void check_r4(const std::string& path, const std::vector<Token>& tokens,
              const Config& cfg, std::vector<Diagnostic>* out);

/// R8: every call to a name in `syscalls` must consume its return value —
/// assigned/compared/returned/passed, or cast to (void) with a comment on
/// the same line naming why discarding is safe. `lexed.comment_lines`
/// supplies the comment evidence. Member calls (x.connect()) are skipped:
/// they are someone else's API, same convention as R1.
void check_r8(const std::string& path, const LexOutput& lexed,
              const std::vector<std::string>& syscalls,
              std::vector<Diagnostic>* out);

}  // namespace triad::lint
