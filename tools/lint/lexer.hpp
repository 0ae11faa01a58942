// rsf-lint — a minimal C++ lexer good enough to check the repo's
// determinism contract.
//
// The lexer is NOT a compiler frontend: it tokenizes identifiers,
// punctuation, literals and numbers, strips comments and preprocessor
// lines, and records `// rsf-lint: <directive>(<reason>)` annotations
// with the line they attach to. Everything rule-shaped lives in
// rules.cpp on top of this token stream. The deliberate trade: the
// rules see every translation unit (headers included) without needing
// a compiler, headers, or flags — at the cost of name-based rather
// than type-based resolution, which the annotation escape hatch and
// the baseline ratchet absorb.
#pragma once

#include <string>
#include <vector>

namespace rsflint {

struct Token {
  enum class Kind { Ident, Punct, String, CharLit, Number, End };
  Kind kind = Kind::End;
  std::string text;
  int line = 0;
};

/// One `// rsf-lint: directive(reason)` marker. It suppresses a
/// matching finding on the comment's own line or on the next code
/// line (so it can ride at end-of-line or on the line above).
struct Annotation {
  std::string directive;
  std::string reason;
  int comment_line = 0;
  int code_line = 0;  // first token line after the comment (0 if none)
  bool malformed = false;
};

struct SourceFile {
  std::string path;
  std::vector<std::string> lines;   // raw source, 1-based via line_text
  std::vector<Token> tokens;        // comments/preprocessor stripped
  std::vector<Annotation> annotations;

  /// Tokenize `content`. Returns false only on internal errors (the
  /// lexer is total over byte strings — malformed source still lexes).
  bool lex(const std::string& content);

  [[nodiscard]] const std::string& line_text(int line) const;
  [[nodiscard]] bool has_annotation(const std::string& directive, int line) const;
};

/// Squeeze runs of whitespace to one space and trim — the stable
/// fingerprint used to match findings against baseline entries across
/// line-number drift.
[[nodiscard]] std::string normalize_ws(const std::string& s);

}  // namespace rsflint
