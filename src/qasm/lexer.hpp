#pragma once
// Tokeniser for QasmLite, the Qiskit-flavoured DSL in which the code
// generation agent emits programs.

#include <string>
#include <string_view>
#include <vector>

#include "qasm/diagnostics.hpp"

namespace qcgen::qasm {

enum class TokenKind {
  kIdentifier,
  kNumber,
  kKeywordImport,
  kKeywordCircuit,
  kKeywordMeasure,
  kKeywordMeasureAll,
  kKeywordBarrier,
  kKeywordReset,
  kKeywordIf,
  kKeywordPi,
  kLParen,
  kRParen,
  kLBracket,
  kRBracket,
  kLBrace,
  kRBrace,
  kComma,
  kSemicolon,
  kColon,
  kDot,
  kArrow,     // ->
  kEqualEqual,
  kPlus,
  kMinus,
  kStar,
  kSlash,
  kEof,
};

std::string_view token_kind_name(TokenKind kind);

/// One token. `text` views the source passed to lex(), so a token is
/// valid only while that source is alive; copy the text out (as the
/// parser does into the AST) to keep it longer.
struct Token {
  TokenKind kind = TokenKind::kEof;
  std::string_view text;
  double number = 0.0;  ///< valid when kind == kNumber
  int line = 1;
  int column = 1;
};

/// Result of lexing: tokens plus any lexical diagnostics. Unknown
/// characters produce kLexError diagnostics and are skipped, so the
/// parser always receives a well-terminated stream.
struct LexResult {
  std::vector<Token> tokens;
  std::vector<Diagnostic> diagnostics;
};

/// Tokenises a full source text. `//` line comments and `#` line comments
/// are skipped. Token texts view `source`, which must outlive the result.
LexResult lex(std::string_view source);

}  // namespace qcgen::qasm
