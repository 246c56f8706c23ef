#include "qasm/lexer.hpp"

#include <algorithm>
#include <cctype>
#include <cstdlib>
#include <cstring>
#include <string>

namespace qcgen::qasm {

std::string_view token_kind_name(TokenKind kind) {
  switch (kind) {
    case TokenKind::kIdentifier: return "identifier";
    case TokenKind::kNumber: return "number";
    case TokenKind::kKeywordImport: return "'import'";
    case TokenKind::kKeywordCircuit: return "'circuit'";
    case TokenKind::kKeywordMeasure: return "'measure'";
    case TokenKind::kKeywordMeasureAll: return "'measure_all'";
    case TokenKind::kKeywordBarrier: return "'barrier'";
    case TokenKind::kKeywordReset: return "'reset'";
    case TokenKind::kKeywordIf: return "'if'";
    case TokenKind::kKeywordPi: return "'pi'";
    case TokenKind::kLParen: return "'('";
    case TokenKind::kRParen: return "')'";
    case TokenKind::kLBracket: return "'['";
    case TokenKind::kRBracket: return "']'";
    case TokenKind::kLBrace: return "'{'";
    case TokenKind::kRBrace: return "'}'";
    case TokenKind::kComma: return "','";
    case TokenKind::kSemicolon: return "';'";
    case TokenKind::kColon: return "':'";
    case TokenKind::kDot: return "'.'";
    case TokenKind::kArrow: return "'->'";
    case TokenKind::kEqualEqual: return "'=='";
    case TokenKind::kPlus: return "'+'";
    case TokenKind::kMinus: return "'-'";
    case TokenKind::kStar: return "'*'";
    case TokenKind::kSlash: return "'/'";
    case TokenKind::kEof: return "end of input";
  }
  return "?";
}

namespace {

/// Keyword kind of a scanned word, or kIdentifier. Switching on the
/// length first leaves at most three comparisons per word.
TokenKind keyword_kind(std::string_view word) {
  switch (word.size()) {
    case 2:
      if (word == "if") return TokenKind::kKeywordIf;
      if (word == "pi") return TokenKind::kKeywordPi;
      break;
    case 5:
      if (word == "reset") return TokenKind::kKeywordReset;
      break;
    case 6:
      if (word == "import") return TokenKind::kKeywordImport;
      break;
    case 7:
      if (word == "circuit") return TokenKind::kKeywordCircuit;
      if (word == "measure") return TokenKind::kKeywordMeasure;
      if (word == "barrier") return TokenKind::kKeywordBarrier;
      break;
    case 11:
      if (word == "measure_all") return TokenKind::kKeywordMeasureAll;
      break;
    default:
      break;
  }
  return TokenKind::kIdentifier;
}

bool is_digit(char c) { return std::isdigit(static_cast<unsigned char>(c)); }
bool is_word_start(char c) {
  return std::isalpha(static_cast<unsigned char>(c)) || c == '_';
}
bool is_word_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

/// std::atof of a number token, which is not NUL-terminated inside the
/// source. Short tokens are copied to the stack.
double parse_number(std::string_view text) {
  char buffer[64];
  if (text.size() < sizeof buffer) {
    std::memcpy(buffer, text.data(), text.size());
    buffer[text.size()] = '\0';
    return std::atof(buffer);
  }
  return std::atof(std::string(text).c_str());
}

TokenKind punctuation_kind(char c) {
  switch (c) {
    case '(': return TokenKind::kLParen;
    case ')': return TokenKind::kRParen;
    case '[': return TokenKind::kLBracket;
    case ']': return TokenKind::kRBracket;
    case '{': return TokenKind::kLBrace;
    case '}': return TokenKind::kRBrace;
    case ',': return TokenKind::kComma;
    case ';': return TokenKind::kSemicolon;
    case ':': return TokenKind::kColon;
    case '.': return TokenKind::kDot;
    case '+': return TokenKind::kPlus;
    case '*': return TokenKind::kStar;
    case '/': return TokenKind::kSlash;
    default: return TokenKind::kEof;  // not single-character punctuation
  }
}

}  // namespace

LexResult lex(std::string_view source) {
  LexResult result;
  const std::size_t n = source.size();
  int line = 1;
  std::size_t line_start = 0;  // index of the current line's first byte
  std::size_t i = 0;
  const auto column_of = [&](std::size_t at) {
    return static_cast<int>(at - line_start) + 1;
  };
  const auto at = [&](std::size_t k) { return k < n ? source[k] : '\0'; };
  const auto push = [&](TokenKind kind, std::size_t begin, std::size_t end,
                        double num = 0.0) {
    result.tokens.push_back(Token{kind, source.substr(begin, end - begin),
                                  num, line, column_of(begin)});
  };

  while (i < n) {
    const char c = source[i];
    if (c == '\n') {
      ++line;
      line_start = ++i;
      continue;
    }
    if (std::isspace(static_cast<unsigned char>(c))) {
      ++i;
      continue;
    }
    // Comments: // ... and # ... to end of line.
    if ((c == '/' && at(i + 1) == '/') || c == '#') {
      i = std::min(source.find('\n', i), n);
      continue;
    }
    const std::size_t begin = i;
    if (is_word_start(c)) {
      while (i < n && is_word_char(source[i])) ++i;
      push(keyword_kind(source.substr(begin, i - begin)), begin, i);
      continue;
    }
    if (is_digit(c) || (c == '.' && is_digit(at(i + 1)))) {
      bool seen_dot = false;
      bool seen_exp = false;
      while (i < n) {
        const char d = source[i];
        if (is_digit(d)) {
          ++i;
        } else if (d == '.' && !seen_dot && !seen_exp) {
          seen_dot = true;
          ++i;
        } else if ((d == 'e' || d == 'E') && !seen_exp) {
          seen_exp = true;
          ++i;
          if (at(i) == '+' || at(i) == '-') ++i;
        } else {
          break;
        }
      }
      push(TokenKind::kNumber, begin, i,
           parse_number(source.substr(begin, i - begin)));
      continue;
    }
    if (const TokenKind kind = punctuation_kind(c); kind != TokenKind::kEof) {
      push(kind, begin, ++i);
      continue;
    }
    if (c == '-') {
      const bool arrow = at(i + 1) == '>';
      i += arrow ? 2 : 1;
      push(arrow ? TokenKind::kArrow : TokenKind::kMinus, begin, i);
      continue;
    }
    if (c == '=' && at(i + 1) == '=') {
      i += 2;
      push(TokenKind::kEqualEqual, begin, i);
      continue;
    }
    Diagnostic diag;
    diag.severity = Severity::kError;
    diag.code = DiagCode::kLexError;
    diag.message = std::string("unexpected character '") + c + "'";
    diag.line = line;
    diag.column = column_of(begin);
    result.diagnostics.push_back(std::move(diag));
    ++i;
  }
  result.tokens.push_back(
      Token{TokenKind::kEof, std::string_view(), 0.0, line, column_of(i)});
  return result;
}

}  // namespace qcgen::qasm
