// Tests for the QasmLite tokenizer.

#include <gtest/gtest.h>

#include <bit>
#include <cctype>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <string>
#include <unordered_map>
#include <vector>

#include "eval/suite.hpp"
#include "llm/templates.hpp"
#include "qasm/lexer.hpp"
#include "qasm/printer.hpp"

#include "fuzz_sources.hpp"

namespace qcgen::qasm {
namespace {

std::vector<TokenKind> kinds_of(const LexResult& result) {
  std::vector<TokenKind> out;
  for (const Token& t : result.tokens) out.push_back(t.kind);
  return out;
}

TEST(Lexer, EmptyInputYieldsEof) {
  const LexResult r = lex("");
  ASSERT_EQ(r.tokens.size(), 1u);
  EXPECT_EQ(r.tokens[0].kind, TokenKind::kEof);
  EXPECT_TRUE(r.diagnostics.empty());
}

TEST(Lexer, KeywordsAndIdentifiers) {
  const LexResult r = lex("import circuit measure barrier reset if pi foo");
  const auto kinds = kinds_of(r);
  EXPECT_EQ(kinds[0], TokenKind::kKeywordImport);
  EXPECT_EQ(kinds[1], TokenKind::kKeywordCircuit);
  EXPECT_EQ(kinds[2], TokenKind::kKeywordMeasure);
  EXPECT_EQ(kinds[3], TokenKind::kKeywordBarrier);
  EXPECT_EQ(kinds[4], TokenKind::kKeywordReset);
  EXPECT_EQ(kinds[5], TokenKind::kKeywordIf);
  EXPECT_EQ(kinds[6], TokenKind::kKeywordPi);
  EXPECT_EQ(kinds[7], TokenKind::kIdentifier);
}

TEST(Lexer, MeasureAllIsOneToken) {
  const LexResult r = lex("measure_all;");
  EXPECT_EQ(r.tokens[0].kind, TokenKind::kKeywordMeasureAll);
  EXPECT_EQ(r.tokens[1].kind, TokenKind::kSemicolon);
}

TEST(Lexer, NumbersIncludingFloatsAndExponents) {
  const LexResult r = lex("3 0.25 1e3 2.5E-2");
  ASSERT_GE(r.tokens.size(), 4u);
  EXPECT_DOUBLE_EQ(r.tokens[0].number, 3.0);
  EXPECT_DOUBLE_EQ(r.tokens[1].number, 0.25);
  EXPECT_DOUBLE_EQ(r.tokens[2].number, 1000.0);
  EXPECT_DOUBLE_EQ(r.tokens[3].number, 0.025);
}

TEST(Lexer, ArrowVsMinus) {
  const LexResult r = lex("-> - 5");
  EXPECT_EQ(r.tokens[0].kind, TokenKind::kArrow);
  EXPECT_EQ(r.tokens[1].kind, TokenKind::kMinus);
  EXPECT_EQ(r.tokens[2].kind, TokenKind::kNumber);
}

TEST(Lexer, PunctuationCoverage) {
  const LexResult r = lex("()[]{},;:.+*/==");
  const auto kinds = kinds_of(r);
  const TokenKind expected[] = {
      TokenKind::kLParen,  TokenKind::kRParen,    TokenKind::kLBracket,
      TokenKind::kRBracket, TokenKind::kLBrace,   TokenKind::kRBrace,
      TokenKind::kComma,   TokenKind::kSemicolon, TokenKind::kColon,
      TokenKind::kDot,     TokenKind::kPlus,      TokenKind::kStar,
      TokenKind::kSlash,   TokenKind::kEqualEqual, TokenKind::kEof};
  ASSERT_EQ(kinds.size(), std::size(expected));
  for (std::size_t i = 0; i < kinds.size(); ++i) {
    EXPECT_EQ(kinds[i], expected[i]) << "token " << i;
  }
}

TEST(Lexer, CommentsAreSkipped) {
  const LexResult r = lex("h q[0]; // trailing comment\n# full line\nx q[1];");
  std::size_t identifiers = 0;
  for (const Token& t : r.tokens) {
    if (t.kind == TokenKind::kIdentifier) ++identifiers;
  }
  EXPECT_EQ(identifiers, 4u);  // h, q, x, q
  EXPECT_TRUE(r.diagnostics.empty());
}

TEST(Lexer, LineAndColumnTracking) {
  const LexResult r = lex("h q[0];\n  cx q[0], q[1];");
  // Second line starts with 'cx' at line 2, column 3.
  const Token* cx = nullptr;
  for (const Token& t : r.tokens) {
    if (t.text == "cx") cx = &t;
  }
  ASSERT_NE(cx, nullptr);
  EXPECT_EQ(cx->line, 2);
  EXPECT_EQ(cx->column, 3);
}

TEST(Lexer, UnknownCharacterDiagnosed) {
  const LexResult r = lex("h q[0] @;");
  ASSERT_EQ(r.diagnostics.size(), 1u);
  EXPECT_EQ(r.diagnostics[0].code, DiagCode::kLexError);
  EXPECT_EQ(r.diagnostics[0].severity, Severity::kError);
}

TEST(Lexer, SingleEqualsIsError) {
  const LexResult r = lex("a = b");
  ASSERT_EQ(r.diagnostics.size(), 1u);
  EXPECT_EQ(r.diagnostics[0].code, DiagCode::kLexError);
}

TEST(Lexer, UnderscoredIdentifiers) {
  const LexResult r = lex("my_gate_2 q[0];");
  EXPECT_EQ(r.tokens[0].kind, TokenKind::kIdentifier);
  EXPECT_EQ(r.tokens[0].text, "my_gate_2");
}

// --- Oracle: the character-at-a-time lexer ---------------------------------
//
// The tokenizer as it was before tokens became views into the source:
// every token owns its text, words and numbers grow one character at a
// time, and keywords come from a string-keyed table. lex() must agree
// with it on kind, text, number, line and column of every token and on
// message, line and column of every diagnostic.

namespace oracle {

struct OwnedToken {
  TokenKind kind = TokenKind::kEof;
  std::string text;
  double number = 0.0;
  int line = 1;
  int column = 1;
};

struct OwnedLex {
  std::vector<OwnedToken> tokens;
  std::vector<Diagnostic> diagnostics;
};

OwnedLex lex(std::string_view source) {
  static const std::unordered_map<std::string, TokenKind> kKeywords = {
      {"import", TokenKind::kKeywordImport},
      {"circuit", TokenKind::kKeywordCircuit},
      {"measure", TokenKind::kKeywordMeasure},
      {"measure_all", TokenKind::kKeywordMeasureAll},
      {"barrier", TokenKind::kKeywordBarrier},
      {"reset", TokenKind::kKeywordReset},
      {"if", TokenKind::kKeywordIf},
      {"pi", TokenKind::kKeywordPi},
  };
  OwnedLex result;
  int line = 1;
  int column = 1;
  std::size_t i = 0;
  const auto advance = [&](std::size_t n = 1) {
    for (std::size_t k = 0; k < n && i < source.size(); ++k) {
      if (source[i] == '\n') {
        ++line;
        column = 1;
      } else {
        ++column;
      }
      ++i;
    }
  };
  const auto peek = [&](std::size_t off = 0) -> char {
    return i + off < source.size() ? source[i + off] : '\0';
  };
  const auto push = [&](TokenKind kind, std::string text, int l, int c,
                        double num = 0.0) {
    result.tokens.push_back(OwnedToken{kind, std::move(text), num, l, c});
  };
  while (i < source.size()) {
    const char c = peek();
    if (std::isspace(static_cast<unsigned char>(c))) {
      advance();
      continue;
    }
    if ((c == '/' && peek(1) == '/') || c == '#') {
      while (i < source.size() && peek() != '\n') advance();
      continue;
    }
    const int tok_line = line;
    const int tok_col = column;
    if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
      std::string ident;
      while (i < source.size() &&
             (std::isalnum(static_cast<unsigned char>(peek())) ||
              peek() == '_')) {
        ident += peek();
        advance();
      }
      const auto it = kKeywords.find(ident);
      push(it != kKeywords.end() ? it->second : TokenKind::kIdentifier, ident,
           tok_line, tok_col);
      continue;
    }
    if (std::isdigit(static_cast<unsigned char>(c)) ||
        (c == '.' && std::isdigit(static_cast<unsigned char>(peek(1))))) {
      std::string num;
      bool seen_dot = false;
      bool seen_exp = false;
      while (i < source.size()) {
        const char d = peek();
        if (std::isdigit(static_cast<unsigned char>(d))) {
          num += d;
          advance();
        } else if (d == '.' && !seen_dot && !seen_exp) {
          seen_dot = true;
          num += d;
          advance();
        } else if ((d == 'e' || d == 'E') && !seen_exp) {
          seen_exp = true;
          num += d;
          advance();
          if (peek() == '+' || peek() == '-') {
            num += peek();
            advance();
          }
        } else {
          break;
        }
      }
      push(TokenKind::kNumber, num, tok_line, tok_col, std::atof(num.c_str()));
      continue;
    }
    switch (c) {
      case '(': push(TokenKind::kLParen, "(", tok_line, tok_col); advance(); continue;
      case ')': push(TokenKind::kRParen, ")", tok_line, tok_col); advance(); continue;
      case '[': push(TokenKind::kLBracket, "[", tok_line, tok_col); advance(); continue;
      case ']': push(TokenKind::kRBracket, "]", tok_line, tok_col); advance(); continue;
      case '{': push(TokenKind::kLBrace, "{", tok_line, tok_col); advance(); continue;
      case '}': push(TokenKind::kRBrace, "}", tok_line, tok_col); advance(); continue;
      case ',': push(TokenKind::kComma, ",", tok_line, tok_col); advance(); continue;
      case ';': push(TokenKind::kSemicolon, ";", tok_line, tok_col); advance(); continue;
      case ':': push(TokenKind::kColon, ":", tok_line, tok_col); advance(); continue;
      case '.': push(TokenKind::kDot, ".", tok_line, tok_col); advance(); continue;
      case '+': push(TokenKind::kPlus, "+", tok_line, tok_col); advance(); continue;
      case '*': push(TokenKind::kStar, "*", tok_line, tok_col); advance(); continue;
      case '/': push(TokenKind::kSlash, "/", tok_line, tok_col); advance(); continue;
      case '-':
        if (peek(1) == '>') {
          push(TokenKind::kArrow, "->", tok_line, tok_col);
          advance(2);
        } else {
          push(TokenKind::kMinus, "-", tok_line, tok_col);
          advance();
        }
        continue;
      case '=':
        if (peek(1) == '=') {
          push(TokenKind::kEqualEqual, "==", tok_line, tok_col);
          advance(2);
          continue;
        }
        [[fallthrough]];
      default:
        Diagnostic diag;
        diag.severity = Severity::kError;
        diag.code = DiagCode::kLexError;
        diag.message = std::string("unexpected character '") + c + "'";
        diag.line = tok_line;
        diag.column = tok_col;
        result.diagnostics.push_back(std::move(diag));
        advance();
    }
  }
  result.tokens.push_back(OwnedToken{TokenKind::kEof, "", 0.0, line, column});
  return result;
}

}  // namespace oracle

/// Asserts lex(source) matches the oracle token for token and diagnostic
/// for diagnostic. Numbers compare bit for bit (NaN never arises: every
/// number token starts with a digit or '.').
void expect_matches_oracle(const std::string& source) {
  const LexResult got = lex(source);
  const oracle::OwnedLex want = oracle::lex(source);
  ASSERT_EQ(got.tokens.size(), want.tokens.size()) << source;
  for (std::size_t i = 0; i < want.tokens.size(); ++i) {
    const Token& g = got.tokens[i];
    const oracle::OwnedToken& w = want.tokens[i];
    EXPECT_EQ(g.kind, w.kind) << "token " << i << " of:\n" << source;
    EXPECT_EQ(g.text, w.text) << "token " << i << " of:\n" << source;
    EXPECT_EQ(g.number, w.number) << "token " << i << " of:\n" << source;
    EXPECT_EQ(g.line, w.line) << "token " << i << " of:\n" << source;
    EXPECT_EQ(g.column, w.column) << "token " << i << " of:\n" << source;
  }
  ASSERT_EQ(got.diagnostics.size(), want.diagnostics.size()) << source;
  for (std::size_t i = 0; i < want.diagnostics.size(); ++i) {
    const Diagnostic& g = got.diagnostics[i];
    const Diagnostic& w = want.diagnostics[i];
    EXPECT_EQ(g.message, w.message) << "diagnostic " << i << " of:\n" << source;
    EXPECT_EQ(g.line, w.line) << "diagnostic " << i << " of:\n" << source;
    EXPECT_EQ(g.column, w.column) << "diagnostic " << i << " of:\n" << source;
    EXPECT_EQ(g.code, w.code);
    EXPECT_EQ(g.severity, w.severity);
  }
}

TEST(LexerOracle, GoldProgramsOfBothSuitesAndEveryTemplate) {
  std::size_t programs = 0;
  for (const auto& suite : {eval::semantic_suite(), eval::qhe_suite()}) {
    for (const eval::TestCase& test_case : suite) {
      expect_matches_oracle(print_program(llm::gold_program(test_case.task)));
      ++programs;
    }
  }
  for (const llm::AlgorithmId algorithm : llm::all_algorithms()) {
    llm::TaskSpec task;
    task.algorithm = algorithm;
    expect_matches_oracle(print_program(llm::gold_program(task)));
    ++programs;
  }
  EXPECT_EQ(programs, 160u + llm::all_algorithms().size());
}

TEST(LexerOracle, MutatedSourcesOfTheFuzzSweep) {
  for (int seed = 1; seed < 7; ++seed) {
    for (const std::string& source :
         testing_support::mutated_gold_sources(seed)) {
      expect_matches_oracle(source);
    }
  }
}

TEST(LexerOracle, EdgeCases) {
  const char* const inputs[] = {
      "a = b",
      "=",
      "x ==",
      "1e-3 1E+4 2e 3e- 4.5.6 7.e2 1e999 1e-400",
      ".5 . .x 5. 0.25",
      "-> - -- --> ->- -5",
      "h q[0]; # hash comment\nx q[1];",
      "h q[0]; // slash comment\n/ /x //",
      "# only a comment",
      "h q[0];\r\ncx q[0], q[1];\r\n",
      "h q[0]; \xc3\xa9 x q[1];",
      "\x80\xff",
      "\t\v\f  measure_all; measure_al measure_alls import_ pi2 if_",
      "circuit main(q: 2, c: 2) {\n  if (c[0] == 1) x q[1];\n}\n",
      "",
      "\n\n\n",
  };
  for (const char* input : inputs) expect_matches_oracle(input);
}

// --- Pinned edge cases ------------------------------------------------------
//
// Exact expectations for the inputs where a character classifier or a
// number parser could differ from the C locale's <cctype> and std::atof.

/// std::atof of a token's text, bit for bit comparable.
std::uint64_t atof_bits(std::string_view text) {
  return std::bit_cast<std::uint64_t>(std::atof(std::string(text).c_str()));
}

TEST(LexerEdgeCases, ExponentsLeadingDotsAndOverflow) {
  // The last four are integers: 15 digits are exact, longer runs
  // (2^53 + 1, 2^64 + 1) round as atof rounds them.
  const LexResult r = lex(
      "1e3 2.5E-2 7.e2 .5 2e 3e- 1e+4 1e999 1e-400 4e-320 "
      "007 999999999999999 9007199254740993 18446744073709551617");
  ASSERT_TRUE(r.diagnostics.empty());
  const char* const texts[] = {
      "1e3",    "2.5E-2", "7.e2", ".5",     "2e",     "3e-",
      "1e+4",   "1e999",  "1e-400", "4e-320", "007",  "999999999999999",
      "9007199254740993", "18446744073709551617"};
  ASSERT_EQ(r.tokens.size(), std::size(texts) + 1);
  for (std::size_t i = 0; i < std::size(texts); ++i) {
    EXPECT_EQ(r.tokens[i].kind, TokenKind::kNumber) << texts[i];
    EXPECT_EQ(r.tokens[i].text, texts[i]);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(r.tokens[i].number),
              atof_bits(texts[i]))
        << texts[i];
  }
  EXPECT_EQ(r.tokens[0].number, 1000.0);
  EXPECT_EQ(r.tokens[2].number, 700.0);
  EXPECT_EQ(r.tokens[3].number, 0.5);
  EXPECT_EQ(r.tokens[4].number, 2.0);
  EXPECT_EQ(r.tokens[5].number, 3.0);
  EXPECT_EQ(r.tokens[6].number, 10000.0);
  EXPECT_TRUE(std::isinf(r.tokens[7].number));
  EXPECT_GT(r.tokens[7].number, 0.0);
  EXPECT_EQ(r.tokens[8].number, 0.0);
  EXPECT_GT(r.tokens[9].number, 0.0);  // subnormal, not flushed
  EXPECT_LT(r.tokens[9].number, 1e-300);
  EXPECT_EQ(r.tokens[10].number, 7.0);
  EXPECT_EQ(r.tokens[11].number, 999999999999999.0);
  EXPECT_EQ(r.tokens[12].number, 9007199254740992.0);
}

TEST(LexerEdgeCases, VerticalTabAndFormFeedAreWhitespace) {
  const LexResult r = lex("h\vq\f[0];\v\n\fx q[1];");
  EXPECT_TRUE(r.diagnostics.empty());
  const auto kinds = kinds_of(r);
  const TokenKind expected[] = {
      TokenKind::kIdentifier, TokenKind::kIdentifier, TokenKind::kLBracket,
      TokenKind::kNumber,     TokenKind::kRBracket,   TokenKind::kSemicolon,
      TokenKind::kIdentifier, TokenKind::kIdentifier, TokenKind::kLBracket,
      TokenKind::kNumber,     TokenKind::kRBracket,   TokenKind::kSemicolon,
      TokenKind::kEof};
  ASSERT_EQ(kinds.size(), std::size(expected));
  for (std::size_t i = 0; i < kinds.size(); ++i) {
    EXPECT_EQ(kinds[i], expected[i]) << "token " << i;
  }
  // Each whitespace byte takes one column; only '\n' starts a line.
  EXPECT_EQ(r.tokens[1].column, 3);
  EXPECT_EQ(r.tokens[2].column, 5);
  EXPECT_EQ(r.tokens[6].line, 2);
  EXPECT_EQ(r.tokens[6].column, 2);
}

TEST(LexerEdgeCases, HighBytesAreNeitherLettersNorSpace) {
  // UTF-8 'e' with an acute accent, then bytes 0x80, 0xa0 (no-break space
  // in Latin-1) and 0xff.
  const LexResult r = lex("a\xc3\xa9" "b \x80\xa0\xff 1");
  ASSERT_EQ(r.diagnostics.size(), 5u);
  const int columns[] = {2, 3, 6, 7, 8};
  const char bytes[] = {'\xc3', '\xa9', '\x80', '\xa0', '\xff'};
  for (std::size_t i = 0; i < 5; ++i) {
    EXPECT_EQ(r.diagnostics[i].code, DiagCode::kLexError);
    EXPECT_EQ(r.diagnostics[i].column, columns[i]);
    EXPECT_EQ(r.diagnostics[i].message,
              std::string("unexpected character '") + bytes[i] + "'");
  }
  ASSERT_EQ(r.tokens.size(), 4u);
  EXPECT_EQ(r.tokens[0].text, "a");
  EXPECT_EQ(r.tokens[1].text, "b");
  EXPECT_EQ(r.tokens[1].column, 4);
  EXPECT_EQ(r.tokens[2].kind, TokenKind::kNumber);
  EXPECT_EQ(r.tokens[2].column, 10);
}

TEST(LexerEdgeCases, EveryNumberOfTheFuzzCorpusEqualsAtof) {
  std::size_t numbers = 0;
  for (int seed = 1; seed < 7; ++seed) {
    for (const std::string& source :
         testing_support::mutated_gold_sources(seed)) {
      for (const Token& token : lex(source).tokens) {
        if (token.kind != TokenKind::kNumber) continue;
        EXPECT_EQ(std::bit_cast<std::uint64_t>(token.number),
                  atof_bits(token.text))
            << token.text;
        ++numbers;
      }
    }
  }
  EXPECT_GT(numbers, 1000u);
}

TEST(DiagnosticHelpers, FormatErrorTrace) {
  std::vector<Diagnostic> diags(2);
  diags[0].code = DiagCode::kUnknownGate;
  diags[0].message = "unknown gate 'foo'";
  diags[0].line = 3;
  diags[0].column = 2;
  diags[1].severity = Severity::kWarning;
  diags[1].code = DiagCode::kUnusedQubit;
  diags[1].message = "qubit 1 unused";
  const std::string trace = format_error_trace(diags);
  EXPECT_NE(trace.find("error[unknown-gate] at line 3:2"), std::string::npos);
  EXPECT_NE(trace.find("warning[unused-qubit]"), std::string::npos);
  EXPECT_TRUE(has_errors(diags));
}

TEST(DiagnosticHelpers, SyntacticClassification) {
  EXPECT_TRUE(is_syntactic(DiagCode::kParseError));
  EXPECT_TRUE(is_syntactic(DiagCode::kDeprecatedImport));
  EXPECT_TRUE(is_syntactic(DiagCode::kWrongArity));
  EXPECT_FALSE(is_syntactic(DiagCode::kNoMeasurement));
  EXPECT_FALSE(is_syntactic(DiagCode::kUnusedQubit));
}

}  // namespace
}  // namespace qcgen::qasm
