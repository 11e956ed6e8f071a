// SQL tokenizer. Keywords are case-insensitive; identifiers keep their case.
#ifndef SILKROUTE_SQL_LEXER_H_
#define SILKROUTE_SQL_LEXER_H_

#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "common/status.h"

namespace silkroute::sql {

enum class TokenType {
  kIdentifier,
  kKeyword,   // normalized to lowercase in `text`
  kInteger,
  kFloat,
  kString,    // contents without quotes, '' unescaped
  kSymbol,    // one of: = <> < <= > >= ( ) , . + - * /
  kEnd,
};

struct Token {
  TokenType type = TokenType::kEnd;
  std::string text;
  size_t offset = 0;  // byte offset in the input, for error messages

  bool IsKeyword(std::string_view kw) const {
    return type == TokenType::kKeyword && text == kw;
  }
  bool IsSymbol(std::string_view s) const {
    return type == TokenType::kSymbol && text == s;
  }
};

/// Tokenizes `input`; the final token is always kEnd. Input of more than
/// kMaxTokens tokens (sql/parser.h) is kInvalidArgument, refused before
/// the vector grows past them.
Result<std::vector<Token>> Tokenize(std::string_view input);

/// True if `word` (lowercased) is a reserved SQL keyword of this dialect.
bool IsSqlKeyword(std::string_view lowercased);

}  // namespace silkroute::sql

#endif  // SILKROUTE_SQL_LEXER_H_
