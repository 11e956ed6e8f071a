#include "sql/lexer.h"

#include <cctype>

#include "common/string_util.h"
#include "sql/parser.h"

namespace silkroute::sql {

bool IsSqlKeyword(std::string_view w) {
  static const char* const kKeywords[] = {
      "select", "from", "where",  "and",   "or",    "not",  "as",    "on",
      "join",   "left", "outer",  "inner", "union", "all",  "order", "by",
      "asc",    "desc", "null",   "is",    "distinct",
  };
  for (const char* kw : kKeywords) {
    if (w == kw) return true;
  }
  return false;
}

Result<std::vector<Token>> Tokenize(std::string_view input) {
  std::vector<Token> tokens;
  size_t i = 0;
  const size_t n = input.size();
  while (i < n) {
    char c = input[i];
    if (std::isspace(static_cast<unsigned char>(c))) {
      ++i;
      continue;
    }
    // `--` line comments (standard SQL).
    if (c == '-' && i + 1 < n && input[i + 1] == '-') {
      while (i < n && input[i] != '\n') ++i;
      continue;
    }
    if (tokens.size() == kMaxTokens) {
      return Status::InvalidArgument(
          "SQL text exceeds the limit of " + std::to_string(kMaxTokens) +
          " tokens at offset " + std::to_string(i));
    }
    size_t start = i;
    if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
      while (i < n && (std::isalnum(static_cast<unsigned char>(input[i])) ||
                       input[i] == '_')) {
        ++i;
      }
      std::string word(input.substr(start, i - start));
      std::string lower = ToLower(word);
      if (IsSqlKeyword(lower)) {
        tokens.push_back({TokenType::kKeyword, std::move(lower), start});
      } else {
        tokens.push_back({TokenType::kIdentifier, std::move(word), start});
      }
      continue;
    }
    if (std::isdigit(static_cast<unsigned char>(c))) {
      bool is_float = false;
      while (i < n && std::isdigit(static_cast<unsigned char>(input[i]))) ++i;
      if (i + 1 < n && input[i] == '.' &&
          std::isdigit(static_cast<unsigned char>(input[i + 1]))) {
        is_float = true;
        ++i;
        while (i < n && std::isdigit(static_cast<unsigned char>(input[i]))) {
          ++i;
        }
      }
      tokens.push_back({is_float ? TokenType::kFloat : TokenType::kInteger,
                        std::string(input.substr(start, i - start)), start});
      continue;
    }
    if (c == '\'') {
      std::string contents;
      ++i;
      bool closed = false;
      while (i < n) {
        if (input[i] == '\'') {
          if (i + 1 < n && input[i + 1] == '\'') {  // escaped quote
            contents.push_back('\'');
            i += 2;
            continue;
          }
          closed = true;
          ++i;
          break;
        }
        contents.push_back(input[i]);
        ++i;
      }
      if (!closed) {
        return Status::ParseError("unterminated string literal at offset " +
                                  std::to_string(start));
      }
      tokens.push_back({TokenType::kString, std::move(contents), start});
      continue;
    }
    // Two-character symbols first.
    if (i + 1 < n) {
      std::string_view two = input.substr(i, 2);
      if (two == "<>" || two == "<=" || two == ">=" || two == "!=") {
        tokens.push_back(
            {TokenType::kSymbol, two == "!=" ? "<>" : std::string(two), start});
        i += 2;
        continue;
      }
    }
    switch (c) {
      case '=':
      case '<':
      case '>':
      case '(':
      case ')':
      case ',':
      case '.':
      case '+':
      case '-':
      case ';':
      case '*':
      case '/':
        tokens.push_back({TokenType::kSymbol, std::string(1, c), start});
        ++i;
        break;
      default:
        return Status::ParseError("unexpected character '" +
                                  std::string(1, c) + "' at offset " +
                                  std::to_string(start));
    }
  }
  tokens.push_back({TokenType::kEnd, "", n});
  return tokens;
}

}  // namespace silkroute::sql
