// Recursive-descent parser for the SQL subset (see ast.h).
#ifndef SILKROUTE_SQL_PARSER_H_
#define SILKROUTE_SQL_PARSER_H_

#include <cstddef>
#include <string_view>

#include "common/result.h"
#include "sql/ast.h"

namespace silkroute::sql {

/// The nesting budget: a parenthesized expression, a unary operator (NOT,
/// unary minus), a derived table, a parenthesized join or a parenthesized
/// UNION operand each holds one level while it parses. Deeper input is
/// kInvalidArgument, so hostile text cannot exhaust the stack.
inline constexpr size_t kMaxNestingDepth = 256;

/// The height budget of the tree a query parses into: a chain of binary
/// operators (AND, OR, comparison, +, -, *, /) is built left-deep, so each
/// operand stacks one level on the ones before it, as does NOT, unary
/// minus, IS NULL and each JOIN of a join chain. A derived table stands one
/// level above the tallest tree of its query (select list, FROM, WHERE,
/// ORDER BY), so chains nested in derived tables add up. A taller tree is
/// kInvalidArgument, so the recursive destructor and every walker over the
/// parsed tree stay within the stack.
inline constexpr size_t kMaxTreeHeight = 1024;

/// The token budget of one SQL text (DDL included), checked while it is
/// lexed: 1,024 tokens per level of kMaxTreeHeight, 2^20 in all. Text far
/// past the other budgets (10^5 nested derived tables, 10^5 `or a = 1`
/// terms) still reaches the parser and gets its error, while the token
/// vector stays near 50 MB (48 bytes a token) whatever the text's length;
/// the largest component genPlan writes for Query 1 or Query 2 is about
/// 2,000 tokens. Longer text is kInvalidArgument.
inline constexpr size_t kMaxTokens = 1024 * kMaxTreeHeight;

/// Parses a complete query (SELECT ... [UNION ALL ...] [ORDER BY ...]).
/// Fails if trailing tokens remain.
Result<QueryPtr> ParseQuery(std::string_view sql);

/// Parses a standalone scalar/boolean expression (used by tests).
Result<ExprPtr> ParseExpression(std::string_view text);

}  // namespace silkroute::sql

#endif  // SILKROUTE_SQL_PARSER_H_
