// RXL parser: character-level recursive descent, since the construct clause
// embeds XML-template syntax inside the query language.
#ifndef SILKROUTE_RXL_PARSER_H_
#define SILKROUTE_RXL_PARSER_H_

#include <cstddef>
#include <string_view>

#include "common/result.h"
#include "rxl/ast.h"

namespace silkroute::rxl {

/// The nesting budget: each element and each nested block holds one level
/// while it parses. Deeper input is kInvalidArgument, so hostile text
/// cannot exhaust the stack.
inline constexpr size_t kMaxNestingDepth = 256;

/// Parses an RXL view query.
Result<RxlQuery> ParseRxl(std::string_view text);

}  // namespace silkroute::rxl

#endif  // SILKROUTE_RXL_PARSER_H_
