// Expression compilation & evaluation against a RelSchema.
//
// A BoundExpr is an sql::Expr whose column references have been resolved to
// row indices once, so per-row evaluation does no name lookups.
//
// NULL semantics: comparisons involving NULL are "unknown", which predicates
// treat as false (SQL's WHERE semantics); arithmetic with NULL yields NULL;
// arithmetic on a string yields NULL and marks the expression failed (see
// status()); int64 + - * that would overflow yields the double result;
// IS NULL / IS NOT NULL observe NULLs directly; NOT(unknown) is false at the
// predicate boundary (conservative, sufficient for this dialect).
#ifndef SILKROUTE_ENGINE_EXPR_EVAL_H_
#define SILKROUTE_ENGINE_EXPR_EVAL_H_

#include <memory>
#include <vector>

#include "common/result.h"
#include "engine/rel_schema.h"
#include "relational/tuple.h"
#include "sql/ast.h"

namespace silkroute::engine {

/// Three-valued logic result for predicates.
enum class Tribool { kFalse, kTrue, kUnknown };

class BoundExpr {
 public:
  virtual ~BoundExpr() = default;

  /// Scalar evaluation (NULL-propagating).
  virtual Value Eval(const Tuple& row) const = 0;

  /// Predicate evaluation with three-valued logic.
  virtual Tribool Test(const Tuple& row) const;

  /// kInvalidArgument once any evaluation so far met arithmetic on a
  /// non-numeric value; the caller that evaluated rows checks it.
  virtual Status status() const { return Status::OK(); }
};

using BoundExprPtr = std::unique_ptr<BoundExpr>;

/// Resolves all column references in `expr` against `schema`.
Result<BoundExprPtr> BindExpr(const sql::Expr& expr, const RelSchema& schema);

/// Convenience: true iff the predicate evaluates to kTrue.
inline bool TestTrue(const BoundExpr& e, const Tuple& row) {
  return e.Test(row) == Tribool::kTrue;
}

}  // namespace silkroute::engine

#endif  // SILKROUTE_ENGINE_EXPR_EVAL_H_
