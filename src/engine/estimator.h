// CostEstimator: an EXPLAIN-style optimizer facade. Given SQL text it
// returns estimated cardinality, evaluation cost, and result width without
// executing anything. This is the "oracle" of the paper's Sec. 5: SilkRoute's
// greedy planner submits candidate queries here and combines the returned
// evaluation_cost and data_size with its own coefficients.
//
// The model is System-R-lite:
//   - base-table cardinality and per-column distinct counts come from
//     DatabaseStats;
//   - the equi-join conjuncts between two FROM items (or join sides) are
//     priced as one group: if one side's equated columns cover a key of
//     that side, each row of the other side matches at most one of its
//     rows, so the group's selectivity is 1/rows of that side (or 1/V of
//     the other side's columns, where a filter left fewer rows); otherwise
//     it is the product of 1/max(V(a), V(b)) over the conjuncts;
//   - keys are the catalog's primary keys, carried through projection,
//     joins and derived tables (a multi-core UNION has none);
//   - a literal select item is a constant column: equality with the same
//     literal has selectivity 1, with another literal or NULL 0, and its
//     distinct count is 1 (a UNION column filled with k literals has k);
//     other literal equality is 1/V; everything else 1/3;
//   - cost = sum of input scan costs + hash build/probe work + output rows,
//     plus n*log2(n)*width/64 for ORDER BY;
//   - UNION ALL adds rows and costs;
//   - LEFT OUTER JOIN keeps at least the left cardinality.
#ifndef SILKROUTE_ENGINE_ESTIMATOR_H_
#define SILKROUTE_ENGINE_ESTIMATOR_H_

#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/result.h"
#include "engine/rel_schema.h"
#include "engine/stats.h"
#include "relational/catalog.h"
#include "sql/ast.h"

namespace silkroute::engine {

struct QueryEstimate {
  double rows = 0;
  double cost = 0;         // abstract work units (~value operations)
  double width_bytes = 0;  // average serialized row width

  /// The paper's data_size(q) = f(|attrs(q)| * cardinality(q)).
  double data_size() const { return rows * width_bytes; }
};

/// The planner-facing oracle abstraction: anything that can price a SQL
/// text. The CostEstimator below, the paper's oracle, implements it.
class CostOracle {
 public:
  virtual ~CostOracle() = default;
  virtual Result<QueryEstimate> EstimateSql(std::string_view sql) = 0;
};

class CostEstimator : public CostOracle {
 public:
  CostEstimator(const Catalog* catalog, const DatabaseStats* stats)
      : catalog_(catalog), stats_(stats) {}

  /// Parses and estimates; increments the request counter (the quantity the
  /// paper reports in Sec. 5.1).
  Result<QueryEstimate> EstimateSql(std::string_view sql) override;

  Result<QueryEstimate> Estimate(const sql::Query& query);

  size_t num_requests() const { return num_requests_; }
  void ResetRequestCount() { num_requests_ = 0; }

 private:
  /// Column provenance: which base table/column an output column came from,
  /// if traceable; nullopt for computed columns.
  using Provenance = std::optional<std::pair<std::string, std::string>>;

  struct EstRel {
    double rows = 0;
    double cost = 0;
    double width = 0;
    RelSchema schema;
    std::vector<Provenance> prov;
    /// Per column: the literals of the select items that fill it, if every
    /// core fills it with one (one literal: a constant column); else empty.
    /// Points into the estimated query's AST.
    std::vector<std::vector<const Value*>> literals;
    /// Column sets the relation is unique on.
    std::vector<std::vector<size_t>> keys;
  };

  Result<EstRel> EstimateQueryRel(const sql::Query& query);
  Result<EstRel> EstimateCore(const sql::SelectCore& core);
  Result<EstRel> EstimateTableRef(const sql::TableRef& ref);

  /// Joins `sides` (FROM items, or the two sides of a JOIN) under the
  /// conjuncts of `pred` (null: a cross product). A left outer join keeps
  /// every row of sides[0].
  EstRel Join(std::vector<EstRel> sides, const sql::Expr* pred,
              bool left_outer) const;

  /// Selectivity of a predicate over `rel` (provenance-aware).
  double Selectivity(const sql::Expr& pred, const EstRel& rel) const;

  /// The literals `expr` takes over `rel`: itself, if it is one; empty if
  /// it is not a literal column.
  std::vector<const Value*> LiteralsOf(const sql::Expr& expr,
                                       const EstRel& rel) const;
  double DistinctOf(const EstRel& rel, const sql::Expr& expr) const;
  double DistinctAt(const EstRel& rel, size_t column) const;
  double WidthOf(const EstRel& rel, size_t column) const;

  const Catalog* catalog_;
  const DatabaseStats* stats_;
  size_t num_requests_ = 0;
};

}  // namespace silkroute::engine

#endif  // SILKROUTE_ENGINE_ESTIMATOR_H_
