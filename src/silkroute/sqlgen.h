// SQL generation (paper Sec. 3.4): translates one partition component into
// one SQL query over the target database, in either of the two plan shapes
// the paper distinguishes:
//
//  - kOuterJoin (SilkRoute's default): the sub-query for a node is combined
//    with the union of its children's sub-queries by a LEFT OUTER JOIN —
//    (R leftjoin (S union T)). Produces fewer, wider tuples.
//  - kOuterUnion (Shanmugasundaram et al. [9]): one SELECT per node, outer
//    unioned — (R leftjoin S) union (R leftjoin T), which with our Skolem
//    columns degenerates to a plain UNION ALL of per-node selects. Produces
//    more, narrower tuples.
//
// Every query projects the component's uniform column list — label columns
// L1..Lmax and Skolem-variable columns v<p>_<q> — and sorts by the global
// interleaved key (L1, identity vars of level 1, L2, ...), so the tagger
// can merge streams in constant space.
//
// A StreamSpec also carries InstanceSpecs: how to recognize, order, and
// deduplicate the node instances contained in each result row.
#ifndef SILKROUTE_SILKROUTE_SQLGEN_H_
#define SILKROUTE_SILKROUTE_SQLGEN_H_

#include <string>
#include <vector>

#include "common/result.h"
#include "silkroute/partition.h"
#include "silkroute/view_tree.h"
#include "sql/ast.h"

namespace silkroute::core {

enum class SqlGenStyle {
  kOuterJoin,
  kOuterUnion,
};

const char* SqlGenStyleToString(SqlGenStyle style);

/// How the tagger recognizes one node's instances in a stream row.
struct InstanceSpec {
  int node_id = -1;
  std::vector<int> path_labels;  // the node's SFI

  /// (level, expected label): the row's L<level> column must be non-NULL
  /// and equal. Levels deeper than the node's execution-class head carry no
  /// checks (reduced 1-children exist whenever their head does).
  std::vector<std::pair<int, int>> label_checks;

  /// Levels whose label column must be NULL. Outer-union streams partition
  /// rows by class, and a class's rows are exactly those whose labels match
  /// to the head's level and are NULL below it; without this, rows of a
  /// deeper class would be mistaken for instances of a shallower one.
  std::vector<int> null_levels;

  /// Identity variables that participate in this instance's logical sort /
  /// dedup key (read from the row; all other key positions are NULL).
  std::vector<VarIndex> key_vars;

  /// True for fused nodes: equal-key rows from different rules merge into
  /// one element, appending each row's values instead of deduplicating.
  bool fused = false;
};

struct StreamSpec {
  std::string sql;                   // final SQL text, with ORDER BY
  std::vector<int> covered_nodes;    // ascending node ids
  std::vector<InstanceSpec> instances;  // document order
  /// Backend tables the component introduces (ComponentTables, source.h):
  /// its circuit-breaker keys and cache-key version set. Filled by the
  /// publisher once per prepared plan; empty straight from the generator.
  std::vector<std::string> tables;
  /// Result-cache fragment key (publisher, DESIGN.md §15): packed from the
  /// normalized SQL and the versions of the tables the component names.
  /// Empty = uncacheable (version fetch failed, cache off, or a degraded
  /// replacement query minted mid-plan, after the version snapshot).
  std::string cache_key;
};

class SqlGenerator {
 public:
  SqlGenerator(const ViewTree* tree, SqlGenStyle style, bool reduce,
               bool distinct_selects = false)
      : tree_(tree),
        style_(style),
        reduce_(reduce),
        distinct_selects_(distinct_selects) {}

  /// Generates the SQL and tagging metadata for one component (a connected
  /// set of view-tree node ids, ascending).
  Result<StreamSpec> GenerateComponent(const std::vector<int>& nodes) const;

  /// Generates all streams of a partition, ordered by component root.
  Result<std::vector<StreamSpec>> GeneratePlan(const Partition& plan) const;

 private:
  struct ColumnList;

  Result<sql::SelectCore> BuildClassCore(const ExecComponent& exec,
                                         const ExecNode& cls,
                                         const ColumnList& columns) const;
  /// One core per datalog rule: a single core for ordinary classes, one per
  /// occurrence for fused nodes.
  Result<std::vector<sql::SelectCore>> BuildClassCores(
      const ExecComponent& exec, const ExecNode& cls,
      const ColumnList& columns) const;
  Result<sql::QueryPtr> BuildJoinQuery(const ExecComponent& exec,
                                       size_t class_index,
                                       const ColumnList& columns) const;
  void AddOrderBy(const ColumnList& columns, sql::Query* query) const;

  const ViewTree* tree_;
  SqlGenStyle style_;
  bool reduce_;
  /// Emit SELECT DISTINCT in per-class sub-selects: enforces the datalog
  /// rules' set semantics at the server instead of relying on the tagger's
  /// duplicate suppression. Costs a hashing pass per sub-select; useful
  /// when explicit Skolem terms project away key columns.
  bool distinct_selects_;
};

}  // namespace silkroute::core

#endif  // SILKROUTE_SILKROUTE_SQLGEN_H_
