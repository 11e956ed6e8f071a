// QueryExecutor: executes a sql::Query against a Database and materializes
// the result. The physical plan is derived with textbook heuristics:
//
//  - comma-separated FROM lists are joined greedily along equijoin conjuncts
//    extracted from WHERE (hash joins), single-table conjuncts are pushed
//    down, the remainder is a residual filter;
//  - explicit JOIN ... ON uses a hash join when the ON condition is a
//    conjunction containing column equalities, a *disjunctive hash join*
//    when it is an OR of such conjunctions (the shape SilkRoute's unified
//    outer-join queries produce), and a nested loop otherwise;
//  - UNION ALL concatenates; ORDER BY sorts the materialized result.
#ifndef SILKROUTE_ENGINE_EXECUTOR_H_
#define SILKROUTE_ENGINE_EXECUTOR_H_

#include <chrono>
#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/cancel.h"
#include "common/result.h"
#include "engine/rel_schema.h"
#include "obs/metrics.h"
#include "relational/database.h"
#include "relational/tuple.h"
#include "sql/ast.h"

namespace silkroute::engine {

class BoundExpr;

/// A materialized intermediate or final relation.
struct Relation {
  RelSchema schema;
  std::vector<Tuple> rows;

  size_t ByteSize() const {
    size_t total = 0;
    for (const auto& r : rows) total += r.ByteSize();
    return total;
  }
};

/// Counters the executor accumulates across one query.
struct ExecStats {
  uint64_t rows_scanned = 0;      // base-table rows read
  uint64_t rows_joined = 0;       // rows emitted by join operators
  uint64_t rows_sorted = 0;       // rows passed through ORDER BY
  uint64_t nested_loop_joins = 0; // fallback joins taken (should be rare)
  uint64_t hash_joins = 0;
  uint64_t keys_encoded = 0;      // packed keys built (join/sort/distinct)
  uint64_t bytes_encoded = 0;     // bytes of packed-key encoding produced
};

/// Abstract connection to the target RDBMS: one ExecuteSql call per
/// component query. The middle-ware's fault-tolerance stack is built from
/// implementations of this interface — QueryExecutor / DatabaseExecutor at
/// the bottom, FaultInjectingExecutor (fault_injection.h) simulating an
/// unreliable wire, ResilientExecutor (resilient_executor.h) adding retries
/// on top.
class SqlExecutor {
 public:
  virtual ~SqlExecutor() = default;

  virtual Result<Relation> ExecuteSql(std::string_view sql) = 0;

  /// Wall-clock cap per ExecuteSql call in milliseconds (the paper capped
  /// each sub-query at five minutes); exceeding it yields kTimeout.
  /// 0 disables.
  virtual void set_timeout_ms(double timeout_ms) = 0;

  /// Executes with an explicit per-call deadline instead of mutating
  /// executor state, so one executor can serve concurrent callers with
  /// different deadlines (the set_timeout_ms / ExecuteSql pair races when
  /// shared). The default shims onto the stateful pair and is therefore
  /// only single-thread safe; every executor meant to be shared across
  /// service workers overrides it.
  virtual Result<Relation> ExecuteSqlWithDeadline(std::string_view sql,
                                                  double timeout_ms) {
    set_timeout_ms(timeout_ms);
    return ExecuteSql(sql);
  }

  /// Executes with a per-call deadline and a cooperative per-call cancel
  /// token: cancelling it abandons *this call only*, leaving the executor
  /// usable — how a hedged race cancels its loser (net/replica_set.h). The
  /// default ignores the token, which is correct for executors whose calls
  /// are short and local; transports that can block on a dead peer
  /// override it.
  virtual Result<Relation> ExecuteSqlCancellable(std::string_view sql,
                                                 double timeout_ms,
                                                 CancelToken* cancel) {
    (void)cancel;
    return ExecuteSqlWithDeadline(sql, timeout_ms);
  }

  /// Load/health hint for routers above: false means the executor knows a
  /// call would fail fast right now (e.g. every replica of a replica set
  /// is ejected), so the caller may skip it without charging the failure
  /// to its own breakers. Must be cheap and side-effect-free; the default
  /// is always-healthy.
  virtual bool Healthy() const { return true; }

  /// Current version counters of `tables` (sorted by name on return) —
  /// the freshness half of every result-cache key (engine/result_cache.h,
  /// relational/table.h). The publisher fetches one vector per publish,
  /// before executing any component query, so a concurrent writer can
  /// only make entries conservatively stale (a future miss), never
  /// wrongly fresh. The default declines — an executor that cannot vouch
  /// for versions (e.g. a legacy remote peer) disables caching rather
  /// than serving stale documents. Must be thread-safe in executors meant
  /// to be shared across service workers.
  virtual Result<std::vector<std::pair<std::string, uint64_t>>>
  FetchTableVersions(const std::vector<std::string>& tables) {
    (void)tables;
    return Status::Unimplemented("table versions not supported");
  }
};

class QueryExecutor : public SqlExecutor {
 public:
  explicit QueryExecutor(const Database* db) : db_(db) {}

  /// Executes a parsed query.
  Result<Relation> Execute(const sql::Query& query);

  /// Parses and executes SQL text (the middle-ware entry point). The
  /// deadline is re-armed on every call: the timeout caps one query, not
  /// the lifetime of the executor.
  Result<Relation> ExecuteSql(std::string_view sql) override;

  void set_timeout_ms(double timeout_ms) override { timeout_ms_ = timeout_ms; }

  const ExecStats& stats() const { return stats_; }
  void ResetStats() { stats_ = ExecStats(); }

 private:
  /// What an operator reads: owned rows, or a base table read in place by
  /// row id — every row, or only the ascending ids in `selection`. Base
  /// tables are never copied into an intermediate: joins, projection, and
  /// ORDER BY read their cells straight from the table's columns.
  struct Input {
    Input() = default;
    explicit Input(Relation owned) : rel(std::move(owned)) {}

    Relation rel;  // schema always; rows only when owned (table == nullptr)
    const Table* table = nullptr;
    std::optional<std::vector<uint32_t>> selection;
    /// The borrowed table's columns the query reads at all; the rest build
    /// as NULL in AppendRow, so wide join rows never copy cells nothing
    /// looks at. Empty: every column.
    std::vector<bool> read_columns;
    /// The rows already carry the select list's values (the final join fused
    /// with the projection, see JoinFromList); `rel.schema` still describes
    /// the wide join shape the select items bind against.
    bool projected = false;

    size_t size() const;
    size_t RowId(size_t i) const { return selection ? (*selection)[i] : i; }
    /// Cell (i, c), representation-exact.
    Value Cell(size_t i, size_t c) const;
    /// Appends every cell of row i to `out`.
    void AppendRow(size_t i, Tuple* out) const;
    /// Row i: a reference to the owned row, or `scratch` filled from the
    /// table's columns.
    const Tuple& RowRef(size_t i, Tuple* scratch) const;
    /// Row i by value; moves an owned row out.
    Tuple TakeRow(size_t i);
    /// Join key of row i (EncodeJoinKey's contract: false on a NULL key).
    bool EncodeKey(size_t i, const std::vector<size_t>& cols,
                   std::string* out) const;
    /// Appends the sort-key encoding of cell (i, c).
    void EncodeCell(size_t i, size_t c, bool descending,
                    std::string* out) const;
  };

  /// One SELECT core's output plus, when it exists, the core's input aligned
  /// 1:1 with the output rows, so ORDER BY can reference non-projected
  /// columns. There is none after DISTINCT, after fusion, or for SELECT *
  /// (whose output already holds every input column).
  struct CoreResult {
    Relation output;
    std::optional<Input> aligned_input;
  };

  /// `order_by` is the enclosing query's: its keys may read the core's
  /// input, and its absence permits fusion (see JoinFromList).
  Result<CoreResult> ExecuteCore(const sql::SelectCore& core,
                                 const std::vector<sql::OrderItem>& order_by);
  Result<Relation> EvalTableRef(const sql::TableRef& ref);
  Result<Relation> EvalJoin(const sql::JoinRef& join);
  Result<Relation> JoinRelations(sql::JoinType type, Relation left,
                                 Relation right, const sql::Expr& on);
  Result<Relation> HashJoin(sql::JoinType type, const Input& left,
                            const Input& right,
                            const std::vector<std::pair<size_t, size_t>>& keys,
                            const sql::Expr* residual);
  Result<Relation> DisjunctiveHashJoin(sql::JoinType type, Relation& left,
                                       Relation& right, const sql::Expr& on);
  Result<Relation> NestedLoopJoin(sql::JoinType type, Relation& left,
                                  Relation& right, const sql::Expr& on);
  /// Joins the FROM list. When it reduces to one base-table scan, the
  /// result borrows the table (plus the selection its filters left) instead
  /// of copying it.
  ///
  /// When there is no ORDER BY (which may read the aligned input), the
  /// select list is all column refs, and no residual predicate survives the
  /// joins, the final greedy join emits row-id pairs and the projection is
  /// applied straight off the input rows: the wide concatenated tuples are
  /// never built. The result is then `projected` and its rows carry the
  /// select list's values.
  Result<Input> JoinFromList(const sql::SelectCore& core,
                             const std::vector<sql::OrderItem>& order_by);
  /// Inner hash join emitting (left row, right row) index pairs in the same
  /// order HashJoin would emit rows, without materializing output tuples.
  Result<std::vector<std::pair<uint32_t, uint32_t>>> HashJoinPairs(
      const Input& left, const Input& right,
      const std::vector<std::pair<size_t, size_t>>& keys);
  /// Scans the base table behind `in` with its pushed-down filters,
  /// leaving the ascending ids of the surviving rows in `in->selection`.
  /// Column-vs-literal filters evaluate straight off the typed column
  /// arrays; any other shape tests each materialized row.
  Status ScanBaseTable(const std::vector<const sql::Expr*>& filters,
                       Input* in);
  /// Sorts `result`. `aligned` (nullable) is the input aligned 1:1 with
  /// the result rows, which keys outside the select list resolve against.
  Status ApplyOrderBy(const sql::Query& query, const Input* aligned,
                      Relation* result);

  Status CheckDeadline() const;

  const Database* db_;
  ExecStats stats_;
  double timeout_ms_ = 0;
  std::chrono::steady_clock::time_point deadline_{};
  bool has_deadline_ = false;
};

/// SqlExecutor over a local Database: a fresh QueryExecutor per call, so
/// per-query state (deadline, stats) can never leak across component
/// queries of a plan. ExecuteSqlWithDeadline is fully thread-safe (the
/// database is read-only during publishing); the stateful pair remains
/// single-thread only.
class DatabaseExecutor : public SqlExecutor {
 public:
  explicit DatabaseExecutor(const Database* db) : db_(db) {}

  Result<Relation> ExecuteSql(std::string_view sql) override {
    return ExecuteSqlWithDeadline(sql, timeout_ms_);
  }

  Result<Relation> ExecuteSqlWithDeadline(std::string_view sql,
                                          double timeout_ms) override {
    QueryExecutor executor(db_);
    if (timeout_ms > 0) executor.set_timeout_ms(timeout_ms);
    auto result = executor.ExecuteSql(sql);
    const ExecStats& s = executor.stats();
    if (keys_encoded_counter_ != nullptr && s.keys_encoded > 0) {
      keys_encoded_counter_->Add(s.keys_encoded);
      key_bytes_counter_->Add(s.bytes_encoded);
    }
    {
      std::lock_guard<std::mutex> lock(stats_mu_);
      stats_ = s;
    }
    return result;
  }

  void set_timeout_ms(double timeout_ms) override { timeout_ms_ = timeout_ms; }

  /// Local tables answer version fetches directly (Table::version() is an
  /// atomic read; thread-safe against concurrent queries).
  Result<std::vector<std::pair<std::string, uint64_t>>> FetchTableVersions(
      const std::vector<std::string>& tables) override;

  /// Mirrors cumulative packed-key counters into `registry` (nullable to
  /// turn accounting off). Counters are resolved here once; the per-query
  /// hot path then pays only relaxed atomic adds.
  void set_metrics_registry(obs::MetricsRegistry* registry) {
    keys_encoded_counter_ =
        registry != nullptr
            ? registry->counter("silkroute_engine_keys_encoded_total")
            : nullptr;
    key_bytes_counter_ =
        registry != nullptr
            ? registry->counter("silkroute_engine_key_bytes_encoded_total")
            : nullptr;
  }

  /// Stats of the most recent query (last writer wins under concurrency).
  ExecStats stats() const {
    std::lock_guard<std::mutex> lock(stats_mu_);
    return stats_;
  }

 private:
  const Database* db_;
  double timeout_ms_ = 0;
  // Wired before publishing starts (set_metrics_registry is not safe to
  // race with in-flight ExecuteSql calls).
  obs::Counter* keys_encoded_counter_ = nullptr;
  obs::Counter* key_bytes_counter_ = nullptr;
  mutable std::mutex stats_mu_;
  ExecStats stats_;
};

}  // namespace silkroute::engine

#endif  // SILKROUTE_ENGINE_EXECUTOR_H_
