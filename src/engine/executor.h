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
  uint64_t index_probes = 0;      // rows fetched through a secondary index
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
  /// `allow_fusion` permits the final greedy join to skip materializing its
  /// wide output (see JoinFromList); the caller clears it when ORDER BY may
  /// need the aligned pre-projection rows.
  Result<Relation> ExecuteCore(const sql::SelectCore& core, bool allow_fusion);
  Result<Relation> EvalTableRef(const sql::TableRef& ref);
  Result<Relation> EvalJoin(const sql::JoinRef& join);
  Result<Relation> JoinRelations(sql::JoinType type, Relation left,
                                 Relation right, const sql::Expr& on);
  /// `left_table` / `right_table`, when non-null, are the base tables
  /// whose rows() the corresponding row span borrows (borrowed scans in
  /// JoinFromList): join keys for that side are then encoded straight
  /// from the table's columnar shards (EncodeTableJoinKey), byte-identical
  /// to the row path, so probes, chains, and stats never change.
  Result<Relation> HashJoin(sql::JoinType type, const RelSchema& left_schema,
                            const std::vector<Tuple>& left_rows,
                            const RelSchema& right_schema,
                            const std::vector<Tuple>& right_rows,
                            const std::vector<std::pair<size_t, size_t>>& keys,
                            const sql::Expr* residual,
                            const Table* left_table = nullptr,
                            const Table* right_table = nullptr);
  Result<Relation> DisjunctiveHashJoin(sql::JoinType type, Relation& left,
                                       Relation& right, const sql::Expr& on);
  Result<Relation> NestedLoopJoin(sql::JoinType type, Relation& left,
                                  Relation& right, const sql::Expr& on);
  /// Returns the joined relation. When the whole FROM list reduces to one
  /// unfiltered base-table scan, the returned relation's `rows` stay empty
  /// and `*borrowed_rows` points at the table's own rows instead (stable
  /// for the executor's lifetime — the database outlives the query), so
  /// single-table queries never copy the table. Otherwise `*borrowed_rows`
  /// is null and the rows are owned as usual. `*borrowed_table` is the
  /// table behind `*borrowed_rows` when that table's columnar layout is
  /// exact (Table::columnar_exact) — downstream operators may then read
  /// cells straight from its shards; null otherwise.
  ///
  /// When `allow_fusion` is set, the select list is all column refs, and no
  /// residual predicate survives the joins, the final greedy join emits
  /// row-id pairs and the projection is applied straight off the input
  /// rows: the wide concatenated tuples are never built. In that case
  /// `*fused` is set and the returned rows carry the *projected* values in
  /// select-list order (while `schema` still describes the wide shape for
  /// expression binding).
  Result<Relation> JoinFromList(const sql::SelectCore& core, bool allow_fusion,
                                const std::vector<Tuple>** borrowed_rows,
                                const Table** borrowed_table, bool* fused);
  /// Inner hash join emitting (left row id, right row id) pairs in the same
  /// order HashJoin would emit rows, without materializing output tuples.
  Result<std::vector<std::pair<uint32_t, uint32_t>>> HashJoinPairs(
      const std::vector<Tuple>& left_rows, const std::vector<Tuple>& right_rows,
      const std::vector<std::pair<size_t, size_t>>& keys,
      const Table* left_table = nullptr, const Table* right_table = nullptr);
  Status MaterializeBaseTable(const Table& table,
                              const std::vector<const sql::Expr*>& filters,
                              Relation* out);
  /// Columnar filtered scan that defers row materialization: when the table's
  /// columnar layout is exact, no index probe applies, and every filter
  /// compiles to a column-vs-literal predicate, evaluates the predicates over
  /// the shards and records the surviving global row ids (ascending) in
  /// `scan_selection_`, setting `scan_selection_active_`. Returns true when
  /// the selection path ran; false means the caller must materialize rows
  /// the usual way. Callers that keep the selection borrow the table's rows
  /// and let the projection gather survivor cells straight from the shards —
  /// the full-width survivor tuples are never copied.
  Result<bool> TryColumnarSelectionScan(
      const Table& table, const std::vector<const sql::Expr*>& filters,
      const RelSchema& schema);
  Status ApplyOrderBy(const sql::Query& query,
                      const RelSchema& preproj_schema,
                      const std::vector<Tuple>& preproj_rows,
                      Relation* result);

  Status CheckDeadline() const;

  const Database* db_;
  ExecStats stats_;
  double timeout_ms_ = 0;
  std::chrono::steady_clock::time_point deadline_{};
  bool has_deadline_ = false;

  // Rows of the pre-projection relation aligned 1:1 with the latest core's
  // output rows, so ORDER BY can reference non-projected columns.
  // last_preprojection_rows_ points at last_preprojection_.rows when owned,
  // or straight at a base table's rows when the scan was borrowed; null
  // when no aligned pre-projection exists.
  Relation last_preprojection_;
  const std::vector<Tuple>* last_preprojection_rows_ = nullptr;

  // Survivor global row ids produced by TryColumnarSelectionScan for the
  // current core, valid only while scan_selection_active_ is set. ExecuteCore
  // consumes (moves) the vector immediately after JoinFromList returns, so
  // recursive cores (derived tables) can never observe a stale selection.
  std::vector<uint32_t> scan_selection_;
  bool scan_selection_active_ = false;
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
