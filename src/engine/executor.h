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
//  - UNION ALL concatenates; ORDER BY sorts a permutation of row ids.
//
// Intermediates are row-id batches over borrowed base tables; a derived
// table that is one SELECT core without ORDER BY is inlined into its
// parent's batch, any other is an owned result. The result is handed over
// as Rows, the batch itself: binding serializes it straight from the
// typed columns, and only a caller that asks for a Relation gets result
// cells built, once, in final order.
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
class Rows;

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
  uint64_t cells_materialized = 0;  // Values built into Relations: a
                                    // result asked for as one, and derived
                                    // tables that materialize
  uint64_t nested_loop_joins = 0; // fallback joins taken (should be rare)
  uint64_t hash_joins = 0;
  uint64_t keys_encoded = 0;      // keys built (join/sort/distinct)
  uint64_t bytes_encoded = 0;     // bytes of key encoding produced (a join
                                  // or sort key counts 8 per word)
  uint64_t keys_verified = 0;     // join candidates whose words matched but
                                  // whose codec segments had to be compared
  uint64_t sorts_in_order = 0;    // ORDER BYs whose input was already in
                                  // key order, so no comparison sort ran
  uint64_t sorts_on_bytes = 0;    // ORDER BYs keyed on codec bytes (a string,
                                  // a magnitude >= 2^53 or a computed key),
                                  // not words
};

/// Abstract connection to the target RDBMS: one call per component query,
/// ExecuteRows on the publish path. The middle-ware's fault-tolerance
/// stack is built from implementations of this interface — QueryExecutor /
/// DatabaseExecutor at the bottom, FaultInjectingExecutor
/// (fault_injection.h) simulating an unreliable wire, ResilientExecutor
/// (resilient_executor.h) adding retries on top.
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

  /// ExecuteSqlCancellable, handing the result over as Rows for the bind
  /// step to serialize (DESIGN.md §10 "Handing over results"). The default
  /// wraps ExecuteSqlCancellable's Relation; an executor over a local
  /// engine overrides it to hand over the engine's batch, building no
  /// result cell.
  virtual Result<Rows> ExecuteRows(std::string_view sql, double timeout_ms,
                                   CancelToken* cancel);

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

  /// Executes a parsed query. The Rows borrow the database's tables, not
  /// the query or this executor.
  Result<Rows> Execute(const sql::Query& query);

  /// Parses and executes SQL text (the middle-ware entry point). The
  /// deadline is re-armed on every call: the timeout caps one query, not
  /// the lifetime of the executor.
  Result<Relation> ExecuteSql(std::string_view sql) override;

  /// ExecuteSql under `timeout_ms`, handing over the batch: no result cell
  /// is built. The cancel token is ignored, as by every local call.
  Result<Rows> ExecuteRows(std::string_view sql, double timeout_ms,
                           CancelToken* cancel) override;

  void set_timeout_ms(double timeout_ms) override { timeout_ms_ = timeout_ms; }

  const ExecStats& stats() const { return stats_; }
  void ResetStats() { stats_ = ExecStats(); }

 private:
  friend class Rows;
  // Defined in executor.cc (DESIGN.md §10).
  struct Input;    // a row-id batch: the only intermediate
  class RowExprs;  // expressions evaluated over batch rows
  struct Core;     // one SELECT core, joined but not yet projected

  /// Parses and executes `sql` with a freshly armed deadline.
  Result<Rows> ParseAndExecute(std::string_view sql);
  /// Annotates the current span, if any, with this query's counters.
  void AnnotateSpan(size_t result_rows) const;
  /// Builds `rows` as a Relation, counting its cells.
  Relation Materialize(Rows rows);

  /// Joins and filters the core's FROM list, resolves its select items,
  /// and applies DISTINCT. No result cell is built yet.
  Result<Core> ExecuteCore(const sql::SelectCore& select);
  Result<Input> EvalTableRef(const sql::TableRef& ref);
  Result<Input> EvalJoin(const sql::JoinRef& join);
  /// Equi-join of `left` (probe) and `right` (build): `probe_only`
  /// conjuncts gate which probe rows may match, `residual` ones test each
  /// candidate pair. Rows come out in probe order, then ascending build
  /// row; an unmatched probe row of an outer join pads with NULLs.
  Result<Input> HashJoin(sql::JoinType type, const Input& left,
                         const Input& right,
                         const std::vector<std::pair<size_t, size_t>>& keys,
                         const std::vector<const sql::Expr*>& probe_only,
                         const std::vector<const sql::Expr*>& residual);
  Result<Input> DisjunctiveHashJoin(sql::JoinType type, const Input& left,
                                    const Input& right, const sql::Expr& on);
  Result<Input> NestedLoopJoin(sql::JoinType type, const Input& left,
                               const Input& right, const sql::Expr& on);
  /// Joins the FROM list: greedy hash joins along the WHERE equalities,
  /// single-item conjuncts pushed down, the rest a residual filter.
  Result<Input> JoinFromList(const sql::SelectCore& core);
  /// Scans the base table behind `in` with its pushed-down filters,
  /// leaving the ascending ids of the surviving rows in its id column.
  /// Column-vs-literal filters evaluate straight off the typed column
  /// arrays; any other shape goes through FilterRows.
  Status ScanBaseTable(const std::vector<const sql::Expr*>& filters,
                       Input* in);
  /// Keeps the rows of `in` on which every filter is true.
  Status FilterRows(const std::vector<const sql::Expr*>& filters, Input* in);
  /// The ORDER BY permutation of the rows of `cores` (numbered core by
  /// core), ties kept in that numbering's order; empty when the rows are
  /// already in order.
  Result<std::vector<uint32_t>> SortRows(
      const std::vector<sql::OrderItem>& order_by, std::vector<Core>& cores);

  Status CheckDeadline() const;
  /// Counts one unit of row work and checks the deadline every 256.
  Status Tick() {
    return (++ticks_ & 0xFF) == 0 ? CheckDeadline() : Status::OK();
  }

  const Database* db_;
  ExecStats stats_;
  double timeout_ms_ = 0;
  std::chrono::steady_clock::time_point deadline_{};
  bool has_deadline_ = false;
  uint64_t ticks_ = 0;
};

/// A query result as the engine holds it (DESIGN.md §10 "Handing over
/// results"): each SELECT core's row-id batch, the ORDER BY permutation
/// over them, and per select item its batch column, its constant or its
/// computed expression, all owned. Base tables are borrowed, under the
/// rule a running query already observes: a Rows must be bound or turned
/// into a Relation before the next write to a table it reads. Move-only;
/// one thread at a time.
class Rows {
 public:
  Rows();
  /// Hands over a Relation as it is: its tuples, in order.
  explicit Rows(Relation relation);
  Rows(Rows&&) noexcept;
  Rows& operator=(Rows&&) noexcept;
  ~Rows();

  const RelSchema& schema() const { return schema_; }
  size_t size() const { return size_; }

  /// The bind: appends every row, in result order, in the wire format
  /// (engine/tuple_stream.h), each field written straight from its typed
  /// column, or from its Value for a held, constant or computed cell.
  void AppendWire(std::string* out);

  /// Builds every row as a Tuple, in result order.
  Relation ToRelation() &&;

 private:
  friend class QueryExecutor;
  using Core = QueryExecutor::Core;

  /// Calls fn(k, i) for every row (row i of core k), in result order.
  template <typename Fn>
  void ForEachRow(Fn&& fn);

  RelSchema schema_;
  std::vector<Core> cores_;      // empty: a handed-over Relation's tuples_
  std::vector<uint32_t> order_;  // numbered core by core; empty: the
                                 // cores' own order (no ORDER BY, or
                                 // rows already in key order)
  size_t size_ = 0;
  std::vector<Tuple> tuples_;
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
    return Run<Relation>(
        timeout_ms,
        [&](QueryExecutor& executor) { return executor.ExecuteSql(sql); });
  }

  /// The local publish path: the engine's batch, with no result cell built.
  Result<Rows> ExecuteRows(std::string_view sql, double timeout_ms,
                           CancelToken* cancel) override {
    return Run<Rows>(timeout_ms, [&](QueryExecutor& executor) {
      return executor.ExecuteRows(sql, timeout_ms, cancel);
    });
  }

  void set_timeout_ms(double timeout_ms) override { timeout_ms_ = timeout_ms; }

  /// Local tables answer version fetches directly (Table::version() is an
  /// atomic read; thread-safe against concurrent queries).
  Result<std::vector<std::pair<std::string, uint64_t>>> FetchTableVersions(
      const std::vector<std::string>& tables) override;

  /// Mirrors cumulative packed-key and materialized-cell counters into
  /// `registry` (nullable to turn accounting off). Counters are resolved
  /// here once; the per-query hot path then pays only relaxed atomic adds.
  void set_metrics_registry(obs::MetricsRegistry* registry) {
    auto counter = [registry](const char* name) {
      return registry != nullptr ? registry->counter(name) : nullptr;
    };
    keys_encoded_counter_ = counter("silkroute_engine_keys_encoded_total");
    key_bytes_counter_ = counter("silkroute_engine_key_bytes_encoded_total");
    cells_counter_ = counter("silkroute_engine_cells_materialized_total");
  }

  /// Stats of the most recent query (last writer wins under concurrency).
  ExecStats stats() const {
    std::lock_guard<std::mutex> lock(stats_mu_);
    return stats_;
  }

 private:
  /// Runs `call` on a fresh QueryExecutor under `timeout_ms`, then records
  /// its stats.
  template <typename R, typename Call>
  Result<R> Run(double timeout_ms, const Call& call) {
    QueryExecutor executor(db_);
    if (timeout_ms > 0) executor.set_timeout_ms(timeout_ms);
    Result<R> result = call(executor);
    const ExecStats& s = executor.stats();
    if (keys_encoded_counter_ != nullptr) {
      keys_encoded_counter_->Add(s.keys_encoded);
      key_bytes_counter_->Add(s.bytes_encoded);
      cells_counter_->Add(s.cells_materialized);
    }
    {
      std::lock_guard<std::mutex> lock(stats_mu_);
      stats_ = s;
    }
    return result;
  }

  const Database* db_;
  double timeout_ms_ = 0;
  // Wired before publishing starts (set_metrics_registry is not safe to
  // race with in-flight ExecuteSql calls).
  obs::Counter* keys_encoded_counter_ = nullptr;
  obs::Counter* key_bytes_counter_ = nullptr;
  obs::Counter* cells_counter_ = nullptr;
  mutable std::mutex stats_mu_;
  ExecStats stats_;
};

}  // namespace silkroute::engine

#endif  // SILKROUTE_ENGINE_EXECUTOR_H_
