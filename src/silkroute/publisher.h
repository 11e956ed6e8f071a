// Publisher: the end-to-end middle-ware facade (the paper's Fig. 7
// architecture). Given an RXL view and a target database it
//   1. builds and labels the view tree,
//   2. chooses a partition (unified, fully partitioned, an explicit edge
//      mask, or the greedy algorithm of Sec. 5),
//   3. generates one SQL query per component,
//   4. executes them against the target RDBMS, obtaining sorted tuple
//      streams over a wire protocol — through a resilient layer that
//      retries transient source failures under a plan-wide budget and, on
//      permanent failure, degrades the offending component into smaller
//      queries along the edge-mask lattice (see DESIGN.md "Fault
//      tolerance"; `strict` restores fail-fast), and
//   5. merges and tags the streams into the XML document.
//
// Timing is reported in the paper's terms: query time (SQL execution at the
// server) and total time (query + binding/transfer + tagging).
#ifndef SILKROUTE_SILKROUTE_PUBLISHER_H_
#define SILKROUTE_SILKROUTE_PUBLISHER_H_

#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <ostream>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "engine/estimator.h"
#include "engine/executor.h"
#include "engine/resilient_executor.h"
#include "engine/result_cache.h"
#include "engine/stats.h"
#include "obs/metrics.h"
#include "obs/profile.h"
#include "obs/trace.h"
#include "relational/database.h"
#include "rxl/ast.h"
#include "silkroute/greedy.h"
#include "silkroute/source.h"
#include "silkroute/sqlgen.h"
#include "silkroute/tagger.h"
#include "silkroute/view_tree.h"

namespace silkroute::core {

enum class PlanStrategy {
  kGreedy,           // Sec. 5 algorithm (default)
  kUnified,          // all edges: one SQL query
  kFullyPartitioned, // no edges: one SQL query per node
  kExplicitMask,     // caller-provided edge mask
};

class PlanExecution;

struct PublishOptions {
  PlanStrategy strategy = PlanStrategy::kGreedy;
  uint64_t explicit_mask = 0;
  SqlGenStyle style = SqlGenStyle::kOuterJoin;
  bool reduce = true;
  /// SELECT DISTINCT in generated sub-selects (server-side set semantics).
  bool distinct_selects = false;
  /// Capabilities of the target engine; plans are adjusted to use only
  /// supported constructs (paper Sec. 3.4).
  SourceDescription source;
  GreedyParams greedy;
  /// Wrap the instance forest in this document element ("" = none).
  std::string document_element;
  bool pretty = false;
  /// Wall-clock cap in milliseconds applied to each *component* query
  /// independently (never to the plan as a whole; 0 = none), like the
  /// paper's 5-minute per-query cap in Sec. 4. Under the resilient layer a
  /// timeout is retried once with a fresh deadline; a repeat timeout is
  /// treated as a permanent source failure (degradation in non-strict
  /// mode, `timed_out` reporting once no smaller query can be cut).
  double query_timeout_ms = 0;
  /// Keep the SQL texts sent to the executor in the result (for logging /
  /// EXPLAIN), degraded replacement queries included, in the order they
  /// are sent. Fragment-cache hits and breaker fast-fails send nothing and
  /// are not listed.
  bool collect_sql = true;

  // --- Fault tolerance (see DESIGN.md "Fault tolerance") ----------------
  /// Fail-fast mode: the first component query that fails permanently (or
  /// times out) aborts the plan, preserving the pre-resilience behaviour.
  /// When false (default), the publisher retries transient errors and
  /// degrades permanently-failing components into smaller queries.
  bool strict = false;
  /// Retry/backoff/budget knobs for the resilient execution layer.
  engine::RetryOptions retry;
  /// Replacement connection to the RDBMS (borrowed; e.g. a
  /// FaultInjectingExecutor wrapping a DatabaseExecutor). null = execute
  /// directly against the publisher's database.
  engine::SqlExecutor* executor = nullptr;
  /// Pluggable execution strategy turning component specs into sorted
  /// streams (borrowed). null = the built-in sequential retry/degrade loop;
  /// the concurrent PublishingService (src/service/) supplies a pooled
  /// strategy with circuit breakers and end-to-end deadlines.
  PlanExecution* execution = nullptr;

  // --- Result cache (DESIGN.md §15; borrowed, null = disabled) ----------
  /// Component-query result + document cache. Before executing, the
  /// publisher snapshots the version vector of every table the plan
  /// touches (one FetchTableVersions on the executor — or straight off the
  /// local database); the snapshot keys a whole-document lookup and, on a
  /// document miss, per-component fragment lookups. Any write between the
  /// snapshot and a query only makes an entry conservatively stale (the
  /// next publish re-keys), never wrongly fresh, so cached republishes are
  /// byte-identical to cold ones on a quiescent database. If the version
  /// fetch fails (legacy remote peer, backend down) the publish silently
  /// runs uncached.
  engine::ResultCache* result_cache = nullptr;

  // --- Observability (borrowed; null = disabled, see DESIGN.md §9) ------
  /// Emits plan / component / phase spans. Propagated into the resilient
  /// layer (attempt and backoff spans) via the retry options.
  obs::Tracer* tracer = nullptr;
  /// Parent for the plan span (the service's request span); null makes the
  /// plan span a trace root (CLI serial mode).
  obs::SpanHandle* parent_span = nullptr;
  /// Registry for phase latency histograms and row/byte counters.
  obs::MetricsRegistry* metrics_registry = nullptr;
  /// Observed-cost workload profile (borrowed). Execution strategies record
  /// per-component query/bind timings into it keyed by normalized SQL text,
  /// and the tag phase is apportioned across components by row share —
  /// the measurement half of the self-tuning planner (DESIGN.md §14).
  obs::WorkloadProfile* profile = nullptr;
  /// Overrides the publisher's synthetic estimator for greedy planning —
  /// typically an engine::MeasuredCostOracle overlaying a loaded profile.
  /// Null = the built-in CostEstimator. Planning is serialized internally,
  /// so the oracle needs no thread-safety of its own.
  engine::CostOracle* plan_oracle = nullptr;
};

/// Per-component execution outcome (one entry per component query actually
/// issued, including degraded replacements), attributing retries, breaker
/// fast-fails, and degradation to the specific tables involved instead of
/// only counting them plan-wide.
struct ComponentOutcome {
  /// View-tree nodes the component covers.
  std::vector<int> nodes;
  /// Backend tables the component introduces (ComponentTables).
  std::vector<std::string> tables;
  size_t attempts = 0;
  size_t retries = 0;
  /// Fast-failed by an open circuit breaker instead of executing.
  bool breaker_fast_fail = false;
  /// Permanently failed and replaced by two smaller queries.
  bool degraded = false;
  /// Time spent queued behind other tasks before a worker picked the
  /// query up (pooled execution only; 0 in sequential mode).
  double queue_wait_ms = 0;
  StatusCode final_status = StatusCode::kOk;
};

struct PlanMetrics {
  uint64_t mask = 0;
  size_t num_streams = 0;
  /// True if a query hit the configured timeout; times are then partial
  /// and no document was produced.
  bool timed_out = false;
  double query_ms = 0;  // SQL execution at the "server"
  double bind_ms = 0;   // server-side tuple binding (wire serialization)
  double tag_ms = 0;    // client-side decode + merge + tag
  double total_ms() const { return query_ms + bind_ms + tag_ms; }
  size_t rows = 0;
  size_t wire_bytes = 0;
  size_t xml_bytes = 0;
  /// Buffered-writer chunks pushed to the output stream (~xml_bytes /
  /// the writer's buffer size; 0 means the document fit in one flush).
  size_t xml_flushes = 0;
  TaggerStats tagger;
  std::vector<std::string> sql;

  // --- Fault-tolerance outcome ------------------------------------------
  /// ExecuteSql attempts across every component query (1 per query on a
  /// healthy run).
  size_t attempts = 0;
  /// Attempts beyond each query's first (0 on a healthy run).
  size_t retries = 0;
  /// Original components that were re-planned into smaller queries after a
  /// permanent source failure.
  size_t degraded_components = 0;
  /// Nodes whose queries still failed at the fully-partitioned limit; their
  /// instances are missing from the document (best-effort publishing).
  std::vector<int> failed_nodes;
  /// Per-query attempt log from the resilient layer.
  engine::ExecutionReport exec_report;
  /// Component queries fast-failed by an open circuit breaker instead of
  /// being executed (service execution only; they degrade immediately
  /// without consuming retry budget).
  size_t breaker_fast_fails = 0;
  /// One entry per component query issued (original and degraded), in
  /// issue order, attributing attempts/retries/fast-fails to the tables
  /// involved.
  std::vector<ComponentOutcome> components;

  // --- Result cache outcome (all 0/false when caching is off) -----------
  /// Component queries served from fragment cache (no SQL executed, no
  /// binding paid).
  size_t cache_hits = 0;
  /// Cacheable component queries that had to execute (absent or stale).
  size_t cache_misses = 0;
  /// Cached fragments the tagger spliced into a republished document
  /// alongside freshly executed ones (== cache_hits unless the whole
  /// document was served from cache).
  size_t cache_splices = 0;
  /// The entire document came from the cache: no SQL, no tagging; query/
  /// bind/tag times are 0 and `sql` is empty.
  bool served_from_doc_cache = false;
};

/// A produced component stream, ready for the merge/tag phase.
struct ComponentStream {
  StreamSpec spec;
  std::unique_ptr<engine::TupleStream> stream;
};

/// Strategy that executes the component queries of one plan and returns
/// their sorted tuple streams, in any order (the publisher re-sorts by
/// component root before tagging, so any correct strategy yields
/// byte-identical XML). Implementations run each component through a
/// ComponentStep (declared below), which owns retry, degradation, and the
/// metrics; a strategy only chooses where and when components run.
/// Contract:
///  - a fatal error fails the plan (returned status);
///  - setting metrics->timed_out and returning ok aborts publishing with
///    partial metrics and no document (the paper's timeout reporting);
///  - unrecoverable single-node components are skipped best-effort with an
///    empty stream and their nodes appended to metrics->failed_nodes.
class PlanExecution {
 public:
  virtual ~PlanExecution() = default;

  /// `plan_span` is the enclosing plan span (null/inert when tracing is
  /// off); strategies hang component spans off it.
  virtual Result<std::vector<ComponentStream>> Run(
      const ViewTree& tree, const SqlGenerator& gen,
      std::vector<StreamSpec> specs, const PublishOptions& options,
      PlanMetrics* metrics, obs::SpanHandle* plan_span) = 0;
};

struct PublishResult {
  PlanMetrics metrics;
  /// Present when strategy == kGreedy.
  GreedyPlan greedy_plan;
};

/// A component query awaiting execution. Degradation replaces one item
/// with the two halves of its deepest-edge split, keeping `origin` (the
/// index of the original component) so degradations count once per
/// component.
struct PendingComponent {
  StreamSpec spec;
  size_t origin = 0;
  /// The outcome entry filled in as the item runs; nodes and tables are
  /// set when the item is made.
  ComponentOutcome outcome;
  /// Component span (null when tracing is off). Shared so follow-up
  /// queries produced by degradation nest under the failed component's
  /// span after this item is gone.
  std::shared_ptr<obs::SpanHandle> span;
};

/// The per-component step every PlanExecution strategy runs, and the
/// per-plan ledger it records into. A strategy only decides *where* and
/// *when* each pending item runs; what running one means lives here:
///  - LookupFragment: the fragment-cache fast path;
///  - ExecuteAndBind: one query through a ResilientExecutor, its query and
///    bind phases, the cache fill, and the workload-profile record;
///  - Accept / Fail: the outcome — a stream, or the degrade policy (fatal,
///    timed out, skip the node, or split into two follow-ups);
///  - Finish: writes PlanMetrics once.
/// Thread-safe: pooled workers share one step, and the ledger is guarded
/// by an internal mutex.
class ComponentStep {
 public:
  /// `connection` runs the component queries (borrowed; it must be
  /// thread-safe through ExecuteSqlWithDeadline when workers share the
  /// step). `cancel` and the deadline bound every query's retries.
  ComponentStep(const ViewTree& tree, const SqlGenerator& gen,
                const PublishOptions& options, engine::SqlExecutor* connection,
                CancelToken* cancel = nullptr, bool has_deadline = false,
                std::chrono::steady_clock::time_point deadline = {});

  /// Makes the pending item for `spec`, starting its component span under
  /// `parent` (annotated with the covered nodes and the tables the
  /// component introduces).
  PendingComponent Pending(StreamSpec spec, size_t origin,
                           obs::SpanHandle* parent) const;

  /// The cached result of a fresh fragment as a ready stream; null on a
  /// miss or for an uncacheable component. Counts the hit or miss.
  std::unique_ptr<engine::TupleStream> LookupFragment(
      const PendingComponent& item);

  /// Runs the item's query (retries under the plan's budget; strict mode
  /// makes one attempt) and binds the result into a stream, recording the
  /// query in the ledger. The error is the query's final status.
  Result<std::unique_ptr<engine::TupleStream>> ExecuteAndBind(
      PendingComponent* item);

  /// Records the item as produced by `stream`.
  void Accept(PendingComponent item,
              std::unique_ptr<engine::TupleStream> stream);

  /// The degrade policy for an item that failed with `status`. Budget
  /// exhaustion and non-source errors abort the plan; so does any source
  /// failure in strict mode, except a timeout, which times the plan out. A
  /// source failure otherwise splits the component at its deepest kept edge
  /// and returns the two halves to run next; at the single-node limit a
  /// timeout times the plan out and an unavailable node is skipped.
  std::vector<PendingComponent> Fail(PendingComponent item,
                                     const Status& status);

  /// Aborts the plan with `status`; the first abort wins.
  void Abort(Status status);
  /// Marks the plan timed out: no document, partial metrics.
  void TimeOut();
  /// True once the plan was aborted or timed out; remaining items are
  /// drained unexecuted.
  bool aborted() const;

  /// Writes the ledger into `metrics` and returns the produced streams,
  /// the abort status, or — for a timed-out plan — no streams with
  /// metrics->timed_out set. Call once, after every item has finished.
  Result<std::vector<ComponentStream>> Finish(PlanMetrics* metrics);

 private:
  const ViewTree& tree_;
  const SqlGenerator& gen_;
  const PublishOptions& options_;
  engine::SqlExecutor* const connection_;
  /// The plan-wide retry allowance every query's executor draws from.
  engine::RetryBudget budget_;
  engine::RetryOptions retry_;

  mutable std::mutex mu_;
  std::vector<ComponentStream> done_;
  std::vector<ComponentOutcome> components_;
  engine::ExecutionReport report_;
  std::vector<std::string> sql_;
  std::vector<int> failed_nodes_;
  std::set<size_t> degraded_origins_;
  size_t cache_hits_ = 0;
  size_t cache_misses_ = 0;
  size_t row_count_ = 0;
  size_t wire_bytes_ = 0;
  double query_ms_ = 0;
  double bind_ms_ = 0;
  Status fatal_;
  bool timed_out_ = false;
};

/// Thread-compatible for concurrent publishing: Publish/ExecutePlan may be
/// called from multiple threads at once provided each call writes to its
/// own output stream and any caller-supplied executor/execution strategy is
/// itself thread-safe. The shared cost estimator is serialized internally
/// (planning is cheap next to execution).
class Publisher {
 public:
  /// Statistics are collected once at construction (ANALYZE).
  explicit Publisher(const Database* db);

  const Database& db() const { return *db_; }
  engine::CostEstimator* estimator() { return &estimator_; }

  /// Parses RXL text and builds the labeled view tree.
  Result<ViewTree> BuildViewTree(std::string_view rxl_text) const;

  /// Full pipeline: RXL text -> XML on `out`.
  Result<PublishResult> Publish(std::string_view rxl_text,
                                const PublishOptions& options,
                                std::ostream* out);

  /// Virtual-view query (paper Sec. 7): composes a subview path such as
  /// "/supplier[nation='FRANCE']/part" with the view and publishes only the
  /// matched fragment.
  Result<PublishResult> PublishSubview(std::string_view rxl_text,
                                       std::string_view path,
                                       const PublishOptions& options,
                                       std::ostream* out);

  /// Executes one explicit plan for a pre-built view tree (the benchmark
  /// harness entry point).
  Result<PlanMetrics> ExecutePlan(const ViewTree& tree, uint64_t mask,
                                  const PublishOptions& options,
                                  std::ostream* out);

 private:
  const Database* db_;
  engine::DatabaseStats stats_;
  engine::CostEstimator estimator_;
  /// Serializes greedy planning (the estimator counts requests).
  std::mutex plan_mu_;
};

}  // namespace silkroute::core

#endif  // SILKROUTE_SILKROUTE_PUBLISHER_H_
