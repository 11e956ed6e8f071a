// ResilientExecutor: the retry layer of the fault-tolerance stack. Wraps a
// SqlExecutor (the real connection, or a FaultInjectingExecutor in tests)
// and gives each component query
//
//  - a per-query deadline (forwarded to the inner executor, which enforces
//    it as kTimeout — re-armed per query, never per plan),
//  - bounded retries with exponential backoff and seeded jitter,
//  - a retry *budget* shared across all queries of the plan: once spent,
//    the next needed retry fails the plan with kResourceExhausted.
//
// Status codes are classified retryable (kUnavailable; kTimeout, at most
// once per query — a repeat timeout means the query itself is too heavy and
// should be degraded, not re-run) vs. permanent (everything else). Every
// attempt is recorded in an ExecutionReport the publisher surfaces through
// PlanMetrics.
//
// Concurrency: one ResilientExecutor instance serves one thread (the
// publisher's component step builds one per component query), but instances
// cooperate through two shared, thread-safe objects: a RetryBudget that
// meters retries plan- or service-wide, and a CancelToken that makes the
// backoff sleep interruptible, so draining a worker pool never waits out a
// full backoff.
#ifndef SILKROUTE_ENGINE_RESILIENT_EXECUTOR_H_
#define SILKROUTE_ENGINE_RESILIENT_EXECUTOR_H_

#include <atomic>
#include <chrono>
#include <functional>
#include <string>
#include <vector>

#include "common/cancel.h"
#include "common/random.h"
#include "common/result.h"
#include "engine/executor.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace silkroute::engine {

/// A thread-safe retry allowance shared by the ResilientExecutor instances
/// of one plan (or one service): each retry consumes one unit; once spent,
/// further retries are denied and the caller fails with kResourceExhausted.
class RetryBudget {
 public:
  explicit RetryBudget(int budget) : budget_(budget) {}

  /// Consumes one retry if any allowance remains.
  bool TryConsume() {
    int current = used_.load(std::memory_order_relaxed);
    while (current < budget_) {
      if (used_.compare_exchange_weak(current, current + 1,
                                      std::memory_order_relaxed)) {
        return true;
      }
    }
    return false;
  }

  int budget() const { return budget_; }
  int used() const { return used_.load(std::memory_order_relaxed); }
  int remaining() const { return budget_ - used(); }

 private:
  const int budget_;
  std::atomic<int> used_{0};
};

struct RetryOptions {
  /// Attempts per query including the first; >= 1.
  int max_attempts = 3;
  double initial_backoff_ms = 5;
  double backoff_multiplier = 2;
  double max_backoff_ms = 1000;
  /// Retries (attempts beyond each query's first) shared by the whole plan.
  /// Ignored when `shared_budget` is set.
  int retry_budget = 64;
  /// Per-attempt wall-clock cap, forwarded to the inner executor (0 = none).
  double query_deadline_ms = 0;
  /// Seed for backoff jitter (deterministic across runs).
  uint64_t jitter_seed = 0x51112;
  /// Replaces the real backoff sleep (tests pass a recorder).
  std::function<void(double)> sleep_fn;

  // --- Shared-state hooks for concurrent execution (borrowed) -----------
  /// Meters retries across executor instances; overrides `retry_budget`.
  RetryBudget* shared_budget = nullptr;
  /// Interrupts backoff sleeps and abandons further attempts when
  /// cancelled (service shutdown): ExecuteSql then returns the last
  /// attempt's error immediately.
  CancelToken* cancel = nullptr;
  /// End-to-end deadline this query must not overshoot. Each attempt's
  /// timeout is clamped to the time remaining, and a backoff that would
  /// sleep past the deadline returns kTimeout at once.
  bool has_deadline = false;
  std::chrono::steady_clock::time_point deadline{};

  // --- Observability (borrowed; null = disabled, zero overhead) ---------
  /// Attempt/backoff spans are parented under the thread's current span
  /// (the phase:query span installed by the publishing layer).
  obs::Tracer* tracer = nullptr;
  /// Attempt latency histograms and retry/backoff counters.
  obs::MetricsRegistry* metrics = nullptr;
};

/// One component query's execution history.
struct QueryExecution {
  int query_index = -1;
  std::string sql;
  int attempts = 0;          // 1 = succeeded (or died) first try
  int timeout_attempts = 0;  // attempts that ended in kTimeout
  double backoff_ms = 0;     // total backoff charged before retries
  Status final_status;
};

struct ExecutionReport {
  std::vector<QueryExecution> queries;

  size_t total_attempts() const {
    size_t n = 0;
    for (const auto& q : queries) n += static_cast<size_t>(q.attempts);
    return n;
  }
  size_t total_retries() const {
    size_t n = 0;
    for (const auto& q : queries) {
      if (q.attempts > 1) n += static_cast<size_t>(q.attempts - 1);
    }
    return n;
  }
};

class ResilientExecutor : public SqlExecutor {
 public:
  ResilientExecutor(SqlExecutor* inner, RetryOptions options);

  /// Runs one component query to completion: retries transient failures
  /// under the budget, then returns the result, the last permanent error,
  /// or kResourceExhausted when a needed retry has no budget left.
  Result<Relation> ExecuteSql(std::string_view sql) override;

  Result<Relation> ExecuteSqlWithDeadline(std::string_view sql,
                                          double timeout_ms) override {
    options_.query_deadline_ms = timeout_ms;
    return ExecuteSql(sql);
  }

  /// The same retry loop over the inner executor's ExecuteRows, each
  /// attempt passed `cancel`: how the publisher runs a component query.
  Result<Rows> ExecuteRows(std::string_view sql, double timeout_ms,
                           CancelToken* cancel) override;

  void set_timeout_ms(double timeout_ms) override {
    options_.query_deadline_ms = timeout_ms;
  }

  /// Version fetches pass straight through (no retries: a failed fetch
  /// just bypasses the result cache for one publish).
  Result<std::vector<std::pair<std::string, uint64_t>>> FetchTableVersions(
      const std::vector<std::string>& tables) override {
    return inner_->FetchTableVersions(tables);
  }

  const ExecutionReport& report() const { return report_; }
  int budget_used() const {
    return options_.shared_budget != nullptr ? options_.shared_budget->used()
                                             : budget_used_;
  }
  int budget_remaining() const {
    return options_.shared_budget != nullptr
               ? options_.shared_budget->remaining()
               : options_.retry_budget - budget_used_;
  }

 private:
  /// The retry loop: `attempt(timeout_ms)` runs one attempt.
  template <typename R, typename Attempt>
  Result<R> Retry(std::string_view sql, const Attempt& attempt);
  void Sleep(double ms);
  /// Consumes one retry from the shared or local budget.
  bool ConsumeRetry();
  /// Milliseconds until the configured deadline (+inf when none).
  double DeadlineRemainingMs() const;

  SqlExecutor* inner_;
  RetryOptions options_;
  Random jitter_;
  ExecutionReport report_;
  int budget_used_ = 0;
  // Resolved once from options_.metrics (stable registry pointers); null
  // when metrics are disabled.
  obs::Counter* attempts_total_ = nullptr;
  obs::Counter* retries_total_ = nullptr;
  obs::Histogram* attempt_us_ = nullptr;
  obs::Histogram* backoff_us_ = nullptr;
};

}  // namespace silkroute::engine

#endif  // SILKROUTE_ENGINE_RESILIENT_EXECUTOR_H_
