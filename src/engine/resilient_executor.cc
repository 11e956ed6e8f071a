#include "engine/resilient_executor.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>
#include <thread>

#include "common/timer.h"

namespace silkroute::engine {

ResilientExecutor::ResilientExecutor(SqlExecutor* inner, RetryOptions options)
    : inner_(inner),
      options_(std::move(options)),
      jitter_(options_.jitter_seed) {
  options_.max_attempts = std::max(options_.max_attempts, 1);
  if (options_.metrics != nullptr) {
    attempts_total_ =
        options_.metrics->counter("silkroute_executor_attempts_total");
    retries_total_ =
        options_.metrics->counter("silkroute_executor_retries_total");
    attempt_us_ = options_.metrics->histogram("silkroute_executor_attempt_us");
    backoff_us_ = options_.metrics->histogram("silkroute_executor_backoff_us");
  }
}

void ResilientExecutor::Sleep(double ms) {
  if (ms <= 0) return;
  if (options_.sleep_fn) {
    options_.sleep_fn(ms);
  } else if (options_.cancel != nullptr) {
    // Interruptible: a shutdown wakes the sleeper instead of waiting out
    // the backoff (up to max_backoff_ms = 1 s by default).
    options_.cancel->SleepFor(ms);
  } else {
    std::this_thread::sleep_for(
        std::chrono::duration<double, std::milli>(ms));
  }
}

bool ResilientExecutor::ConsumeRetry() {
  if (options_.shared_budget != nullptr) {
    return options_.shared_budget->TryConsume();
  }
  if (budget_used_ >= options_.retry_budget) return false;
  ++budget_used_;
  return true;
}

double ResilientExecutor::DeadlineRemainingMs() const {
  if (!options_.has_deadline) return std::numeric_limits<double>::infinity();
  return std::chrono::duration<double, std::milli>(
             options_.deadline - std::chrono::steady_clock::now())
      .count();
}

Result<Relation> ResilientExecutor::ExecuteSql(std::string_view sql) {
  return Retry<Relation>(sql, [&](double timeout_ms) {
    return inner_->ExecuteSqlWithDeadline(sql, timeout_ms);
  });
}

Result<Rows> ResilientExecutor::ExecuteRows(std::string_view sql,
                                            double timeout_ms,
                                            CancelToken* cancel) {
  options_.query_deadline_ms = timeout_ms;
  return Retry<Rows>(sql, [&](double attempt_timeout_ms) {
    return inner_->ExecuteRows(sql, attempt_timeout_ms, cancel);
  });
}

template <typename R, typename Attempt>
Result<R> ResilientExecutor::Retry(std::string_view sql,
                                   const Attempt& attempt_call) {
  report_.queries.emplace_back();
  // The report may reallocate inside nested calls; index, don't hold a ref.
  size_t slot = report_.queries.size() - 1;
  report_.queries[slot].query_index = static_cast<int>(slot);
  report_.queries[slot].sql = std::string(sql);

  for (int attempt = 1;; ++attempt) {
    report_.queries[slot].attempts = attempt;

    // Clamp this attempt's timeout to the end-to-end deadline so a slow
    // attempt cannot overshoot the request budget.
    double timeout_ms = options_.query_deadline_ms;
    double remaining = DeadlineRemainingMs();
    if (std::isfinite(remaining)) {
      if (remaining <= 0) {
        Status expired = Status::Timeout(
            "deadline expired before attempt " + std::to_string(attempt) +
            " of query #" + std::to_string(slot));
        report_.queries[slot].final_status = expired;
        ++report_.queries[slot].timeout_attempts;
        return expired;
      }
      timeout_ms = timeout_ms > 0 ? std::min(timeout_ms, remaining)
                                  : remaining;
    }

    // One span per attempt, parented under the thread's current span (the
    // phase:query span); the inner executor and fault injection annotate
    // it through the thread-local while it is installed.
    obs::SpanHandle attempt_span =
        obs::Tracer::Child(options_.tracer, obs::CurrentSpan(), "attempt");
    attempt_span.AnnotateCount("attempt", static_cast<uint64_t>(attempt));
    Timer attempt_timer;
    Result<R> result = [&] {
      obs::ScopedCurrentSpan scope(&attempt_span);
      return attempt_call(timeout_ms);
    }();
    if (attempt_us_ != nullptr) {
      attempts_total_->Add();
      attempt_us_->RecordMicros(attempt_timer.ElapsedMicros());
    }
    attempt_span.Annotate(
        "status", StatusCodeToString(result.ok() ? StatusCode::kOk
                                                 : result.status().code()));
    attempt_span.End();
    if (result.ok()) {
      report_.queries[slot].final_status = Status::OK();
      return result;
    }
    Status status = result.status();
    report_.queries[slot].final_status = status;

    bool retryable = IsSourceFailure(status.code());
    if (status.code() == StatusCode::kTimeout) {
      // A timeout is retried at most once: the deadline caps the query
      // itself, so a second timeout means the query is too heavy for the
      // source and the caller should degrade the plan instead.
      ++report_.queries[slot].timeout_attempts;
      if (report_.queries[slot].timeout_attempts > 1) retryable = false;
    }
    if (!retryable || attempt >= options_.max_attempts) return status;
    // A cancelled executor abandons retries and surfaces the last error:
    // the service is shutting down, nobody will consume a late success.
    if (options_.cancel != nullptr && options_.cancel->cancelled()) {
      return status;
    }

    if (!ConsumeRetry()) {
      int budget = options_.shared_budget != nullptr
                       ? options_.shared_budget->budget()
                       : options_.retry_budget;
      return Status::ResourceExhausted(
          "retry budget (" + std::to_string(budget) +
          ") exhausted at query #" + std::to_string(slot) +
          " attempt " + std::to_string(attempt) + "; last error: " +
          status.ToString());
    }

    double backoff =
        options_.initial_backoff_ms *
        std::pow(options_.backoff_multiplier, static_cast<double>(attempt - 1));
    backoff = std::min(backoff, options_.max_backoff_ms);
    // Full-range jitter in [0.5, 1.0]x keeps retries de-synchronized while
    // staying deterministic under the seed.
    backoff *= 0.5 + 0.5 * jitter_.NextDouble();
    // Sleeping past the deadline would waste the whole backoff on a doomed
    // request; fail it as a timeout right away.
    remaining = DeadlineRemainingMs();
    if (std::isfinite(remaining) && backoff >= remaining) {
      Status expired = Status::Timeout(
          "deadline would expire during the " + std::to_string(backoff) +
          " ms backoff of query #" + std::to_string(slot) + "; last error: " +
          status.ToString());
      report_.queries[slot].final_status = expired;
      ++report_.queries[slot].timeout_attempts;
      return expired;
    }
    report_.queries[slot].backoff_ms += backoff;
    if (retries_total_ != nullptr) {
      retries_total_->Add();
      backoff_us_->RecordMicros(backoff * 1000.0);
    }
    obs::SpanHandle backoff_span =
        obs::Tracer::Child(options_.tracer, obs::CurrentSpan(), "backoff");
    backoff_span.AnnotateMs("ms", backoff);
    Sleep(backoff);
    backoff_span.End();
    if (options_.cancel != nullptr && options_.cancel->cancelled()) {
      return status;
    }
  }
}

}  // namespace silkroute::engine
