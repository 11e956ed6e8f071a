#include "service/publishing_service.h"

#include <algorithm>
#include <chrono>
#include <set>
#include <sstream>
#include <utility>

#include "common/timer.h"
#include "engine/tuple_stream.h"
#include "silkroute/source.h"
#include "silkroute/sqlgen.h"

namespace silkroute::service {

namespace {

using core::ComponentStream;
using core::PublishOptions;
using core::SqlGenerator;
using core::StreamSpec;
using core::ViewTree;

/// True for errors of the *source*: the ones degradation and circuit
/// breaking route around (mirrors the sequential publisher).
bool IsSourceFailure(StatusCode code) {
  return code == StatusCode::kUnavailable || code == StatusCode::kTimeout;
}

// The breaker keys of a component query are the tables it *introduces*:
// core::ComponentTables (silkroute/source.h), shared with the publisher's
// per-component outcome attribution.

/// The service's breakers mirror into the unified registry; options_ is
/// const by the time breakers_ is constructed, so the injection happens on
/// a copy in the initializer list.
CircuitBreakerOptions WithBreakerMetrics(CircuitBreakerOptions options,
                                         obs::MetricsRegistry* metrics) {
  options.metrics = metrics;
  return options;
}

double MsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

}  // namespace

// ---------------------------------------------------------------------------
// PooledExecution: the concurrent PlanExecution strategy for one request.
// Run() fans the component queries out to the service's worker pool; each
// task fills a result slot, degrading through the edge-mask lattice on
// permanent failure exactly like the sequential strategy. The publisher
// sorts the slots by component root before tagging, so the XML is
// byte-identical at any concurrency.

class PublishingService::PooledExecution : public core::PlanExecution {
 public:
  PooledExecution(PublishingService* service, bool has_deadline,
                  std::chrono::steady_clock::time_point deadline)
      : service_(service),
        has_deadline_(has_deadline),
        deadline_(deadline),
        budget_(service->options_.retry.retry_budget) {}

  Result<std::vector<ComponentStream>> Run(const ViewTree& tree,
                                           const SqlGenerator& gen,
                                           std::vector<StreamSpec> specs,
                                           const PublishOptions& options,
                                           core::PlanMetrics* metrics,
                                           obs::SpanHandle* plan_span) override;

  /// Buffered-byte reservation still held; the coordinator releases it
  /// once the document is tagged (the streams are consumed by then).
  size_t reserved_bytes() const { return reserved_bytes_; }

 private:
  /// A degradation replacement awaiting submission, with its component
  /// span (a child of the failed component's span).
  struct FollowUp {
    StreamSpec spec;
    size_t origin;
    std::shared_ptr<obs::SpanHandle> span;
  };

  /// Pre-condition: outstanding_ already counts this task.
  void SubmitTask(StreamSpec spec, size_t origin,
                  std::shared_ptr<obs::SpanHandle> span);
  void ExecuteOne(StreamSpec spec, size_t origin,
                  std::shared_ptr<obs::SpanHandle> span,
                  std::chrono::steady_clock::time_point enqueued);
  /// Terminal accounting of one task; submits degradation follow-ups.
  void FinishTask(std::vector<FollowUp> follow_ups);

  PublishingService* const service_;
  const bool has_deadline_;
  const std::chrono::steady_clock::time_point deadline_;
  engine::RetryBudget budget_;

  // Set once by Run before any task starts.
  const ViewTree* tree_ = nullptr;
  const SqlGenerator* gen_ = nullptr;
  const PublishOptions* options_ = nullptr;

  std::mutex mu_;
  std::condition_variable cv_;
  size_t outstanding_ = 0;
  std::vector<ComponentStream> done_;
  std::set<size_t> degraded_origins_;
  std::vector<int> failed_nodes_;
  std::vector<std::string> sql_log_;
  std::vector<core::ComponentOutcome> components_;
  engine::ExecutionReport report_;
  Status fatal_;
  bool timed_out_ = false;
  size_t breaker_fast_fails_ = 0;
  size_t cache_hits_ = 0;
  size_t cache_misses_ = 0;
  size_t rows_ = 0;
  size_t wire_bytes_ = 0;
  double query_ms_ = 0;
  double bind_ms_ = 0;
  size_t reserved_bytes_ = 0;
};

Result<std::vector<ComponentStream>> PublishingService::PooledExecution::Run(
    const ViewTree& tree, const SqlGenerator& gen,
    std::vector<StreamSpec> specs, const PublishOptions& options,
    core::PlanMetrics* metrics, obs::SpanHandle* plan_span) {
  tree_ = &tree;
  gen_ = &gen;
  options_ = &options;

  // The plan's fan-out claims in-flight-query slots up front: a service at
  // its global query budget sheds the whole request fast instead of
  // trickling it through a saturated pool.
  SILK_RETURN_IF_ERROR(service_->admission_.AdmitQueries(specs.size()));

  {
    std::lock_guard<std::mutex> lock(mu_);
    outstanding_ = specs.size();
  }
  // Component spans are started here, in plan order, so their hierarchical
  // ids are deterministic regardless of which worker finishes first.
  for (size_t i = 0; i < specs.size(); ++i) {
    auto span =
        core::MakeComponentSpan(tree, options.tracer, plan_span, specs[i]);
    SubmitTask(std::move(specs[i]), i, std::move(span));
  }
  {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] { return outstanding_ == 0; });
  }

  // All tasks finished: the members are exclusively ours again. Query
  // slots in the report are renumbered to completion order (each task ran
  // its own single-slot executor).
  for (size_t i = 0; i < report_.queries.size(); ++i) {
    report_.queries[i].query_index = static_cast<int>(i);
  }
  metrics->exec_report = std::move(report_);
  metrics->attempts = metrics->exec_report.total_attempts();
  metrics->retries = metrics->exec_report.total_retries();
  metrics->degraded_components = degraded_origins_.size();
  metrics->breaker_fast_fails = breaker_fast_fails_;
  metrics->cache_hits = cache_hits_;
  metrics->cache_misses = cache_misses_;
  metrics->failed_nodes = std::move(failed_nodes_);
  std::sort(metrics->failed_nodes.begin(), metrics->failed_nodes.end());
  if (options.collect_sql) metrics->sql = std::move(sql_log_);
  metrics->components = std::move(components_);
  metrics->rows = rows_;
  metrics->wire_bytes = wire_bytes_;
  // Query/bind time is summed across workers: aggregate server time, which
  // under concurrency exceeds the request's wall-clock elapsed time.
  metrics->query_ms = query_ms_;
  metrics->bind_ms = bind_ms_;
  if (!fatal_.ok()) return fatal_;
  if (timed_out_) {
    metrics->timed_out = true;
    return std::vector<ComponentStream>{};
  }
  return std::move(done_);
}

void PublishingService::PooledExecution::SubmitTask(
    StreamSpec spec, size_t origin, std::shared_ptr<obs::SpanHandle> span) {
  bool submitted = service_->pool_.Submit(
      [this, spec = std::move(spec), origin, span = std::move(span),
       enqueued = std::chrono::steady_clock::now()]() mutable {
        ExecuteOne(std::move(spec), origin, std::move(span), enqueued);
      });
  if (!submitted) {
    // Pool already shut down; account the task as terminally failed.
    service_->admission_.FinishQuery();
    std::lock_guard<std::mutex> lock(mu_);
    if (fatal_.ok()) fatal_ = Status::Unavailable("service is shut down");
    if (--outstanding_ == 0) cv_.notify_all();
  }
}

void PublishingService::PooledExecution::FinishTask(
    std::vector<FollowUp> follow_ups) {
  service_->admission_.FinishQuery();
  if (!follow_ups.empty()) {
    // Degradation replacements stand in for the slot the failed query
    // held, so they force-admit rather than shed an admitted plan.
    service_->admission_.ForceAdmitQueries(follow_ups.size());
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    outstanding_ += follow_ups.size();
    if (--outstanding_ == 0) cv_.notify_all();
  }
  for (FollowUp& f : follow_ups) {
    SubmitTask(std::move(f.spec), f.origin, std::move(f.span));
  }
}

void PublishingService::PooledExecution::ExecuteOne(
    StreamSpec spec, size_t origin, std::shared_ptr<obs::SpanHandle> span,
    std::chrono::steady_clock::time_point enqueued) {
  const PublishOptions& options = *options_;
  double queue_wait_ms = MsSince(enqueued);
  if (span != nullptr) span->AnnotateMs("queue_wait_ms", queue_wait_ms);
  bool drain = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    drain = !fatal_.ok() || timed_out_;
  }
  if (!drain && service_->cancel_.cancelled()) {
    std::lock_guard<std::mutex> lock(mu_);
    if (fatal_.ok()) fatal_ = Status::Unavailable("service shutting down");
    drain = true;
  }
  // Every exit below ends the component span BEFORE FinishTask: the final
  // FinishTask releases the drain barrier, and a span still open past it
  // (ended only by the task lambda's destructor) could miss a trace export
  // that runs as soon as the plan completes.
  if (drain) {
    if (span != nullptr) {
      span->Annotate("status", "drained");
      span->End();
    }
    return FinishTask({});
  }

  // End-to-end deadline: a request out of time fails before burning a
  // worker on a doomed query.
  if (has_deadline_ && std::chrono::steady_clock::now() >= deadline_) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      timed_out_ = true;
    }
    if (span != nullptr) {
      span->Annotate("status", StatusCodeToString(StatusCode::kTimeout));
      span->End();
    }
    return FinishTask({});
  }

  std::vector<std::string> tables =
      core::ComponentTables(*tree_, spec.covered_nodes);
  core::ComponentOutcome outcome;
  outcome.nodes = spec.covered_nodes;
  outcome.tables = tables;
  outcome.queue_wait_ms = queue_wait_ms;

  // Fragment-cache fast path: a hit skips the breaker gates and the
  // executor entirely (nothing runs, so there is nothing to gate), but the
  // borrowed wire bytes still count against the buffered-tuple budget —
  // they live exactly as long as an executed stream's would.
  engine::ResultCache* cache = options.result_cache;
  if (cache != nullptr && !spec.cache_key.empty()) {
    if (auto entry = cache->Lookup(spec.cache_key)) {
      auto stream = std::make_unique<engine::TupleStream>(
          entry->schema, entry->bytes, entry->num_tuples);
      size_t bytes = stream->wire_bytes();
      Status reserved = service_->admission_.ReserveBytes(bytes);
      StatusCode final_code = reserved.code();
      outcome.final_status = final_code;
      {
        std::lock_guard<std::mutex> lock(mu_);
        ++cache_hits_;
        if (!reserved.ok()) {
          if (fatal_.ok()) fatal_ = reserved;
        } else {
          reserved_bytes_ += bytes;
          rows_ += entry->num_tuples;
          wire_bytes_ += bytes;
          done_.push_back(ComponentStream{std::move(spec), std::move(stream)});
        }
        components_.push_back(std::move(outcome));
      }
      if (span != nullptr) {
        span->Annotate("cache", "hit");
        span->Annotate("status", StatusCodeToString(final_code));
        span->End();
      }
      return FinishTask({});
    }
    std::lock_guard<std::mutex> lock(mu_);
    ++cache_misses_;
  }

  // Circuit breakers: one gate per backend table this component touches.
  // Any open breaker fast-fails the query, which then degrades
  // immediately — no execution, no retry budget consumed.
  using Decision = CircuitBreaker::Decision;
  std::vector<std::pair<CircuitBreaker*, Decision>> gates;
  std::string open_table;
  for (const std::string& table : tables) {
    CircuitBreaker* breaker = service_->breakers_.Get(table);
    Decision decision = breaker->Admit();
    if (decision == Decision::kFastFail) {
      open_table = table;
      break;
    }
    gates.emplace_back(breaker, decision);
  }

  Status status = Status::OK();
  engine::Relation rel;
  engine::ExecutionReport task_report;
  double query_elapsed = 0;
  obs::SpanHandle query_span;
  if (!open_table.empty()) {
    // A sibling breaker may have admitted a probe for this same query;
    // return the probe slot unused.
    for (auto& [breaker, decision] : gates) breaker->AbandonProbe(decision);
    status = Status::Unavailable("circuit breaker open for table '" +
                                 open_table + "'");
    outcome.breaker_fast_fail = true;
    if (span != nullptr) span->Annotate("breaker.fast_fail", open_table);
    std::lock_guard<std::mutex> lock(mu_);
    ++breaker_fast_fails_;
  } else {
    // The gates passed: the query will run. Only now does it belong in
    // metrics->sql (drained or fast-failed queries never executed).
    if (options.collect_sql) {
      std::lock_guard<std::mutex> lock(mu_);
      sql_log_.push_back(spec.sql);
    }
    engine::RetryOptions retry = service_->options_.retry;
    retry.query_deadline_ms = options.query_timeout_ms;
    if (options.strict) {
      retry.max_attempts = 1;
      retry.retry_budget = 0;
    } else {
      retry.shared_budget = &budget_;
    }
    retry.cancel = &service_->cancel_;
    retry.has_deadline = has_deadline_;
    retry.deadline = deadline_;
    retry.tracer = service_->options_.tracer;
    retry.metrics = service_->options_.metrics_registry;
    engine::ResilientExecutor resilient(service_->executor_, retry);

    // phase:query under the component span; the resilient layer hangs
    // attempt/backoff spans off it through the thread-local current span.
    query_span = obs::Tracer::Child(service_->options_.tracer, span.get(),
                                    "phase:query");
    Timer query_timer;
    auto result = [&] {
      obs::ScopedCurrentSpan scope(&query_span);
      return resilient.ExecuteSql(spec.sql);
    }();
    query_elapsed = query_timer.ElapsedMillis();
    task_report = resilient.report();
    const engine::QueryExecution& executed = task_report.queries.back();
    outcome.attempts = static_cast<size_t>(executed.attempts);
    outcome.retries = executed.attempts > 1
                          ? static_cast<size_t>(executed.attempts - 1)
                          : 0;
    status = result.status();
    bool source_failure = !result.ok() && IsSourceFailure(status.code());
    for (auto& [breaker, decision] : gates) {
      if (result.ok()) {
        breaker->RecordSuccess(decision);
      } else if (source_failure) {
        breaker->RecordFailure(decision);
      } else {
        // A non-source error says nothing about the backend's health.
        breaker->AbandonProbe(decision);
      }
    }
    if (result.ok()) rel = std::move(result).value();
  }
  outcome.final_status = status.code();

  if (status.ok()) {
    size_t rel_rows = rel.rows.size();
    obs::SpanHandle bind_span =
        obs::Tracer::Child(service_->options_.tracer, span.get(), "phase:bind");
    Timer bind_timer;
    auto stream = std::make_unique<engine::TupleStream>(std::move(rel));
    double bind_elapsed = bind_timer.ElapsedMillis();
    size_t bytes = stream->wire_bytes();
    if (cache != nullptr && !spec.cache_key.empty()) {
      engine::CacheEntry entry;
      entry.schema = stream->schema();
      entry.bytes = stream->shared_wire();
      entry.num_tuples = stream->num_tuples();
      cache->Insert(spec.cache_key, std::move(entry));
    }
    if (options.profile != nullptr) {
      options.profile->RecordQuery(spec.sql, query_elapsed, rel_rows, bytes);
      options.profile->RecordBind(spec.sql, bind_elapsed);
    }
    // The buffered-tuple budget: requests whose streams would blow the
    // global memory bound are shed (kResourceExhausted), not OOM-killed.
    Status reserved = service_->admission_.ReserveBytes(bytes);
    {
      std::lock_guard<std::mutex> lock(mu_);
      report_.queries.insert(report_.queries.end(),
                             task_report.queries.begin(),
                             task_report.queries.end());
      if (!reserved.ok()) {
        if (fatal_.ok()) fatal_ = reserved;
        outcome.final_status = reserved.code();
      } else {
        reserved_bytes_ += bytes;
        rows_ += rel_rows;
        wire_bytes_ += bytes;
        query_ms_ += query_elapsed;
        bind_ms_ += bind_elapsed;
        // The spans carry the *same* measured values that feed the
        // metrics, so a trace reproduces the query/bind totals exactly.
        query_span.AnnotateMs("ms", query_elapsed);
        bind_span.AnnotateMs("ms", bind_elapsed);
        done_.push_back(ComponentStream{std::move(spec), std::move(stream)});
      }
      components_.push_back(std::move(outcome));
    }
    query_span.End();
    bind_span.End();
    if (span != nullptr) {
      span->Annotate("status", StatusCodeToString(reserved.code()));
      span->End();
    }
    return FinishTask({});
  }

  if (query_span.recording()) {
    query_span.Annotate("status", StatusCodeToString(status.code()));
    query_span.End();
  }
  if (span != nullptr) {
    span->Annotate("status", StatusCodeToString(status.code()));
  }

  // Failure handling, mirroring the sequential strategy's retry/degrade
  // loop: budget exhaustion and non-source errors are fatal; a source
  // failure splits the component at its deepest kept edge; at the
  // fully-partitioned limit a timeout reports timed_out and an unavailable
  // node is skipped best-effort.
  std::vector<FollowUp> follow_ups;
  {
    std::lock_guard<std::mutex> lock(mu_);
    report_.queries.insert(report_.queries.end(),
                           task_report.queries.begin(),
                           task_report.queries.end());
    if (status.code() == StatusCode::kResourceExhausted ||
        !IsSourceFailure(status.code())) {
      if (fatal_.ok()) fatal_ = status;
    } else if (options.strict) {
      if (status.code() == StatusCode::kTimeout) {
        timed_out_ = true;
      } else if (fatal_.ok()) {
        fatal_ = status;
      }
    } else {
      int edge = core::DeepestInternalEdge(*tree_, spec.covered_nodes);
      if (edge < 0) {
        if (status.code() == StatusCode::kTimeout) {
          timed_out_ = true;
        } else {
          failed_nodes_.insert(failed_nodes_.end(),
                               spec.covered_nodes.begin(),
                               spec.covered_nodes.end());
          done_.push_back(ComponentStream{
              std::move(spec),
              std::make_unique<engine::TupleStream>(engine::Relation{})});
        }
      } else {
        degraded_origins_.insert(origin);
        outcome.degraded = true;
        auto [remainder, subtree] = core::SplitAtEdge(
            *tree_, spec.covered_nodes, tree_->Edges()[edge]);
        for (auto* part : {&remainder, &subtree}) {
          auto sub_spec = gen_->GenerateComponent(*part);
          if (!sub_spec.ok()) {
            if (fatal_.ok()) fatal_ = sub_spec.status();
            follow_ups.clear();
            break;
          }
          // Follow-up queries nest under the failed component's span, so
          // the trace shows the degradation tree.
          StreamSpec sub = std::move(sub_spec).value();
          auto sub_span = core::MakeComponentSpan(
              *tree_, service_->options_.tracer, span.get(), sub);
          follow_ups.push_back(
              FollowUp{std::move(sub), origin, std::move(sub_span)});
        }
      }
    }
    components_.push_back(std::move(outcome));
  }
  if (span != nullptr) span->End();
  FinishTask(std::move(follow_ups));
}

// ---------------------------------------------------------------------------
// PublishTicket

PublishTicket::~PublishTicket() {
  if (coordinator_.joinable()) coordinator_.join();
}

const ServiceResponse& PublishTicket::Wait() {
  std::unique_lock<std::mutex> lock(mu_);
  cv_.wait(lock, [&] { return done_; });
  // Join under mu_ so concurrent Wait() calls (the shared_ptr API invites
  // sharing) serialize: exactly one sees joinable() and joins. Safe from
  // deadlock — once done_ is set the coordinator never takes mu_ again.
  if (coordinator_.joinable()) coordinator_.join();
  return response_;
}

// ---------------------------------------------------------------------------
// PublishingService

PublishingService::PublishingService(const Database* db, ServiceOptions options)
    : db_(db),
      options_(std::move(options)),
      publisher_(db),
      own_executor_(db),
      executor_(options_.executor != nullptr ? options_.executor
                                             : &own_executor_),
      admission_(options_.admission, options_.metrics_registry),
      breakers_(
          WithBreakerMetrics(options_.breaker, options_.metrics_registry)),
      pool_(options_.workers, options_.metrics_registry) {
  // Surface the engine's packed-key counters when the service executes
  // against its own connection (a caller-supplied executor wires its own).
  own_executor_.set_metrics_registry(options_.metrics_registry);
}

PublishingService::~PublishingService() { Shutdown(); }

Result<std::shared_ptr<PublishTicket>> PublishingService::Submit(
    ServiceRequest request) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (shutdown_) return Status::Unavailable("service is shut down");
  }
  SILK_RETURN_IF_ERROR(admission_.AdmitRequest());
  // Re-check shutdown_ atomically with the registration: Shutdown may have
  // set shutdown_ and observed active_requests_ == 0 after the check above,
  // and a request registered now would outlive the drain. Either the
  // request is fully registered before the drain check sees zero, or it is
  // rejected and its admission undone.
  bool registered = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!shutdown_) {
      ++active_requests_;
      registered = true;
    }
  }
  if (!registered) {
    admission_.FinishRequest();
    return Status::Unavailable("service is shut down");
  }
  auto ticket = std::shared_ptr<PublishTicket>(new PublishTicket());
  // The request root span starts on the caller's thread, so concurrent
  // Submits take root ordinals in submission order and queueing ahead of
  // the coordinator is inside the span.
  obs::SpanHandle request_span = obs::Tracer::Root(options_.tracer, "request");
  ticket->coordinator_ = std::thread(
      [this, ticket_ptr = ticket.get(), req = std::move(request),
       span = std::move(request_span)]() mutable {
        RunRequest(std::move(req), ticket_ptr, std::move(span));
      });
  return ticket;
}

ServiceResponse PublishingService::Publish(ServiceRequest request) {
  auto ticket = Submit(std::move(request));
  if (!ticket.ok()) {
    ServiceResponse response;
    response.status = ticket.status();
    return response;
  }
  return (*ticket)->Wait();
}

std::vector<ServiceResponse> PublishingService::PublishAll(
    std::vector<ServiceRequest> requests) {
  std::vector<ServiceResponse> responses(requests.size());
  std::vector<std::shared_ptr<PublishTicket>> tickets(requests.size());
  for (size_t i = 0; i < requests.size(); ++i) {
    auto ticket = Submit(std::move(requests[i]));
    if (ticket.ok()) {
      tickets[i] = std::move(ticket).value();
    } else {
      responses[i].status = ticket.status();
    }
  }
  for (size_t i = 0; i < tickets.size(); ++i) {
    if (tickets[i] != nullptr) responses[i] = tickets[i]->Wait();
  }
  return responses;
}

void PublishingService::RunRequest(ServiceRequest request,
                                   PublishTicket* ticket,
                                   obs::SpanHandle request_span) {
  auto start = std::chrono::steady_clock::now();
  double deadline_ms = request.deadline_ms > 0 ? request.deadline_ms
                                               : options_.default_deadline_ms;
  bool has_deadline = deadline_ms > 0;
  auto deadline =
      start + std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                  std::chrono::duration<double, std::milli>(deadline_ms));
  if (has_deadline) request_span.AnnotateMs("deadline_ms", deadline_ms);

  ServiceResponse response;
  {
    PooledExecution execution(this, has_deadline, deadline);
    PublishOptions opts = request.options;
    opts.executor = executor_;
    opts.execution = &execution;
    opts.retry = options_.retry;
    opts.tracer = options_.tracer;
    opts.parent_span = &request_span;
    opts.metrics_registry = options_.metrics_registry;
    opts.profile = options_.profile;
    opts.plan_oracle = options_.plan_oracle;
    opts.result_cache = options_.result_cache;
    std::ostringstream out;
    auto result = publisher_.Publish(request.rxl, opts, &out);
    if (result.ok()) {
      response.result = std::move(result).value();
      if (!response.result.metrics.timed_out) response.xml = out.str();
    } else {
      response.status = result.status();
    }
    // The document is tagged; the buffered streams are gone.
    admission_.ReleaseBytes(execution.reserved_bytes());
  }
  response.elapsed_ms = MsSince(start);

  StatusCode final_code = !response.status.ok()
                              ? response.status.code()
                          : response.result.metrics.timed_out
                              ? StatusCode::kTimeout
                              : StatusCode::kOk;
  request_span.Annotate("status", StatusCodeToString(final_code));
  request_span.AnnotateMs("elapsed_ms", response.elapsed_ms);
  // End before fulfilling the ticket: a client that Waits and then reads
  // the trace must find the complete request span tree in the sink.
  request_span.End();
  if (options_.metrics_registry != nullptr) {
    options_.metrics_registry->histogram("silkroute_request_us")
        ->RecordMicros(response.elapsed_ms * 1000.0);
    const char* series = final_code == StatusCode::kOk
                             ? "silkroute_requests_completed_total"
                         : final_code == StatusCode::kTimeout
                             ? "silkroute_requests_timed_out_total"
                             : "silkroute_requests_failed_total";
    options_.metrics_registry->counter(series)->Add();
  }

  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!response.status.ok()) {
      ++counters_.failed;
    } else if (response.result.metrics.timed_out) {
      ++counters_.timed_out;
    } else {
      ++counters_.completed;
    }
  }
  admission_.FinishRequest();
  {
    // Notify while still holding mu_: the moment Shutdown can observe
    // active_requests_ == 0 the service may be destroyed, so this must be
    // the coordinator's last touch of any service member.
    std::lock_guard<std::mutex> lock(mu_);
    --active_requests_;
    drained_cv_.notify_all();
  }

  // Fulfilling the ticket is the coordinator's very last act: the client
  // may destroy the ticket (joining this thread) the moment done_ flips.
  {
    std::lock_guard<std::mutex> lock(ticket->mu_);
    ticket->response_ = std::move(response);
    ticket->done_ = true;
  }
  ticket->cv_.notify_all();
}

void PublishingService::Shutdown() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
  }
  cancel_.Cancel();
  {
    std::unique_lock<std::mutex> lock(mu_);
    drained_cv_.wait(lock, [&] { return active_requests_ == 0; });
  }
  pool_.Shutdown();
}

std::map<std::string, BreakerCounters> PublishingService::breaker_snapshot()
    const {
  return breakers_.Snapshot();
}

ServiceMetrics PublishingService::metrics() const {
  ServiceMetrics snapshot;
  {
    std::lock_guard<std::mutex> lock(mu_);
    snapshot = counters_;
  }
  snapshot.admission = admission_.metrics();
  snapshot.breaker_fast_fails = breakers_.TotalFastFails();
  snapshot.breaker_trips = breakers_.TotalTrips();
  return snapshot;
}

}  // namespace silkroute::service
