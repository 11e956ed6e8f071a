#include "service/publishing_service.h"

#include <atomic>
#include <chrono>
#include <sstream>
#include <utility>

#include "silkroute/sqlgen.h"

namespace silkroute::service {

namespace {

using core::ComponentStream;
using core::PendingComponent;
using core::PublishOptions;
using core::SqlGenerator;
using core::StreamSpec;
using core::ViewTree;

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
// Run() fans the components out to the service's worker pool, each task
// running the shared core::ComponentStep. What the service adds around the
// step is only its own protection: admission (query slots, force-admitted
// follow-ups, the buffered-byte budget), per-table circuit breakers, the
// end-to-end deadline, and the drain on abort or shutdown. The publisher
// sorts the streams by component root before tagging, so the XML is
// byte-identical at any concurrency.

class PublishingService::PooledExecution : public core::PlanExecution {
 public:
  PooledExecution(PublishingService* service, bool has_deadline,
                  std::chrono::steady_clock::time_point deadline)
      : service_(service), has_deadline_(has_deadline), deadline_(deadline) {}

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
  /// Pre-condition: outstanding_ already counts this task.
  void SubmitTask(PendingComponent item);
  void ExecuteOne(PendingComponent item,
                  std::chrono::steady_clock::time_point enqueued);
  /// Runs one component behind the breaker gates; returns the follow-ups
  /// of a degradation split.
  std::vector<PendingComponent> RunGated(PendingComponent item);
  /// Accepts a produced stream if its bytes fit the buffered-tuple budget.
  std::vector<PendingComponent> Keep(
      PendingComponent item, std::unique_ptr<engine::TupleStream> stream);
  /// Terminal accounting of one task; submits degradation follow-ups.
  void FinishTask(std::vector<PendingComponent> follow_ups);

  PublishingService* const service_;
  const bool has_deadline_;
  const std::chrono::steady_clock::time_point deadline_;
  /// Set once by Run before any task starts.
  core::ComponentStep* step_ = nullptr;
  std::atomic<size_t> reserved_bytes_{0};

  std::mutex mu_;
  std::condition_variable cv_;
  size_t outstanding_ = 0;
};

Result<std::vector<ComponentStream>> PublishingService::PooledExecution::Run(
    const ViewTree& tree, const SqlGenerator& gen,
    std::vector<StreamSpec> specs, const PublishOptions& options,
    core::PlanMetrics* metrics, obs::SpanHandle* plan_span) {
  // The plan's fan-out claims in-flight-query slots up front: a service at
  // its global query budget sheds the whole request fast instead of
  // trickling it through a saturated pool.
  SILK_RETURN_IF_ERROR(service_->admission_.AdmitQueries(specs.size()));

  core::ComponentStep step(tree, gen, options, service_->executor_,
                           &service_->cancel_, has_deadline_, deadline_);
  step_ = &step;
  {
    std::lock_guard<std::mutex> lock(mu_);
    outstanding_ = specs.size();
  }
  // Component spans are started here, in plan order, so their hierarchical
  // ids are deterministic regardless of which worker finishes first.
  for (size_t i = 0; i < specs.size(); ++i) {
    SubmitTask(step.Pending(std::move(specs[i]), i, plan_span));
  }
  {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] { return outstanding_ == 0; });
  }
  return step.Finish(metrics);
}

void PublishingService::PooledExecution::SubmitTask(PendingComponent item) {
  bool submitted = service_->pool_.Submit(
      [this, item = std::move(item),
       enqueued = std::chrono::steady_clock::now()]() mutable {
        ExecuteOne(std::move(item), enqueued);
      });
  if (!submitted) {
    // Pool already shut down; account the task as terminally failed.
    step_->Abort(Status::Unavailable("service is shut down"));
    service_->admission_.FinishQuery();
    std::lock_guard<std::mutex> lock(mu_);
    if (--outstanding_ == 0) cv_.notify_all();
  }
}

void PublishingService::PooledExecution::FinishTask(
    std::vector<PendingComponent> follow_ups) {
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
  for (PendingComponent& follow_up : follow_ups) {
    SubmitTask(std::move(follow_up));
  }
}

void PublishingService::PooledExecution::ExecuteOne(
    PendingComponent item, std::chrono::steady_clock::time_point enqueued) {
  // Every exit below ends the component span BEFORE FinishTask: the final
  // FinishTask releases the drain barrier, and a span still open past it
  // could miss a trace export that runs as soon as the plan completes.
  std::shared_ptr<obs::SpanHandle> span = item.span;
  item.outcome.queue_wait_ms = MsSince(enqueued);
  if (span != nullptr) {
    span->AnnotateMs("queue_wait_ms", item.outcome.queue_wait_ms);
  }
  if (!step_->aborted() && service_->cancel_.cancelled()) {
    step_->Abort(Status::Unavailable("service shutting down"));
  }
  const char* skipped = nullptr;
  if (step_->aborted()) {
    skipped = "drained";
  } else if (has_deadline_ && std::chrono::steady_clock::now() >= deadline_) {
    // End-to-end deadline: a request out of time fails before burning a
    // worker on a doomed query.
    step_->TimeOut();
    skipped = StatusCodeToString(StatusCode::kTimeout);
  }
  std::vector<PendingComponent> follow_ups;
  if (skipped != nullptr) {
    if (span != nullptr) span->Annotate("status", skipped);
  } else {
    follow_ups = RunGated(std::move(item));
  }
  if (span != nullptr) span->End();
  FinishTask(std::move(follow_ups));
}

std::vector<PendingComponent> PublishingService::PooledExecution::RunGated(
    PendingComponent item) {
  // A fragment-cache hit skips the breaker gates: nothing runs, so there
  // is nothing to gate.
  if (auto hit = step_->LookupFragment(item)) {
    return Keep(std::move(item), std::move(hit));
  }

  // Circuit breakers: one gate per backend table this component touches.
  // Any open breaker fast-fails the query as kUnavailable, which then
  // degrades like a real failure — no execution, no retry budget consumed.
  using Decision = CircuitBreaker::Decision;
  std::vector<std::pair<CircuitBreaker*, Decision>> gates;
  for (const std::string& table : item.outcome.tables) {
    CircuitBreaker* breaker = service_->breakers_.Get(table);
    Decision decision = breaker->Admit();
    if (decision == Decision::kFastFail) {
      // A sibling breaker may have admitted a probe for this same query;
      // return the probe slot unused.
      for (auto& [gate, admitted] : gates) gate->AbandonProbe(admitted);
      item.outcome.breaker_fast_fail = true;
      if (item.span != nullptr) item.span->Annotate("breaker.fast_fail", table);
      Status open = Status::Unavailable("circuit breaker open for table '" +
                                        table + "'");
      return step_->Fail(std::move(item), open);
    }
    gates.emplace_back(breaker, decision);
  }

  auto stream = step_->ExecuteAndBind(&item);
  for (auto& [breaker, decision] : gates) {
    if (stream.ok()) {
      breaker->RecordSuccess(decision);
    } else if (IsSourceFailure(stream.status().code())) {
      breaker->RecordFailure(decision);
    } else {
      // A non-source error says nothing about the backend's health.
      breaker->AbandonProbe(decision);
    }
  }
  if (!stream.ok()) return step_->Fail(std::move(item), stream.status());
  return Keep(std::move(item), std::move(stream).value());
}

std::vector<PendingComponent> PublishingService::PooledExecution::Keep(
    PendingComponent item, std::unique_ptr<engine::TupleStream> stream) {
  // The buffered-tuple budget: requests whose streams would blow the global
  // memory bound are shed (kResourceExhausted), not OOM-killed. Cached
  // bytes count too — they live exactly as long as an executed stream's.
  size_t bytes = stream->wire_bytes();
  Status reserved = service_->admission_.ReserveBytes(bytes);
  if (!reserved.ok()) return step_->Fail(std::move(item), reserved);
  reserved_bytes_ += bytes;
  step_->Accept(std::move(item), std::move(stream));
  return {};
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
