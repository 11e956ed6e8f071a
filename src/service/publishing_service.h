// PublishingService: the middle-tier that executes many publish requests
// concurrently over one shared Database while staying robust under load.
// Where the Publisher is a library call, the service is the servable
// layer the paper's architecture implies — many clients, one RDBMS:
//
//  - a bounded WorkerPool runs the component queries of all in-flight
//    plans in parallel; per-plan result slots collect the sorted streams
//    so the constant-memory tagger still merges in plan order and emits
//    XML byte-identical to the single-threaded Publisher;
//  - AdmissionController sheds overload fast with kResourceExhausted
//    (bounded request queue, global in-flight-query and buffered-tuple
//    budgets) instead of queuing unboundedly;
//  - a per-table CircuitBreaker (closed → open → half-open), fed by the
//    ResilientExecutor's outcomes, fast-fails queries against a sick
//    table so plans degrade immediately (SplitAtEdge lattice) without
//    burning retry budget;
//  - end-to-end deadlines: each request's remaining time is forwarded to
//    every component query as its deadline, so a slow first component
//    cannot make later components overshoot the request budget; backoff
//    sleeps that would cross the deadline fail the request at once.
//
// Threading model: Submit spawns one coordinator thread per admitted
// request (bounded by max_pending_requests); coordinators plan the view,
// fan component queries out to the shared pool, wait for the slots to
// fill, and tag. Pool workers never wait on other pool tasks, so the
// service cannot deadlock. Shutdown cancels the shared CancelToken —
// interrupting in-progress backoff sleeps — then drains.
#ifndef SILKROUTE_SERVICE_PUBLISHING_SERVICE_H_
#define SILKROUTE_SERVICE_PUBLISHING_SERVICE_H_

#include <condition_variable>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/cancel.h"
#include "common/result.h"
#include "engine/executor.h"
#include "engine/resilient_executor.h"
#include "service/admission.h"
#include "service/circuit_breaker.h"
#include "service/worker_pool.h"
#include "silkroute/publisher.h"

namespace silkroute::service {

struct ServiceOptions {
  /// Worker threads executing component queries (across all requests).
  size_t workers = 4;
  AdmissionOptions admission;
  CircuitBreakerOptions breaker;
  /// Retry/backoff template applied to every component query. The
  /// retry_budget meters each request's plan (as in the Publisher).
  engine::RetryOptions retry;
  /// Deadline applied to requests that do not carry one (0 = none).
  double default_deadline_ms = 0;
  /// Shared connection to the RDBMS for all workers (borrowed); must be
  /// thread-safe through ExecuteRows (DatabaseExecutor and
  /// FaultInjectingExecutor are). null = the service's own
  /// DatabaseExecutor over `db`.
  engine::SqlExecutor* executor = nullptr;
  /// Shared component-result + document cache (borrowed; null = off).
  /// ResultCache is internally sharded/thread-safe, so all workers across
  /// all concurrent requests hit one instance; invalidation is structural
  /// (table versions inside the keys), so no coordination with writers is
  /// needed (DESIGN.md §15).
  engine::ResultCache* result_cache = nullptr;

  // --- Observability (borrowed; null = disabled, see DESIGN.md §9) ------
  /// Emits one request-rooted span tree per submitted request
  /// (request → plan → component → phase/attempt).
  obs::Tracer* tracer = nullptr;
  /// Unified metrics registry: admission, breaker, pool, and request
  /// series are live-mirrored into it.
  obs::MetricsRegistry* metrics_registry = nullptr;
};

struct ServiceRequest {
  std::string rxl;
  /// Per-request publish options. `executor`, `execution`, and `retry` are
  /// overridden by the service's own execution stack.
  core::PublishOptions options;
  /// End-to-end deadline for this request (0 = service default).
  double deadline_ms = 0;
};

struct ServiceResponse {
  /// Admission or execution outcome. kResourceExhausted = shed.
  Status status;
  /// Valid when status is ok. metrics.timed_out marks a request whose
  /// deadline expired (partial metrics, empty xml — the paper's timeout
  /// reporting).
  core::PublishResult result;
  std::string xml;
  double elapsed_ms = 0;  // Submit -> completion, queueing included
};

struct ServiceMetrics {
  AdmissionMetrics admission;
  size_t completed = 0;  // responses with ok status and a document
  size_t timed_out = 0;  // deadline expiries
  size_t failed = 0;     // non-ok responses past admission
  size_t breaker_fast_fails = 0;
  size_t breaker_trips = 0;
};

/// Handle for one submitted request. Wait() blocks until the response is
/// ready; the destructor waits too, so dropping a ticket is safe.
class PublishTicket {
 public:
  ~PublishTicket();
  PublishTicket(const PublishTicket&) = delete;
  PublishTicket& operator=(const PublishTicket&) = delete;

  /// Blocks until the request finished; idempotent.
  const ServiceResponse& Wait();

 private:
  friend class PublishingService;
  PublishTicket() = default;

  std::mutex mu_;
  std::condition_variable cv_;
  bool done_ = false;
  ServiceResponse response_;
  std::thread coordinator_;
};

class PublishingService {
 public:
  PublishingService(const Database* db, ServiceOptions options);
  ~PublishingService();

  PublishingService(const PublishingService&) = delete;
  PublishingService& operator=(const PublishingService&) = delete;

  /// Admits and starts one request. Fails fast with kResourceExhausted
  /// when the request queue is full (overload shedding) or kUnavailable
  /// after Shutdown; otherwise returns a ticket to Wait on.
  Result<std::shared_ptr<PublishTicket>> Submit(ServiceRequest request);

  /// Submit + Wait. A shed request yields a response holding the
  /// admission status.
  ServiceResponse Publish(ServiceRequest request);

  /// Submits every request concurrently, then waits for all; responses
  /// are positionally aligned with `requests`.
  std::vector<ServiceResponse> PublishAll(std::vector<ServiceRequest> requests);

  /// Cancels in-flight work (interrupting retry backoffs), waits for all
  /// admitted requests to finish, and joins the pool. Idempotent; the
  /// destructor calls it.
  void Shutdown();

  ServiceMetrics metrics() const;
  /// Legacy per-breaker counter map. The canonical export path is the
  /// unified metrics registry (ServiceOptions::metrics_registry), which the
  /// breakers mirror into live; this copy is for tests and callers that
  /// want the raw struct. Defined out of line so the header stays free of
  /// the map-copy machinery.
  std::map<std::string, BreakerCounters> breaker_snapshot() const;
  core::Publisher* publisher() { return &publisher_; }

 private:
  class PooledExecution;

  void RunRequest(ServiceRequest request, PublishTicket* ticket,
                  obs::SpanHandle request_span);

  const Database* db_;
  const ServiceOptions options_;
  core::Publisher publisher_;
  engine::DatabaseExecutor own_executor_;
  engine::SqlExecutor* executor_;  // options_.executor or &own_executor_
  AdmissionController admission_;
  CircuitBreakerRegistry breakers_;
  WorkerPool pool_;
  CancelToken cancel_;

  mutable std::mutex mu_;
  std::condition_variable drained_cv_;
  size_t active_requests_ = 0;
  bool shutdown_ = false;
  ServiceMetrics counters_;  // admission part filled on read
};

}  // namespace silkroute::service

#endif  // SILKROUTE_SERVICE_PUBLISHING_SERVICE_H_
