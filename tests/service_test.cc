// Tests for the concurrent publishing service (src/service/): the
// circuit-breaker state machine (with an injected clock), admission
// control and overload shedding, deadline propagation, and — the key
// property — that concurrent execution produces XML byte-identical to the
// single-threaded Publisher.
#include <gtest/gtest.h>

#include <algorithm>
#include <future>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "common/lanes.h"
#include "engine/fault_injection.h"
#include "engine/result_cache.h"
#include "service/circuit_breaker.h"
#include "service/publishing_service.h"
#include "obs/metrics.h"
#include "rxl/parser.h"
#include "silkroute/publisher.h"
#include "silkroute/queries.h"
#include "silkroute/subview.h"
#include "sql/ddl.h"
#include "tests/test_util.h"

namespace silkroute::service {
namespace {

using core::PlanStrategy;
using core::Publisher;
using core::PublishOptions;

// ---------------------------------------------------------------------------
// CircuitBreaker state machine, driven by an injected clock.

struct BreakerFixture {
  double now = 0;
  CircuitBreaker breaker;

  explicit BreakerFixture(CircuitBreakerOptions options = {})
      : breaker("T", WithClock(std::move(options))) {}

  CircuitBreakerOptions WithClock(CircuitBreakerOptions options) {
    options.now_ms = [this] { return now; };
    return options;
  }
};

TEST(CircuitBreakerTest, TripsAfterConsecutiveFailures) {
  CircuitBreakerOptions options;
  options.failure_threshold = 3;
  BreakerFixture f(options);
  for (int i = 0; i < 2; ++i) {
    auto d = f.breaker.Admit();
    ASSERT_EQ(d, CircuitBreaker::Decision::kAllow);
    f.breaker.RecordFailure(d);
    EXPECT_EQ(f.breaker.state(), BreakerState::kClosed);
  }
  auto d = f.breaker.Admit();
  f.breaker.RecordFailure(d);
  EXPECT_EQ(f.breaker.state(), BreakerState::kOpen);
  EXPECT_EQ(f.breaker.counters().trips, 1u);
  EXPECT_EQ(f.breaker.Admit(), CircuitBreaker::Decision::kFastFail);
}

TEST(CircuitBreakerTest, SuccessResetsConsecutiveFailures) {
  CircuitBreakerOptions options;
  options.failure_threshold = 2;
  BreakerFixture f(options);
  auto d = f.breaker.Admit();
  f.breaker.RecordFailure(d);
  d = f.breaker.Admit();
  f.breaker.RecordSuccess(d);  // streak broken
  d = f.breaker.Admit();
  f.breaker.RecordFailure(d);
  EXPECT_EQ(f.breaker.state(), BreakerState::kClosed);
  d = f.breaker.Admit();
  f.breaker.RecordFailure(d);
  EXPECT_EQ(f.breaker.state(), BreakerState::kOpen);
}

TEST(CircuitBreakerTest, OpenFastFailsUntilCooldownThenProbes) {
  CircuitBreakerOptions options;
  options.failure_threshold = 1;
  options.open_ms = 100;
  BreakerFixture f(options);
  auto d = f.breaker.Admit();
  f.breaker.RecordFailure(d);
  ASSERT_EQ(f.breaker.state(), BreakerState::kOpen);

  f.now = 50;  // still cooling down
  EXPECT_EQ(f.breaker.Admit(), CircuitBreaker::Decision::kFastFail);
  f.now = 101;  // cool-down elapsed: one probe admitted
  EXPECT_EQ(f.breaker.Admit(), CircuitBreaker::Decision::kProbe);
  EXPECT_EQ(f.breaker.state(), BreakerState::kHalfOpen);
  // Second caller while the probe is in flight sheds.
  EXPECT_EQ(f.breaker.Admit(), CircuitBreaker::Decision::kFastFail);
}

TEST(CircuitBreakerTest, ProbeSuccessClosesProbeFailureReTrips) {
  CircuitBreakerOptions options;
  options.failure_threshold = 1;
  options.open_ms = 10;
  BreakerFixture f(options);

  auto d = f.breaker.Admit();
  f.breaker.RecordFailure(d);
  f.now = 11;
  d = f.breaker.Admit();
  ASSERT_EQ(d, CircuitBreaker::Decision::kProbe);
  f.breaker.RecordFailure(d);  // source still sick: re-trip
  EXPECT_EQ(f.breaker.state(), BreakerState::kOpen);
  EXPECT_EQ(f.breaker.counters().trips, 2u);

  f.now = 22;
  d = f.breaker.Admit();
  ASSERT_EQ(d, CircuitBreaker::Decision::kProbe);
  f.breaker.RecordSuccess(d);  // source recovered
  EXPECT_EQ(f.breaker.state(), BreakerState::kClosed);
  EXPECT_EQ(f.breaker.Admit(), CircuitBreaker::Decision::kAllow);
}

TEST(CircuitBreakerTest, AbandonedProbeFreesTheSlot) {
  CircuitBreakerOptions options;
  options.failure_threshold = 1;
  options.open_ms = 10;
  BreakerFixture f(options);
  auto d = f.breaker.Admit();
  f.breaker.RecordFailure(d);
  f.now = 11;
  d = f.breaker.Admit();
  ASSERT_EQ(d, CircuitBreaker::Decision::kProbe);
  // The query never executed (e.g. a sibling breaker fast-failed it):
  // without AbandonProbe the breaker would wait forever for a verdict.
  f.breaker.AbandonProbe(d);
  EXPECT_EQ(f.breaker.Admit(), CircuitBreaker::Decision::kProbe);
}

TEST(CircuitBreakerTest, OpenJitterDesynchronizesSiblingCooldowns) {
  // Two breakers built from the same options struct (same base seed) but
  // different keys draw independent jitter streams: tripped by the same
  // incident, their cool-downs end at different times, so a recovering
  // server sees a trickle of probes instead of a synchronized herd.
  CircuitBreakerOptions options;
  options.failure_threshold = 1;
  options.open_ms = 100;
  options.open_jitter_ms = 100;
  double now = 0;
  options.now_ms = [&now] { return now; };
  CircuitBreaker a("replica-a", options);
  CircuitBreaker b("replica-b", options);
  auto da = a.Admit();
  a.RecordFailure(da);
  auto db = b.Admit();
  b.RecordFailure(db);
  ASSERT_TRUE(a.WouldFastFail());
  ASSERT_TRUE(b.WouldFastFail());

  // Scan the jitter window: there must be a moment where exactly one of
  // the two would admit a probe.
  bool diverged = false;
  for (now = 100; now <= 200 && !diverged; now += 1) {
    diverged = a.WouldFastFail() != b.WouldFastFail();
  }
  EXPECT_TRUE(diverged) << "sibling breakers re-opened in lockstep";
  // Past the worst-case jitter both have cooled down.
  now = 201;
  EXPECT_FALSE(a.WouldFastFail());
  EXPECT_FALSE(b.WouldFastFail());
}

TEST(CircuitBreakerTest, ZeroJitterKeepsCooldownDeterministic) {
  CircuitBreakerOptions options;
  options.failure_threshold = 1;
  options.open_ms = 100;
  options.open_jitter_ms = 0;  // the pre-jitter behavior, bit for bit
  BreakerFixture f(options);
  auto d = f.breaker.Admit();
  f.breaker.RecordFailure(d);
  f.now = 99;
  EXPECT_TRUE(f.breaker.WouldFastFail());
  f.now = 100;
  EXPECT_FALSE(f.breaker.WouldFastFail());
}

TEST(CircuitBreakerTest, WouldFastFailIsSideEffectFree) {
  CircuitBreakerOptions options;
  options.failure_threshold = 1;
  options.open_ms = 100;
  BreakerFixture f(options);
  auto d = f.breaker.Admit();
  f.breaker.RecordFailure(d);
  ASSERT_EQ(f.breaker.state(), BreakerState::kOpen);
  // Polling health must not consume probe admissions or count fast-fails
  // — it is the router's look-before-you-leap check.
  size_t fast_fails = f.breaker.counters().fast_fails;
  for (int i = 0; i < 100; ++i) (void)f.breaker.WouldFastFail();
  EXPECT_EQ(f.breaker.counters().fast_fails, fast_fails);
  f.now = 101;
  EXPECT_FALSE(f.breaker.WouldFastFail());
  EXPECT_EQ(f.breaker.state(), BreakerState::kOpen);  // still no transition
  EXPECT_EQ(f.breaker.Admit(), CircuitBreaker::Decision::kProbe);
}

TEST(CircuitBreakerTest, RegistryCreatesPerKeyAndAggregates) {
  CircuitBreakerOptions options;
  options.failure_threshold = 1;
  CircuitBreakerRegistry registry(options);
  CircuitBreaker* t = registry.Get("T");
  EXPECT_EQ(t, registry.Get("T"));
  CircuitBreaker* u = registry.Get("U");
  EXPECT_NE(t, u);
  auto d = t->Admit();
  t->RecordFailure(d);
  (void)t->Admit();  // fast-fail while open
  EXPECT_EQ(registry.TotalTrips(), 1u);
  EXPECT_EQ(registry.TotalFastFails(), 1u);
  auto snapshot = registry.Snapshot();
  EXPECT_EQ(snapshot.at("T").state, BreakerState::kOpen);
  EXPECT_EQ(snapshot.at("U").state, BreakerState::kClosed);
}

// ---------------------------------------------------------------------------
// PublishingService over a small two-table database.

std::unique_ptr<Database> MakeTwoTableDb() {
  auto db = std::make_unique<Database>();
  EXPECT_TRUE(sql::ExecuteDdl(
                  "CREATE TABLE T (k INT PRIMARY KEY, v TEXT);"
                  "CREATE TABLE U (k INT PRIMARY KEY, w TEXT, tk INT,"
                  " FOREIGN KEY (tk) REFERENCES T(k))",
                  db.get())
                  .ok());
  EXPECT_TRUE(
      db->Insert("T", Tuple{Value::Int64(1), Value::String("a")}).ok());
  EXPECT_TRUE(
      db->Insert("T", Tuple{Value::Int64(2), Value::String("b")}).ok());
  EXPECT_TRUE(db->Insert("U", Tuple{Value::Int64(10), Value::String("x"),
                                    Value::Int64(1)})
                  .ok());
  EXPECT_TRUE(db->Insert("U", Tuple{Value::Int64(11), Value::String("y"),
                                    Value::Int64(1)})
                  .ok());
  EXPECT_TRUE(db->Insert("U", Tuple{Value::Int64(12), Value::String("z"),
                                    Value::Int64(2)})
                  .ok());
  return db;
}

constexpr char kTwoTableRxl[] =
    "from T $t construct <t><v>$t.v</v>"
    "{ from U $u where $t.k = $u.tk construct <u>$u.w</u> }</t>";

std::string SequentialReference(const Database* db, PlanStrategy strategy) {
  Publisher publisher(db);
  PublishOptions options;
  options.strategy = strategy;
  options.document_element = "doc";
  std::ostringstream out;
  auto result = publisher.Publish(kTwoTableRxl, options, &out);
  EXPECT_TRUE(result.ok()) << result.status();
  return out.str();
}

ServiceRequest MakeRequest(PlanStrategy strategy) {
  ServiceRequest request;
  request.rxl = kTwoTableRxl;
  request.options.strategy = strategy;
  request.options.document_element = "doc";
  return request;
}

TEST(PublishingServiceTest, ConcurrentPublishIsByteIdenticalToSequential) {
  auto db = MakeTwoTableDb();
  for (PlanStrategy strategy :
       {PlanStrategy::kUnified, PlanStrategy::kFullyPartitioned,
        PlanStrategy::kGreedy}) {
    std::string reference = SequentialReference(db.get(), strategy);
    ServiceOptions options;
    options.workers = 8;
    PublishingService service(db.get(), options);
    ServiceResponse response = service.Publish(MakeRequest(strategy));
    ASSERT_TRUE(response.status.ok()) << response.status;
    EXPECT_FALSE(response.result.metrics.timed_out);
    EXPECT_EQ(response.xml, reference);
  }
}

TEST(PublishingServiceTest, PublishAllConcurrentRequestsAllIdentical) {
  auto db = MakeTwoTableDb();
  std::string reference =
      SequentialReference(db.get(), PlanStrategy::kFullyPartitioned);
  ServiceOptions options;
  options.workers = 8;
  PublishingService service(db.get(), options);
  std::vector<ServiceRequest> requests;
  for (int i = 0; i < 12; ++i) {
    requests.push_back(MakeRequest(PlanStrategy::kFullyPartitioned));
  }
  auto responses = service.PublishAll(std::move(requests));
  ASSERT_EQ(responses.size(), 12u);
  for (const auto& response : responses) {
    ASSERT_TRUE(response.status.ok()) << response.status;
    EXPECT_EQ(response.xml, reference);
  }
  auto metrics = service.metrics();
  EXPECT_EQ(metrics.completed, 12u);
  EXPECT_EQ(metrics.failed, 0u);
  EXPECT_EQ(metrics.admission.admitted, 12u);
  EXPECT_EQ(metrics.admission.shed_requests, 0u);
}

TEST(PublishingServiceTest, ConcurrentSubviewsShareThePreparedPlans) {
  // Sec. 7 fragments of Query 1, each requested six times at once by 8
  // workers. Racing misses of one view wait for the planning lock and find
  // the first one's plan, so each view is planned exactly once, and every
  // document must still equal the serial one.
  auto db = core::testutil::MakeTinyTpch(0.002);
  auto view = rxl::ParseRxl(core::Query1Rxl());
  ASSERT_TRUE(view.ok()) << view.status();
  std::vector<std::string> texts;
  for (const char* path :
       {"/supplier[nation='FRANCE']", "/supplier[nation='GERMANY']",
        "/supplier[nation='PERU']", "/supplier/part/order[orderkey=1]",
        "/supplier/part/order[orderkey=3]",
        "/supplier/part/order[orderkey=7]"}) {
    auto composed = core::ComposeSubview(*view, path);
    ASSERT_TRUE(composed.ok()) << path << ": " << composed.status();
    texts.push_back(composed->ToString());
  }
  PublishOptions options;
  options.document_element = "fragment";
  std::vector<std::string> serial;
  for (const std::string& text : texts) {
    Publisher publisher(db.get());
    std::ostringstream out;
    auto result = publisher.Publish(text, options, &out);
    ASSERT_TRUE(result.ok()) << result.status();
    serial.push_back(out.str());
  }

  obs::MetricsRegistry registry;
  ServiceOptions service_options;
  service_options.workers = 8;
  service_options.admission.max_pending_requests = 64;
  service_options.metrics_registry = &registry;
  PublishingService service(db.get(), service_options);
  constexpr size_t kRounds = 6;
  std::vector<ServiceRequest> requests;
  for (size_t round = 0; round < kRounds; ++round) {
    for (const std::string& text : texts) {
      ServiceRequest request;
      request.rxl = text;
      request.options = options;
      requests.push_back(std::move(request));
    }
  }
  auto responses = service.PublishAll(std::move(requests));
  ASSERT_EQ(responses.size(), kRounds * texts.size());
  for (size_t i = 0; i < responses.size(); ++i) {
    ASSERT_TRUE(responses[i].status.ok()) << responses[i].status;
    EXPECT_EQ(responses[i].xml, serial[i % texts.size()]) << i;
  }
  auto counters = registry.Snapshot().counters;
  uint64_t hits = counters.at("silkroute_plan_cache_hits_total");
  uint64_t misses = counters.at("silkroute_plan_cache_misses_total");
  EXPECT_EQ(misses, texts.size());
  EXPECT_EQ(hits, responses.size() - texts.size());
}

TEST(PublishingServiceTest, QueryBudgetZeroShedsWithResourceExhausted) {
  auto db = MakeTwoTableDb();
  ServiceOptions options;
  options.admission.max_in_flight_queries = 0;
  PublishingService service(db.get(), options);
  ServiceResponse response =
      service.Publish(MakeRequest(PlanStrategy::kUnified));
  EXPECT_EQ(response.status.code(), StatusCode::kResourceExhausted);
  auto metrics = service.metrics();
  EXPECT_EQ(metrics.failed, 1u);
  EXPECT_GE(metrics.admission.shed_queries, 1u);
}

TEST(PublishingServiceTest, MemoryBudgetShedsWithResourceExhausted) {
  auto db = MakeTwoTableDb();
  ServiceOptions options;
  options.admission.max_buffered_bytes = 1;  // nothing fits
  PublishingService service(db.get(), options);
  ServiceResponse response =
      service.Publish(MakeRequest(PlanStrategy::kUnified));
  EXPECT_EQ(response.status.code(), StatusCode::kResourceExhausted);
  EXPECT_GE(service.metrics().admission.shed_memory, 1u);
  // The failed request released whatever it had reserved.
  EXPECT_EQ(service.metrics().admission.buffered_bytes, 0u);
}

TEST(PublishingServiceTest, RequestQueueFullShedsExcess) {
  auto db = MakeTwoTableDb();
  engine::DatabaseExecutor db_executor(db.get());
  engine::FaultPolicy policy;
  engine::FaultRule slow;
  slow.latency_ms = 100;  // keep admitted requests in flight
  policy.rules.push_back(slow);
  engine::FaultInjectingExecutor faulty(&db_executor, policy);

  ServiceOptions options;
  options.workers = 1;
  options.admission.max_pending_requests = 1;
  options.executor = &faulty;
  PublishingService service(db.get(), options);

  std::vector<std::shared_ptr<PublishTicket>> tickets;
  size_t shed = 0;
  for (int i = 0; i < 4; ++i) {
    auto ticket = service.Submit(MakeRequest(PlanStrategy::kUnified));
    if (ticket.ok()) {
      tickets.push_back(std::move(ticket).value());
    } else {
      EXPECT_EQ(ticket.status().code(), StatusCode::kResourceExhausted);
      ++shed;
    }
  }
  ASSERT_FALSE(tickets.empty());
  for (auto& ticket : tickets) {
    EXPECT_TRUE(ticket->Wait().status.ok()) << ticket->Wait().status;
  }
  EXPECT_GE(shed, 1u);
  auto metrics = service.metrics();
  EXPECT_EQ(metrics.admission.shed_requests, shed);
  EXPECT_EQ(metrics.completed, tickets.size());
}

TEST(PublishingServiceTest, SickTableTripsBreakerAndDegradesWithoutRetries) {
  auto db = MakeTwoTableDb();
  engine::DatabaseExecutor db_executor(db.get());
  engine::FaultPolicy policy;
  engine::FaultRule sick;
  sick.table = "U";
  sick.fail = true;  // permanent: every U query fails
  policy.rules.push_back(sick);
  engine::FaultInjectingExecutor faulty(&db_executor, policy);
  faulty.set_sleep_fn([](double) {});

  ServiceOptions options;
  options.workers = 4;
  options.executor = &faulty;
  options.breaker.failure_threshold = 1;
  options.breaker.open_ms = 1e9;  // stays open for the whole test
  options.retry.max_attempts = 2;
  options.retry.sleep_fn = [](double) {};
  PublishingService service(db.get(), options);

  // Request 1 learns the hard way: the U component query fails, is
  // retried, then degrades to the single-node limit and is skipped
  // best-effort. Its failure trips U's breaker.
  ServiceResponse first =
      service.Publish(MakeRequest(PlanStrategy::kFullyPartitioned));
  ASSERT_TRUE(first.status.ok()) << first.status;
  EXPECT_FALSE(first.result.metrics.failed_nodes.empty());
  EXPECT_GE(first.result.metrics.retries, 1u);
  auto breakers = service.breaker_snapshot();
  ASSERT_TRUE(breakers.count("U"));
  EXPECT_EQ(breakers.at("U").state, BreakerState::kOpen);
  EXPECT_EQ(breakers.at("T").state, BreakerState::kClosed);

  // Request 2 fast-fails at the open breaker: same best-effort document,
  // but the U query never executes and no retry budget is burned.
  int executions_before = faulty.stats().executions;
  ServiceResponse second =
      service.Publish(MakeRequest(PlanStrategy::kFullyPartitioned));
  ASSERT_TRUE(second.status.ok()) << second.status;
  EXPECT_EQ(second.xml, first.xml);
  EXPECT_GE(second.result.metrics.breaker_fast_fails, 1u);
  EXPECT_EQ(second.result.metrics.retries, 0u);
  EXPECT_EQ(second.result.metrics.failed_nodes,
            first.result.metrics.failed_nodes);
  // Only the healthy T-backed queries (<t> and <v> components) reached the
  // source; the U query was rejected at the breaker without executing.
  EXPECT_EQ(faulty.stats().executions - executions_before, 2);
  EXPECT_GE(service.metrics().breaker_trips, 1u);
  EXPECT_GE(service.metrics().breaker_fast_fails, 1u);
}

TEST(PublishingServiceTest, ExpiredDeadlineReportsTimeoutWithoutDocument) {
  auto db = MakeTwoTableDb();
  ServiceOptions options;
  PublishingService service(db.get(), options);
  ServiceRequest request = MakeRequest(PlanStrategy::kUnified);
  request.deadline_ms = 1e-6;  // expired before the first component runs
  ServiceResponse response = service.Publish(std::move(request));
  ASSERT_TRUE(response.status.ok()) << response.status;
  EXPECT_TRUE(response.result.metrics.timed_out);
  EXPECT_TRUE(response.xml.empty());
  EXPECT_EQ(service.metrics().timed_out, 1u);
}

TEST(PublishingServiceTest, SubmitAfterShutdownIsUnavailable) {
  auto db = MakeTwoTableDb();
  PublishingService service(db.get(), ServiceOptions{});
  service.Shutdown();
  auto ticket = service.Submit(MakeRequest(PlanStrategy::kUnified));
  ASSERT_FALSE(ticket.ok());
  EXPECT_EQ(ticket.status().code(), StatusCode::kUnavailable);
}

TEST(PublishingServiceTest, ConcurrentWaitOnSharedTicketIsSafe) {
  // Wait() hands out a shared_ptr ticket; several threads waiting on the
  // same ticket must serialize the coordinator join instead of racing it.
  auto db = MakeTwoTableDb();
  std::string reference =
      SequentialReference(db.get(), PlanStrategy::kUnified);
  PublishingService service(db.get(), ServiceOptions{});
  auto ticket = service.Submit(MakeRequest(PlanStrategy::kUnified));
  ASSERT_TRUE(ticket.ok()) << ticket.status();
  std::vector<std::string> xml(4);
  std::vector<std::thread> waiters;
  for (size_t i = 0; i < xml.size(); ++i) {
    waiters.emplace_back([&, i] { xml[i] = (*ticket)->Wait().xml; });
  }
  for (auto& waiter : waiters) waiter.join();
  for (const auto& doc : xml) EXPECT_EQ(doc, reference);
}

TEST(PublishingServiceTest, ShutdownRacingSubmitDrainsEveryAdmittedRequest) {
  // Regression for two shutdown races: a request admitted concurrently
  // with Shutdown must either be rejected (kUnavailable) or fully covered
  // by the drain, and destroying the service the moment Shutdown returns
  // must not race the coordinators' last drained-state notification.
  auto db = MakeTwoTableDb();
  for (int round = 0; round < 8; ++round) {
    ServiceOptions options;
    options.admission.max_pending_requests = 256;  // never shed, only drain
    auto service = std::make_unique<PublishingService>(db.get(), options);
    std::vector<std::vector<std::shared_ptr<PublishTicket>>> tickets(3);
    std::vector<std::thread> submitters;
    for (size_t t = 0; t < tickets.size(); ++t) {
      submitters.emplace_back([&, t] {
        for (int i = 0; i < 16; ++i) {
          auto ticket = service->Submit(MakeRequest(PlanStrategy::kUnified));
          if (!ticket.ok()) {
            EXPECT_EQ(ticket.status().code(), StatusCode::kUnavailable);
            break;
          }
          tickets[t].push_back(std::move(ticket).value());
        }
      });
    }
    service->Shutdown();  // races the submitters by design
    for (auto& submitter : submitters) submitter.join();
    service.reset();  // every admitted coordinator is past the drain point
    for (auto& per_thread : tickets) {
      for (auto& ticket : per_thread) {
        // Every admitted request is fulfilled: completed before the
        // cancel, or kUnavailable if cancelled mid-flight.
        const ServiceResponse& response = ticket->Wait();
        if (!response.status.ok()) {
          EXPECT_EQ(response.status.code(), StatusCode::kUnavailable);
        }
      }
    }
  }
}

TEST(PublishingServiceTest, ConcurrentFaultyLoadStaysConsistent) {
  // TSan fodder: many concurrent requests over a flaky shared executor.
  auto db = MakeTwoTableDb();
  engine::DatabaseExecutor db_executor(db.get());
  engine::FaultPolicy policy;
  engine::FaultRule flaky;
  flaky.flake_probability = 0.3;  // transient, seeded
  policy.rules.push_back(flaky);
  engine::FaultInjectingExecutor faulty(&db_executor, policy);
  faulty.set_sleep_fn([](double) {});

  std::string reference =
      SequentialReference(db.get(), PlanStrategy::kFullyPartitioned);
  ServiceOptions options;
  options.workers = 8;
  options.executor = &faulty;
  options.retry.max_attempts = 10;
  options.retry.sleep_fn = [](double) {};
  PublishingService service(db.get(), options);
  std::vector<ServiceRequest> requests;
  for (int i = 0; i < 16; ++i) {
    requests.push_back(MakeRequest(PlanStrategy::kFullyPartitioned));
  }
  auto responses = service.PublishAll(std::move(requests));
  for (const auto& response : responses) {
    ASSERT_TRUE(response.status.ok()) << response.status;
    // Transient flakes are retried (or components degraded) away; the
    // document always comes out byte-identical.
    if (response.result.metrics.failed_nodes.empty()) {
      EXPECT_EQ(response.xml, reference);
    }
  }
}


// ---------------------------------------------------------------------------
// Strategy parity: the sequential Publisher and the pooled service run the
// same component step, so one deterministic fault setup must end the same
// way through both, at any worker count. Breakers never trip here (the
// threshold is out of reach), so the service adds nothing but dispatch.

struct ParityCase {
  std::string name;
  PlanStrategy strategy = PlanStrategy::kUnified;
  engine::FaultPolicy policy;
  bool strict = false;
  int retry_budget = 64;
  /// Publish once cold through a ResultCache, insert one U row, and report
  /// the republish.
  bool cached = false;
};

struct ParityOutcome {
  StatusCode code = StatusCode::kOk;
  std::string xml;
  core::PlanMetrics metrics;
};

/// Runs `c` on a fresh database and fault schedule: through
/// Publisher::Publish when `workers` is 0, else through a PublishingService
/// with that many workers.
ParityOutcome RunParityCase(const ParityCase& c, size_t workers) {
  auto db = MakeTwoTableDb();
  engine::DatabaseExecutor db_executor(db.get());
  engine::FaultInjectingExecutor faulty(&db_executor, c.policy);
  faulty.set_sleep_fn([](double) {});
  engine::ResultCache cache(engine::ResultCache::Options{});

  PublishOptions options;
  options.strategy = c.strategy;
  options.document_element = "doc";
  options.strict = c.strict;
  options.executor = &faulty;
  options.retry.max_attempts = 2;
  options.retry.retry_budget = c.retry_budget;
  options.retry.sleep_fn = [](double) {};
  options.result_cache = c.cached ? &cache : nullptr;

  Publisher publisher(db.get());
  std::unique_ptr<PublishingService> service;
  if (workers > 0) {
    ServiceOptions service_options;
    service_options.workers = workers;
    service_options.executor = &faulty;
    service_options.retry = options.retry;
    service_options.result_cache = options.result_cache;
    service_options.breaker.failure_threshold = 1000;
    service = std::make_unique<PublishingService>(db.get(), service_options);
  }
  auto publish = [&] {
    ParityOutcome outcome;
    if (service != nullptr) {
      ServiceRequest request;
      request.rxl = kTwoTableRxl;
      request.options = options;
      ServiceResponse response = service->Publish(std::move(request));
      outcome.code = response.status.code();
      outcome.xml = response.xml;
      outcome.metrics = response.result.metrics;
    } else {
      std::ostringstream out;
      auto result = publisher.Publish(kTwoTableRxl, options, &out);
      outcome.code = result.status().code();
      if (result.ok()) {
        outcome.xml = out.str();
        outcome.metrics = result->metrics;
      }
    }
    return outcome;
  };
  if (!c.cached) return publish();
  EXPECT_EQ(publish().code, StatusCode::kOk);
  EXPECT_TRUE(db->Insert("U", Tuple{Value::Int64(13), Value::String("w"),
                                    Value::Int64(2)})
                  .ok());
  return publish();
}

std::vector<std::string> SortedSql(const core::PlanMetrics& metrics) {
  std::vector<std::string> sql = metrics.sql;
  std::sort(sql.begin(), sql.end());
  return sql;
}

std::vector<std::tuple<std::vector<int>, bool, StatusCode>> SortedComponents(
    const core::PlanMetrics& metrics) {
  std::vector<std::tuple<std::vector<int>, bool, StatusCode>> components;
  for (const core::ComponentOutcome& c : metrics.components) {
    components.emplace_back(c.nodes, c.degraded, c.final_status);
  }
  std::sort(components.begin(), components.end());
  return components;
}

std::vector<ParityCase> ParityCases() {
  engine::FaultRule sick_u;
  sick_u.table = "U";
  sick_u.fail = true;  // permanent
  engine::FaultRule transient;
  transient.fail = true;
  transient.times = 1;

  std::vector<ParityCase> cases(4);
  cases[0].name = "permanent U failure degrades to a skipped node";
  cases[0].policy.rules = {sick_u};
  cases[1].name = "strict mode on the failing table";
  cases[1].policy.rules = {sick_u};
  cases[1].strict = true;
  cases[2].name = "zero retry budget against a transient failure";
  cases[2].policy.rules = {transient};
  cases[2].retry_budget = 0;
  cases[3].name = "republish after one insert through the result cache";
  cases[3].strategy = PlanStrategy::kFullyPartitioned;
  cases[3].cached = true;
  return cases;
}

TEST(StrategyParityTest, SequentialAndPooledEndTheSame) {
  for (const ParityCase& c : ParityCases()) {
    SCOPED_TRACE(c.name);
    ParityOutcome sequential = RunParityCase(c, 0);
    for (size_t workers : {1, 4}) {
      SCOPED_TRACE("workers=" + std::to_string(workers));
      ParityOutcome pooled = RunParityCase(c, workers);
      EXPECT_EQ(pooled.code, sequential.code);
      EXPECT_EQ(pooled.xml, sequential.xml);
      EXPECT_EQ(pooled.metrics.failed_nodes, sequential.metrics.failed_nodes);
      EXPECT_EQ(pooled.metrics.degraded_components,
                sequential.metrics.degraded_components);
      EXPECT_EQ(pooled.metrics.cache_hits, sequential.metrics.cache_hits);
      EXPECT_EQ(pooled.metrics.cache_misses, sequential.metrics.cache_misses);
      EXPECT_EQ(SortedSql(pooled.metrics), SortedSql(sequential.metrics));
      EXPECT_EQ(SortedComponents(pooled.metrics),
                SortedComponents(sequential.metrics));
    }
  }
}

TEST(StrategyParityTest, CasesReachTheirIntendedOutcome) {
  std::vector<ParityCase> cases = ParityCases();
  ParityOutcome skipped = RunParityCase(cases[0], 0);
  ASSERT_EQ(skipped.code, StatusCode::kOk);
  EXPECT_FALSE(skipped.metrics.failed_nodes.empty());
  EXPECT_EQ(skipped.metrics.degraded_components, 1u);
  EXPECT_EQ(RunParityCase(cases[1], 0).code, StatusCode::kUnavailable);
  EXPECT_EQ(RunParityCase(cases[2], 0).code, StatusCode::kResourceExhausted);
  ParityOutcome republished = RunParityCase(cases[3], 0);
  ASSERT_EQ(republished.code, StatusCode::kOk);
  EXPECT_GE(republished.metrics.cache_hits, 1u);
  EXPECT_GE(republished.metrics.cache_misses, 1u);
  // Only the queries actually sent are listed: the fragment-cache hits
  // are not.
  EXPECT_EQ(republished.metrics.sql.size(), republished.metrics.cache_misses);
}

/// Records how many core lanes were busy while each query ran.
class LaneRecordingExecutor : public engine::DatabaseExecutor {
 public:
  using DatabaseExecutor::DatabaseExecutor;
  Result<engine::Rows> ExecuteRows(std::string_view sql, double timeout_ms,
                                   CancelToken* cancel) override {
    busy.push_back(BusyLanes());
    return DatabaseExecutor::ExecuteRows(sql, timeout_ms, cancel);
  }
  std::vector<size_t> busy;
};

TEST(PublisherLanesTest, APublishHoldsOneBusyLane) {
  // The sequential strategy runs its queries on the publishing thread,
  // which counts as one busy lane for the whole publish.
  auto db = core::testutil::MakeTinyTpch(0.002);
  LaneRecordingExecutor executor(db.get());
  PublishOptions options;
  options.executor = &executor;
  std::ostringstream out;
  ASSERT_EQ(BusyLanes(), 0u);
  auto result = Publisher(db.get()).Publish(core::Query1Rxl(), options, &out);
  ASSERT_TRUE(result.ok()) << result.status();
  ASSERT_FALSE(executor.busy.empty());
  for (size_t busy : executor.busy) EXPECT_EQ(busy, 1u);
  EXPECT_EQ(BusyLanes(), 0u);
}

TEST(WorkerPoolTest, ARunningTaskHoldsABusyLane) {
  // The range-parallel tagger borrows only lanes no pool worker is using.
  ASSERT_EQ(BusyLanes(), 0u);
  std::promise<size_t> seen;
  {
    WorkerPool pool(2);
    ASSERT_TRUE(pool.Submit([&] { seen.set_value(BusyLanes()); }));
    EXPECT_EQ(seen.get_future().get(), 1u);
  }
  EXPECT_EQ(BusyLanes(), 0u);
}

}  // namespace
}  // namespace silkroute::service
