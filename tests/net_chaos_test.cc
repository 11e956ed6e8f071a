// Networked federation tests: EngineServer <-> RemoteSqlExecutor
// equivalence over real loopback sockets, a deep-SQL frame refused without
// taking the server down, deadline propagation through the
// frame header, cancellation of blocked reads, 1-vs-8 service concurrency
// determinism through a socket pair, the seeded FlakyProxy chaos loop
// (torn frames, truncated/oversized lengths, resets, stalls, refusals),
// end-to-end failover when the remote server is killed and restarted,
// connection-pool TTL hygiene, and the replica-set chaos suite: 200
// seeded schedules of dead/slow/flapping/reset replicas plus the
// kill-one-of-three recovery story (DESIGN.md §13).
#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "tests/support/flaky_proxy.h"
#include "net/remote_executor.h"
#include "net/replica_set.h"
#include "net/server.h"
#include "service/federated_executor.h"
#include "service/publishing_service.h"
#include "silkroute/publisher.h"
#include "silkroute/queries.h"
#include "tests/test_util.h"

namespace silkroute::net {
namespace {

using core::PlanStrategy;
using core::Publisher;
using core::PublishOptions;
using core::testutil::MakeTinyTpch;
using service::FederatedExecutor;
using service::FederatedExecutorOptions;
using service::PublishingService;
using service::ServiceOptions;
using service::ServiceRequest;
using service::ServiceResponse;

/// Shared fixture: one tiny TPC-H database, one EngineServer over it, and
/// the serial in-process reference XML the networked paths must reproduce
/// byte-for-byte.
class NetFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    db_ = MakeTinyTpch(0.002);
    EngineServerOptions server_options;
    server_options.workers = 4;
    server_ = std::make_unique<EngineServer>(db_.get(), server_options);
    ASSERT_TRUE(server_->Start().ok());

    Publisher publisher(db_.get());
    PublishOptions options = PublishOpts();
    std::ostringstream out;
    auto result = publisher.Publish(core::Query1Rxl(), options, &out);
    ASSERT_TRUE(result.ok()) << result.status();
    reference_ = out.str();
  }

  void TearDown() override {
    if (server_ != nullptr) server_->Shutdown();
  }

  static PublishOptions PublishOpts() {
    PublishOptions options;
    options.strategy = PlanStrategy::kFullyPartitioned;
    // Strict: a failed component fails the publish instead of degrading to
    // a partial document. The chaos invariant is "byte-identical XML or a
    // clean error" — best-effort skipping would turn an unavailable
    // component into silently missing elements.
    options.strict = true;
    return options;
  }

  RemoteExecutorOptions RemoteOpts(uint16_t port) {
    RemoteExecutorOptions options;
    options.port = port;
    options.connect_attempts = 2;
    options.dial_timeout_ms = 500;
    options.backoff_initial_ms = 5;
    options.backoff_max_ms = 20;
    return options;
  }

  std::unique_ptr<Database> db_;
  std::unique_ptr<EngineServer> server_;
  std::string reference_;
};

TEST_F(NetFixture, RemoteExecutionMatchesLocal) {
  engine::DatabaseExecutor local(db_.get());
  RemoteSqlExecutor remote(RemoteOpts(server_->port()));
  const std::string sql =
      "select suppkey, name from Supplier order by suppkey";
  auto local_result = local.ExecuteSql(sql);
  ASSERT_TRUE(local_result.ok()) << local_result.status();
  auto remote_result = remote.ExecuteSql(sql);
  ASSERT_TRUE(remote_result.ok()) << remote_result.status();
  ASSERT_EQ(remote_result->rows.size(), local_result->rows.size());
  ASSERT_EQ(remote_result->schema.size(), local_result->schema.size());
  for (size_t i = 0; i < local_result->rows.size(); ++i) {
    EXPECT_EQ(remote_result->rows[i], local_result->rows[i]) << i;
  }
  // The served counter increments on the connection thread after the final
  // frame is written, so the client can hold the response a beat earlier.
  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (server_->requests_served() == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(server_->requests_served(), 1u);
  // The exchange's connection was parked for reuse.
  EXPECT_EQ(remote.pooled_connections(), 1u);
  auto again = remote.ExecuteSql(sql);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(server_->connections_accepted(), 1u);  // reused, not re-dialed
}

TEST_F(NetFixture, ServerReportsSqlErrorsAsCleanStatus) {
  RemoteSqlExecutor remote(RemoteOpts(server_->port()));
  auto result = remote.ExecuteSql("select nope from NoSuchTable");
  EXPECT_FALSE(result.ok());
  // The carried code passes through verbatim — not disguised as a
  // transport failure.
  EXPECT_NE(result.status().code(), StatusCode::kUnavailable);
}

TEST_F(NetFixture, DeepSqlGetsAnErrorFrameAndTheServerStaysUp) {
  // 10,000 nested parentheses (about 20 KB of text) overflowed a parser
  // thread's stack before the SQL nesting budget; the frame now gets the
  // parser's error back, and the same server keeps answering.
  RemoteSqlExecutor remote(RemoteOpts(server_->port()));
  const std::string deep = "select suppkey from Supplier where " +
                           std::string(10000, '(') + "suppkey = 1" +
                           std::string(10000, ')');
  auto refused = remote.ExecuteSql(deep);
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), StatusCode::kInvalidArgument)
      << refused.status();
  auto answered =
      remote.ExecuteSql("select suppkey from Supplier where suppkey = 1");
  ASSERT_TRUE(answered.ok()) << answered.status();
  EXPECT_EQ(answered->rows.size(), 1u);
}

TEST_F(NetFixture, LongOrChainGetsAnErrorFrameAndTheServerStaysUp) {
  // 100,000 `or suppkey = 1` terms (about 1.6 MB) built a left-deep tree
  // whose recursive destructor overflowed the server thread's stack; the
  // parser now refuses the tree past kMaxTreeHeight.
  RemoteSqlExecutor remote(RemoteOpts(server_->port()));
  std::string chain = "select suppkey from Supplier where suppkey = 1";
  for (int i = 0; i < 100000; ++i) chain += " or suppkey = 1";
  auto refused = remote.ExecuteSql(chain);
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), StatusCode::kInvalidArgument)
      << refused.status();
  auto answered =
      remote.ExecuteSql("select suppkey from Supplier where suppkey = 1");
  ASSERT_TRUE(answered.ok()) << answered.status();
  EXPECT_EQ(answered->rows.size(), 1u);
}

TEST_F(NetFixture, TokenFloodGetsAnErrorFrameAndTheServerStaysUp) {
  // 4M one-character tokens (8 MB, far below kMaxFramePayload): the lexer
  // used to store all of them, 48 bytes each, before any budget applied;
  // it now refuses the text past sql::kMaxTokens.
  RemoteSqlExecutor remote(RemoteOpts(server_->port()));
  std::string flood = "select";
  for (int i = 0; i < (1 << 22); ++i) flood += " a";
  auto refused = remote.ExecuteSql(flood);
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), StatusCode::kInvalidArgument)
      << refused.status();
  auto answered =
      remote.ExecuteSql("select suppkey from Supplier where suppkey = 1");
  ASSERT_TRUE(answered.ok()) << answered.status();
  EXPECT_EQ(answered->rows.size(), 1u);
}

TEST_F(NetFixture, ArithmeticOnAStringGetsAnErrorFrameAndTheServerStaysUp) {
  // Arithmetic on a string used to abort the process inside the engine.
  RemoteSqlExecutor remote(RemoteOpts(server_->port()));
  auto refused = remote.ExecuteSql("select name + 0 as x from Supplier");
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), StatusCode::kInvalidArgument)
      << refused.status();
  auto answered =
      remote.ExecuteSql("select suppkey from Supplier where suppkey = 1");
  ASSERT_TRUE(answered.ok()) << answered.status();
  EXPECT_EQ(answered->rows.size(), 1u);
}

TEST_F(NetFixture, NestedJoinChainsGetAnErrorFrameAndTheServerStaysUp) {
  // 255 derived tables nested one in another, each the left end of a
  // 1,000-JOIN chain (about 6 MB): every chain alone fits the height
  // budget, but together they are one join tree about 255,000 levels high.
  RemoteSqlExecutor remote(RemoteOpts(server_->port()));
  std::string chain;
  for (int i = 0; i < 1000; ++i) chain += " join Supplier on suppkey = 1";
  std::string nested = "select suppkey from Supplier" + chain;
  for (int i = 1; i < 255; ++i) {
    nested = "select suppkey from (" + nested + ") d" + chain;
  }
  auto refused = remote.ExecuteSql(nested);
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), StatusCode::kInvalidArgument)
      << refused.status();
  auto answered =
      remote.ExecuteSql("select suppkey from Supplier where suppkey = 1");
  ASSERT_TRUE(answered.ok()) << answered.status();
  EXPECT_EQ(answered->rows.size(), 1u);
}

TEST_F(NetFixture, DeadlinePropagatesThroughFrameHeader) {
  // Raw frame exchange: a request whose header carries a 1µs budget must
  // be rejected by the *server's* deadline check — proof that the budget
  // rides the wire, not just the client's clock.
  IoOptions io = IoOptions::WithTimeout(5000);
  auto socket = Dial("127.0.0.1", server_->port(), io);
  ASSERT_TRUE(socket.ok()) << socket.status();
  FrameHeader header;
  header.type = FrameType::kRequest;
  header.request_id = 99;
  header.budget_us = 1;
  std::string payload;
  EncodeRequestPayload("select suppkey from Supplier", &payload);
  ASSERT_TRUE(WriteFrame(&*socket, header, payload, io).ok());
  auto response = ReadFrame(&*socket, io);
  ASSERT_TRUE(response.ok()) << response.status();
  ASSERT_EQ(response->header.type, FrameType::kError);
  EXPECT_EQ(response->header.request_id, 99u);
  Status carried = Status::OK();
  ASSERT_TRUE(DecodeErrorPayload(response->payload, &carried).ok());
  EXPECT_EQ(carried.code(), StatusCode::kTimeout) << carried;
  EXPECT_GE(server_->deadline_rejects() + server_->requests_failed(), 1u);

  // And through the executor: a sub-millisecond budget times out cleanly.
  RemoteSqlExecutor remote(RemoteOpts(server_->port()));
  auto result = remote.ExecuteSqlWithDeadline(
      "select suppkey from Supplier", 0.05);
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kTimeout)
      << result.status();
}

TEST_F(NetFixture, ConnectionRefusedIsUnavailableAfterRetries) {
  Listener dead = std::move(Listener::Bind("127.0.0.1", 0)).value();
  uint16_t port = dead.port();
  dead.Close();  // nothing listens here now
  RemoteSqlExecutor remote(RemoteOpts(port));
  auto result = remote.ExecuteSql("select 1 from Supplier");
  EXPECT_EQ(result.status().code(), StatusCode::kUnavailable);
  EXPECT_GE(remote.reconnects(), 1u);  // backoff retries happened
}

// Regression: Shutdown() must unblock a client whose read is stuck on a
// server that accepted the connection but will never respond.
TEST(NetCancelTest, ShutdownUnblocksReadStuckOnDeadServer) {
  auto silent = std::move(Listener::Bind("127.0.0.1", 0)).value();
  RemoteExecutorOptions options;
  options.port = silent.port();
  options.poll_interval_ms = 5;
  RemoteSqlExecutor remote(options);

  std::atomic<bool> returned{false};
  Status status = Status::OK();
  std::thread caller([&] {
    // No deadline: without cancellation this read would block forever.
    auto result = remote.ExecuteSqlWithDeadline("select 1 from T", 0);
    status = result.status();
    returned.store(true);
  });
  // Give the caller time to connect and block in the response read.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  EXPECT_FALSE(returned.load());
  auto t0 = std::chrono::steady_clock::now();
  remote.Shutdown();
  caller.join();
  double unblock_ms = std::chrono::duration<double, std::milli>(
                          std::chrono::steady_clock::now() - t0)
                          .count();
  EXPECT_TRUE(returned.load());
  EXPECT_EQ(status.code(), StatusCode::kUnavailable);
  // Within a few poll intervals, not hanging.
  EXPECT_LT(unblock_ms, 2000.0);
}

TEST_F(NetFixture, ServiceOverSocketPairIsDeterministicAcrossConcurrency) {
  for (size_t workers : {size_t{1}, size_t{8}}) {
    RemoteSqlExecutor remote(RemoteOpts(server_->port()));
    ServiceOptions service_options;
    service_options.workers = workers;
    service_options.executor = &remote;
    PublishingService service(db_.get(), service_options);
    ServiceRequest request;
    request.rxl = core::Query1Rxl();
    request.options = PublishOpts();
    ServiceResponse response = service.Publish(request);
    ASSERT_TRUE(response.status.ok()) << response.status;
    EXPECT_EQ(response.xml, reference_) << "workers=" << workers;
    service.Shutdown();
  }
}

// ---------------------------------------------------------------------------
// The chaos loop: >= 200 seeded fault schedules through FlakyProxy, at
// service concurrency 1 and 8, alternating remote-only and federated
// (local-fallback) stacks. Every request must terminate before its
// deadline with either byte-identical XML or a clean error — never a
// crash, hang, or corrupted document.

TEST_F(NetFixture, ChaosScheduleSweepTerminatesCleanly) {
  constexpr int kSchedules = 240;
  constexpr double kDeadlineMs = 15000;
  engine::DatabaseExecutor local(db_.get());
  int ok_count = 0;
  int clean_errors = 0;
  int faults_seen = 0;

  for (int schedule = 0; schedule < kSchedules; ++schedule) {
    FlakyProxyOptions proxy_options;
    proxy_options.upstream_port = server_->port();
    proxy_options.seed = 0x5EED0000u + static_cast<uint64_t>(schedule);
    FlakyProxy proxy(proxy_options);
    ASSERT_TRUE(proxy.Start().ok());

    RemoteSqlExecutor remote(RemoteOpts(proxy.port()));
    const bool federated = schedule % 2 == 1;
    const size_t workers = (schedule / 2) % 2 == 0 ? 1 : 8;

    std::unique_ptr<FederatedExecutor> fed;
    ServiceOptions service_options;
    service_options.workers = workers;
    service_options.retry.max_attempts = 1;
    if (federated) {
      FederatedExecutorOptions fed_options;
      fed_options.local = &local;
      fed_options.remotes.push_back({"remote", &remote, {}});  // catch-all
      fed_options.breaker.failure_threshold = 2;
      fed = std::make_unique<FederatedExecutor>(std::move(fed_options));
      service_options.executor = fed.get();
    } else {
      service_options.executor = &remote;
    }
    PublishingService service(db_.get(), service_options);

    ServiceRequest request;
    request.rxl = core::Query1Rxl();
    request.options = PublishOpts();
    request.deadline_ms = kDeadlineMs;

    auto t0 = std::chrono::steady_clock::now();
    ServiceResponse response = service.Publish(request);
    double elapsed_ms = std::chrono::duration<double, std::milli>(
                            std::chrono::steady_clock::now() - t0)
                            .count();
    // Termination before the deadline (generous slack for sanitizer runs).
    ASSERT_LT(elapsed_ms, kDeadlineMs + 10000)
        << "schedule " << schedule << " hung";

    if (response.status.ok() && !response.result.metrics.timed_out &&
        !response.xml.empty()) {
      // Any produced document must be the exact serial bytes.
      ASSERT_EQ(response.xml, reference_) << "schedule " << schedule;
      ++ok_count;
    } else {
      // Clean, classified error — acceptable for the remote-only stack.
      ++clean_errors;
      if (federated) {
        // With a local fallback the publish itself must succeed unless the
        // request as a whole timed out (stalls can stack up under
        // sanitizers); corrupt output is never acceptable.
        EXPECT_TRUE(response.result.metrics.timed_out ||
                    !response.status.ok())
            << "schedule " << schedule << ": " << response.status;
      }
    }
    faults_seen += static_cast<int>(proxy.faults_injected());
    service.Shutdown();
    remote.Shutdown();
    proxy.Shutdown();
  }

  // The sweep must actually exercise both outcomes and real faults.
  EXPECT_GT(ok_count, 0);
  EXPECT_GT(clean_errors, 0);
  EXPECT_GT(faults_seen, kSchedules / 4);
  // The server survived the entire sweep.
  auto after = server_->requests_served();
  EXPECT_GT(after, 0u);
}

// ---------------------------------------------------------------------------
// End-to-end failover: kill the remote server mid-load, watch the breaker
// trip and the local fallback keep producing identical bytes, then restart
// the server and observe recovery.

TEST_F(NetFixture, FailoverEndToEndAcrossServerKillAndRestart) {
  engine::DatabaseExecutor local(db_.get());
  RemoteSqlExecutor remote(RemoteOpts(server_->port()));

  double now = 0;
  FederatedExecutorOptions fed_options;
  fed_options.local = &local;
  fed_options.remotes.push_back({"east", &remote, {}});
  fed_options.breaker.failure_threshold = 2;
  fed_options.breaker.open_ms = 100;
  fed_options.breaker.now_ms = [&now] { return now; };
  FederatedExecutor fed(std::move(fed_options));

  ServiceOptions service_options;
  service_options.workers = 4;
  service_options.executor = &fed;
  service_options.retry.max_attempts = 1;
  PublishingService service(db_.get(), service_options);
  ServiceRequest request;
  request.rxl = core::Query1Rxl();
  request.options = PublishOpts();

  // Healthy: the remote serves.
  ServiceResponse healthy = service.Publish(request);
  ASSERT_TRUE(healthy.status.ok()) << healthy.status;
  ASSERT_EQ(healthy.xml, reference_);
  ASSERT_GT(fed.remote_queries(), 0u);

  // Kill the server. The next publish rides failover: breaker trips,
  // local fallback produces the same bytes.
  uint16_t port = server_->port();
  server_->Shutdown();
  server_.reset();
  ServiceResponse degraded = service.Publish(request);
  ASSERT_TRUE(degraded.status.ok()) << degraded.status;
  EXPECT_EQ(degraded.xml, reference_);
  EXPECT_GT(fed.failovers(), 0u);
  EXPECT_EQ(fed.breakers()->Get("east")->state(),
            service::BreakerState::kOpen);

  // While the breaker is open, publishes keep succeeding via fast-fail
  // failover without dialing the dead server.
  uint64_t reconnects_before = remote.reconnects();
  ServiceResponse fast = service.Publish(request);
  ASSERT_TRUE(fast.status.ok()) << fast.status;
  EXPECT_EQ(fast.xml, reference_);
  EXPECT_EQ(remote.reconnects(), reconnects_before);

  // Restart the server on the same port; past open_ms the breaker probes,
  // the probe succeeds, and the remote serves again.
  EngineServerOptions server_options;
  server_options.port = port;
  server_ = std::make_unique<EngineServer>(db_.get(), server_options);
  ASSERT_TRUE(server_->Start().ok());
  now += 150;
  uint64_t remote_before = fed.remote_queries();
  ServiceResponse recovered = service.Publish(request);
  ASSERT_TRUE(recovered.status.ok()) << recovered.status;
  EXPECT_EQ(recovered.xml, reference_);
  EXPECT_GT(fed.remote_queries(), remote_before);
  EXPECT_EQ(fed.breakers()->Get("east")->state(),
            service::BreakerState::kClosed);
}

// ---------------------------------------------------------------------------
// Connection-pool hygiene: idle connections older than the TTL are pruned
// (a fresh dial replaces the stale fd), and max_pooled_connections caps
// what gets parked at all.

TEST_F(NetFixture, PoolPrunesIdleConnectionsPastTtlAndCapsSize) {
  auto options = RemoteOpts(server_->port());
  options.pool_idle_ttl_ms = 50;
  RemoteSqlExecutor remote(options);
  const std::string sql = "select suppkey from Supplier order by suppkey";
  ASSERT_TRUE(remote.ExecuteSql(sql).ok());
  EXPECT_EQ(remote.pooled_connections(), 1u);

  // Let the parked connection outlive its TTL: the next call must prune
  // it and dial fresh rather than risk a stale fd.
  std::this_thread::sleep_for(std::chrono::milliseconds(120));
  ASSERT_TRUE(remote.ExecuteSql(sql).ok());
  EXPECT_GE(remote.pool_pruned(), 1u);
  EXPECT_EQ(server_->connections_accepted(), 2u);
  EXPECT_EQ(remote.pooled_connections(), 1u);

  // A zero-size pool parks nothing.
  auto capped_options = RemoteOpts(server_->port());
  capped_options.max_pooled_connections = 0;
  RemoteSqlExecutor capped(capped_options);
  ASSERT_TRUE(capped.ExecuteSql(sql).ok());
  EXPECT_EQ(capped.pooled_connections(), 0u);
}

// ---------------------------------------------------------------------------
// Replica-level chaos: >= 200 seeded schedules, each casting three
// replicas of one backend into hashed roles — healthy, dead (closed
// port), slow (stall-only proxy), flapping (any fault, high probability),
// reset (reset-only proxy) — at service concurrency 1 and 8, alternating
// a bare ReplicaSet with a ReplicaSet under the federation router. Every
// request must end before its deadline with byte-identical XML or a clean
// error, and the hedge budget must hold on every schedule.

TEST_F(NetFixture, ReplicaChaosScheduleSweepTerminatesCleanly) {
  constexpr int kSchedules = 200;
  constexpr double kDeadlineMs = 15000;
  engine::DatabaseExecutor local(db_.get());
  int ok_count = 0;
  int clean_errors = 0;
  uint64_t ejections_total = 0;
  uint64_t hedges_total = 0;

  enum class Role { kHealthy, kDead, kSlow, kFlapping, kReset };
  auto role_hash = [](int schedule, int replica) {
    uint64_t z = 0xC4A05EEDull + 0x9E3779B97F4A7C15ull *
                                     (static_cast<uint64_t>(schedule) * 3 +
                                      static_cast<uint64_t>(replica) + 1);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  };

  for (int schedule = 0; schedule < kSchedules; ++schedule) {
    std::vector<std::unique_ptr<FlakyProxy>> proxies;
    ReplicaSetOptions set_options;
    set_options.backend = "east";
    set_options.remote = RemoteOpts(0);  // per-endpoint port overrides
    set_options.breaker.failure_threshold = 2;
    set_options.breaker.open_ms = 150;  // ejected replicas re-probe in-test
    set_options.hedge_initial_delay_ms = 20;
    set_options.hedge_warmup = 1000;  // chaos latencies are not a p95 signal
    set_options.hedge_budget_ratio = 0.3;
    set_options.hedge_budget_cap = 2;
    set_options.retry_budget_ratio = 0.5;
    set_options.retry_budget_cap = 4;
    set_options.seed = 0xF1EE7000u + static_cast<uint64_t>(schedule);

    for (int replica = 0; replica < 3; ++replica) {
      Role role = static_cast<Role>(role_hash(schedule, replica) % 5);
      uint16_t port = 0;
      if (role == Role::kHealthy) {
        port = server_->port();
      } else if (role == Role::kDead) {
        auto dead = std::move(Listener::Bind("127.0.0.1", 0)).value();
        port = dead.port();
        dead.Close();  // nothing listens here now
      } else {
        FlakyProxyOptions proxy_options;
        proxy_options.upstream_port = server_->port();
        proxy_options.seed = role_hash(schedule, replica);
        proxy_options.max_stall_ms = 100;
        if (role == Role::kSlow) {
          proxy_options.allowed_kinds = {FaultKind::kStall};
          proxy_options.fault_probability = 0.9;
        } else if (role == Role::kReset) {
          proxy_options.allowed_kinds = {FaultKind::kReset};
          proxy_options.fault_probability = 0.9;
        } else {
          proxy_options.fault_probability = 0.85;  // flapping: anything goes
        }
        auto proxy = std::make_unique<FlakyProxy>(std::move(proxy_options));
        ASSERT_TRUE(proxy->Start().ok());
        port = proxy->port();
        proxies.push_back(std::move(proxy));
      }
      set_options.endpoints.push_back(
          {"r" + std::to_string(replica), "127.0.0.1", port});
    }
    ReplicaSet set(std::move(set_options));

    const bool federated = schedule % 2 == 1;
    const size_t workers = (schedule / 2) % 2 == 0 ? 1 : 8;
    std::unique_ptr<FederatedExecutor> fed;
    ServiceOptions service_options;
    service_options.workers = workers;
    service_options.retry.max_attempts = 1;
    if (federated) {
      FederatedExecutorOptions fed_options;
      fed_options.local = &local;
      fed_options.remotes.push_back({"east", &set, {}});  // catch-all
      fed_options.breaker.failure_threshold = 2;
      fed = std::make_unique<FederatedExecutor>(std::move(fed_options));
      service_options.executor = fed.get();
    } else {
      service_options.executor = &set;
    }
    PublishingService service(db_.get(), service_options);

    ServiceRequest request;
    request.rxl = core::Query1Rxl();
    request.options = PublishOpts();
    request.deadline_ms = kDeadlineMs;

    auto t0 = std::chrono::steady_clock::now();
    ServiceResponse response = service.Publish(request);
    double elapsed_ms = std::chrono::duration<double, std::milli>(
                            std::chrono::steady_clock::now() - t0)
                            .count();
    ASSERT_LT(elapsed_ms, kDeadlineMs + 10000)
        << "replica schedule " << schedule << " hung";

    if (response.status.ok() && !response.result.metrics.timed_out &&
        !response.xml.empty()) {
      ASSERT_EQ(response.xml, reference_) << "replica schedule " << schedule;
      ++ok_count;
    } else {
      ++clean_errors;
      if (federated) {
        EXPECT_TRUE(response.result.metrics.timed_out ||
                    !response.status.ok())
            << "replica schedule " << schedule << ": " << response.status;
      }
    }
    // The hedge budget is a hard per-set invariant on every schedule:
    // fired hedges never exceed ratio * requests + cap.
    ASSERT_LE(set.hedges_fired(),
              static_cast<uint64_t>(0.3 * static_cast<double>(set.requests())) +
                  2)
        << "replica schedule " << schedule << " blew the hedge budget";
    ejections_total += set.ejections();
    hedges_total += set.hedges_fired();
    service.Shutdown();
    set.Shutdown();
    for (auto& proxy : proxies) proxy->Shutdown();
  }

  // The sweep exercised both outcomes and the replica machinery for real.
  EXPECT_GT(ok_count, 0);
  EXPECT_GT(clean_errors, 0);
  EXPECT_GT(ejections_total, 0u);
  EXPECT_GT(server_->requests_served(), 0u);
  (void)hedges_total;  // informational; bounded per-schedule above
}

// ---------------------------------------------------------------------------
// The headline replica story: kill one replica of three under load. The
// set ejects it and reroutes; throughput recovers on the survivors; the
// *backend* breaker above never trips and the local fallback is never
// used — replica failure stays a routing event inside the backend.

TEST_F(NetFixture, KillOneReplicaOfThreeRecoversWithoutBackendBreakerTrip) {
  engine::DatabaseExecutor local(db_.get());
  auto extra1 = std::make_unique<EngineServer>(db_.get(),
                                               EngineServerOptions{});
  auto extra2 = std::make_unique<EngineServer>(db_.get(),
                                               EngineServerOptions{});
  ASSERT_TRUE(extra1->Start().ok());
  ASSERT_TRUE(extra2->Start().ok());

  ReplicaSetOptions set_options;
  set_options.backend = "east";
  set_options.remote = RemoteOpts(0);
  set_options.endpoints = {{"r0", "127.0.0.1", server_->port()},
                           {"r1", "127.0.0.1", extra1->port()},
                           {"r2", "127.0.0.1", extra2->port()}};
  set_options.breaker.failure_threshold = 2;
  set_options.breaker.open_ms = 60000;  // no mid-test re-probe of the corpse
  // Generous retry budget: this test is about health routing absorbing a
  // replica death; budget limits have their own tests.
  set_options.retry_budget_ratio = 1.0;
  set_options.retry_budget_cap = 100;
  ReplicaSet set(std::move(set_options));

  FederatedExecutorOptions fed_options;
  fed_options.local = &local;
  fed_options.remotes.push_back({"east", &set, {}});
  fed_options.breaker.failure_threshold = 3;
  FederatedExecutor fed(std::move(fed_options));

  ServiceOptions service_options;
  service_options.workers = 4;
  service_options.executor = &fed;
  service_options.retry.max_attempts = 1;
  PublishingService service(db_.get(), service_options);
  ServiceRequest request;
  request.rxl = core::Query1Rxl();
  request.options = PublishOpts();
  request.deadline_ms = 15000;

  // Warm-up: all three replicas serve.
  for (int i = 0; i < 4; ++i) {
    ServiceResponse response = service.Publish(request);
    ASSERT_TRUE(response.status.ok()) << response.status;
    ASSERT_EQ(response.xml, reference_);
  }

  // Kill replica r2 and keep publishing: every request still succeeds
  // with identical bytes — the set absorbs the death internally.
  extra2->Shutdown();
  extra2.reset();
  for (int i = 0; i < 6; ++i) {
    ServiceResponse response = service.Publish(request);
    ASSERT_TRUE(response.status.ok()) << "post-kill publish " << i << ": "
                                      << response.status;
    ASSERT_EQ(response.xml, reference_) << "post-kill publish " << i;
  }

  // The death was a replica-level event: ejected below, invisible above.
  EXPECT_GE(set.ejections(), 1u);
  EXPECT_EQ(set.replica_stats(2).state, service::BreakerState::kOpen);
  EXPECT_TRUE(set.Healthy());
  EXPECT_EQ(fed.failovers(), 0u) << "local fallback should never be needed";
  EXPECT_EQ(fed.breakers()->Get("east")->state(),
            service::BreakerState::kClosed);
  // Throughput recovered onto the survivors.
  EXPECT_GT(set.replica_stats(0).successes + set.replica_stats(1).successes,
            0u);

  service.Shutdown();
  set.Shutdown();
  extra1->Shutdown();
}

}  // namespace
}  // namespace silkroute::net
