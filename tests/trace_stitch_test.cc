// Cross-process distributed tracing tests (DESIGN.md §14): StitchSubtree
// id-rewrite semantics, server-side phase subtrees stitched under client
// attempt spans through a real EngineServer at service concurrency 1 and
// 8, version-negotiation interop with an emulated legacy peer, chaos
// proof that torn/hostile remote replies never produce a malformed client
// tree, hedged replica races carrying loser subtrees, and the PromServer
// live scrape endpoint staying consistent under 8-way concurrent load
// (the TSan target for this file).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "tests/support/flaky_proxy.h"
#include "net/frame_io.h"
#include "net/prom_server.h"
#include "net/remote_executor.h"
#include "net/replica_set.h"
#include "net/server.h"
#include "net/socket.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/trace.h"
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
using obs::CollectingSink;
using obs::ScopedCurrentSpan;
using obs::Span;
using obs::SpanHandle;
using obs::Tracer;
using service::PublishingService;
using service::ServiceOptions;
using service::ServiceRequest;
using service::ServiceResponse;

const std::string* FindAnnotation(const Span& span, const std::string& key) {
  for (const auto& a : span.annotations) {
    if (a.key == key) return &a.value;
  }
  return nullptr;
}

/// The invariants a stitched cross-process tree must satisfy — the same
/// structural rules tools/trace_check enforces: unique non-empty ids,
/// parents present, child id = parent id + "." + one ordinal, monotone
/// timestamps, children starting no earlier than their parent.
std::map<std::string, const Span*> ExpectWellFormedTree(
    const std::vector<Span>& spans) {
  std::map<std::string, const Span*> by_id;
  for (const auto& s : spans) {
    EXPECT_FALSE(s.id.empty());
    EXPECT_FALSE(s.name.empty()) << "span " << s.id;
    EXPECT_GE(s.end_ns, s.start_ns) << "span " << s.id;
    EXPECT_TRUE(by_id.emplace(s.id, &s).second) << "duplicate id " << s.id;
  }
  for (const auto& s : spans) {
    if (s.parent_id.empty()) {
      EXPECT_EQ(s.id.find('.'), std::string::npos)
          << "root with dotted id " << s.id;
      continue;
    }
    auto parent = by_id.find(s.parent_id);
    EXPECT_NE(parent, by_id.end()) << "missing parent of " << s.id;
    if (parent == by_id.end()) continue;
    const std::string prefix = s.parent_id + ".";
    EXPECT_EQ(s.id.rfind(prefix, 0), 0u)
        << "id " << s.id << " not under parent " << s.parent_id;
    if (s.id.rfind(prefix, 0) != 0) continue;
    EXPECT_EQ(s.id.find('.', prefix.size()), std::string::npos)
        << "id " << s.id << " skips a generation under " << s.parent_id;
    EXPECT_GE(s.start_ns, parent->second->start_ns)
        << "child " << s.id << " starts before parent " << s.parent_id;
  }
  return by_id;
}

size_t CountByName(const std::vector<Span>& spans, const std::string& name) {
  size_t n = 0;
  for (const auto& s : spans) {
    if (s.name == name) ++n;
  }
  return n;
}

// ---------------------------------------------------------------------------
// StitchSubtree unit semantics.

TEST(StitchSubtreeTest, GraftsSubtreeUnderFreshOrdinalsWithOffset) {
  CollectingSink sink;
  Tracer tracer(&sink);
  SpanHandle root = tracer.StartRoot("attempt");
  SpanHandle sibling = tracer.StartChild(&root, "existing");
  sibling.End();

  // A remote subtree in the server tracer's own id space. The offset
  // re-bases it on this tracer's clock (the client samples NowNs at send).
  uint64_t base = tracer.NowNs();
  std::vector<Span> remote(3);
  remote[0] = {"1", "", "server", 10, 900, {}};
  remote[1] = {"1.1", "1", "phase:execute", 20, 800, {}};
  remote[2] = {"1.1.1", "1.1", "operator", 30, 700, {}};
  tracer.StitchSubtree(&root, std::move(remote), base);
  root.End();

  std::vector<Span> spans = sink.spans();
  auto by_id = ExpectWellFormedTree(spans);
  // The subtree root took the next ordinal after "existing" (1.1): 1.2.
  ASSERT_TRUE(by_id.count("1.2"));
  EXPECT_EQ(by_id["1.2"]->name, "server");
  EXPECT_EQ(by_id["1.2"]->parent_id, "1");
  EXPECT_EQ(by_id["1.2"]->start_ns, base + 10);  // shifted by offset_ns
  EXPECT_EQ(by_id["1.2"]->end_ns, base + 900);
  ASSERT_TRUE(by_id.count("1.2.1"));
  EXPECT_EQ(by_id["1.2.1"]->name, "phase:execute");
  ASSERT_TRUE(by_id.count("1.2.1.1"));
  EXPECT_EQ(by_id["1.2.1.1"]->name, "operator");
}

TEST(StitchSubtreeTest, SpansWithAbsentParentsBecomeRoots) {
  // A span whose parent is absent from the batch is a subtree root in its
  // own right — a server that shipped a partial tree still stitches.
  CollectingSink sink;
  Tracer tracer(&sink);
  SpanHandle root = tracer.StartRoot("attempt");
  uint64_t base = tracer.NowNs();
  std::vector<Span> remote(2);
  remote[0] = {"4.7", "4", "orphan", 5, 6, {}};  // parent "4" not shipped
  remote[1] = {"4.7.1", "4.7", "child", 5, 6, {}};
  tracer.StitchSubtree(&root, std::move(remote), base);
  root.End();

  std::vector<Span> spans = sink.spans();
  auto by_id = ExpectWellFormedTree(spans);
  ASSERT_TRUE(by_id.count("1.1"));
  EXPECT_EQ(by_id["1.1"]->name, "orphan");
  ASSERT_TRUE(by_id.count("1.1.1"));
  EXPECT_EQ(by_id["1.1.1"]->name, "child");
}

TEST(StitchSubtreeTest, MalformedSpansAreDroppedNeverDangling) {
  // A span claiming a parent that IS in the batch but whose id does not
  // fall under that parent's id is malformed: it must be dropped, not
  // emitted with an unresolvable parent.
  CollectingSink sink;
  Tracer tracer(&sink);
  SpanHandle root = tracer.StartRoot("attempt");
  uint64_t base = tracer.NowNs();
  std::vector<Span> remote(2);
  remote[0] = {"1", "", "server", 0, 1, {}};
  remote[1] = {"9.5", "1", "liar", 0, 1, {}};  // parent "1", id not under it
  tracer.StitchSubtree(&root, std::move(remote), base);
  root.End();

  std::vector<Span> spans = sink.spans();
  ExpectWellFormedTree(spans);
  EXPECT_EQ(CountByName(spans, "server"), 1u);
  EXPECT_EQ(CountByName(spans, "liar"), 0u);
}

TEST(StitchSubtreeTest, InertParentAndEmptyBatchAreNoOps) {
  CollectingSink sink;
  Tracer tracer(&sink);
  SpanHandle inert;  // not recording
  std::vector<Span> remote(1);
  remote[0] = {"1", "", "server", 0, 1, {}};
  tracer.StitchSubtree(&inert, std::move(remote), 0);
  SpanHandle root = tracer.StartRoot("attempt");
  tracer.StitchSubtree(&root, {}, 0);
  root.End();
  EXPECT_EQ(sink.size(), 1u);  // only the root itself
}

// ---------------------------------------------------------------------------
// Cross-process stitching through a real EngineServer.

class StitchFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    db_ = MakeTinyTpch(0.002);
    EngineServerOptions server_options;
    server_options.workers = 4;
    server_ = std::make_unique<EngineServer>(db_.get(), server_options);
    ASSERT_TRUE(server_->Start().ok());
  }

  void TearDown() override {
    if (server_ != nullptr) server_->Shutdown();
  }

  static PublishOptions PublishOpts() {
    PublishOptions options;
    options.strategy = PlanStrategy::kFullyPartitioned;
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
};

/// Checks the headline invariant on a published trace: every "server" span
/// sits under a client-side attempt span, carries the server phase
/// children, and the phases' ms sum never exceeds the attempt's duration
/// (the trace_check tolerance: 1% relative + rounding slack).
void ExpectServerSubtreesWellPlaced(const std::vector<Span>& spans) {
  auto by_id = ExpectWellFormedTree(spans);
  for (const auto& s : spans) {
    if (s.name != "server") continue;
    ASSERT_FALSE(s.parent_id.empty()) << "unstitched server span " << s.id;
    auto parent = by_id.find(s.parent_id);
    ASSERT_NE(parent, by_id.end());
    const Span& attempt = *parent->second;
    // The stitch parent is whatever client-side span issued the exchange:
    // the resilient executor's per-try span, a replica race's attempt, the
    // service's query phase, or a bare traced call's root.
    EXPECT_TRUE(attempt.name == "attempt" ||
                attempt.name == "replica_attempt" ||
                attempt.name == "phase:query" || attempt.name == "request")
        << "server span " << s.id << " under " << attempt.name;
    EXPECT_NE(FindAnnotation(s, "sql"), nullptr) << s.id;
    EXPECT_NE(FindAnnotation(s, "trace_id"), nullptr) << s.id;

    double phase_sum = 0;
    size_t phases = 0;
    for (const auto& child : spans) {
      if (child.parent_id != s.id || child.name.rfind("phase:", 0) != 0) {
        continue;
      }
      const std::string* ms = FindAnnotation(child, "ms");
      ASSERT_NE(ms, nullptr) << child.name << " " << child.id;
      phase_sum += std::atof(ms->c_str());
      ++phases;
    }
    EXPECT_EQ(phases, 3u) << "server span " << s.id
                          << " lacks queue_wait/execute/serialize";
    double attempt_ms = attempt.duration_ms();
    EXPECT_LE(phase_sum, attempt_ms + 0.01 * attempt_ms +
                             0.001 * static_cast<double>(phases + 1) + 0.5)
        << "server phases of " << s.id << " exceed attempt " << attempt.id;
  }
}

TEST_F(StitchFixture, FederatedTraceStitchesServerSubtreesAcrossConcurrency) {
  for (size_t workers : {size_t{1}, size_t{8}}) {
    CollectingSink sink;
    Tracer tracer(&sink);
    RemoteSqlExecutor remote(RemoteOpts(server_->port()));
    ServiceOptions service_options;
    service_options.workers = workers;
    service_options.executor = &remote;
    service_options.tracer = &tracer;
    PublishingService service(db_.get(), service_options);

    ServiceRequest request;
    request.rxl = core::Query1Rxl();
    request.options = PublishOpts();
    ServiceResponse response = service.Publish(request);
    ASSERT_TRUE(response.status.ok()) << response.status;
    service.Shutdown();  // all workers joined: every span has been sunk

    std::vector<Span> spans = sink.spans();
    ExpectServerSubtreesWellPlaced(spans);
    size_t components = CountByName(spans, "component");
    size_t servers = CountByName(spans, "server");
    ASSERT_GT(components, 0u) << "workers=" << workers;
    // Every component query ran remotely and shipped its subtree back.
    EXPECT_EQ(servers, components) << "workers=" << workers;
    EXPECT_EQ(remote.trace_stitches(), servers) << "workers=" << workers;
    EXPECT_EQ(remote.peer_version(), 2) << "workers=" << workers;
    remote.Shutdown();
  }
}

TEST_F(StitchFixture, UntracedTrafficStaysLegacyOnTheWire) {
  // Without a recording span there is no trace context to carry, so the
  // client never sends v2 and never learns the peer's version.
  RemoteSqlExecutor remote(RemoteOpts(server_->port()));
  auto result = remote.ExecuteSql("select suppkey from Supplier");
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(remote.peer_version(), 0);
  EXPECT_EQ(remote.trace_stitches(), 0u);
  remote.Shutdown();
}

TEST_F(StitchFixture, LegacyPeerInteropDowngradesAndStaysWellFormed) {
  // A pre-v2 server (emulated): the traced exchange dies at its header
  // decode, the client downgrades the backend to v1 and re-sends untraced.
  // The caller still gets its rows; the trace records the downgrade and
  // contains no server subtree; later calls skip v2 entirely.
  EngineServerOptions legacy_options;
  legacy_options.emulate_legacy = true;
  EngineServer legacy(db_.get(), legacy_options);
  ASSERT_TRUE(legacy.Start().ok());

  CollectingSink sink;
  Tracer tracer(&sink);
  RemoteSqlExecutor remote(RemoteOpts(legacy.port()));
  const std::string sql = "select suppkey from Supplier order by suppkey";
  {
    SpanHandle root = tracer.StartRoot("request");
    ScopedCurrentSpan scope(&root);
    auto result = remote.ExecuteSqlWithDeadline(sql, 5000);
    ASSERT_TRUE(result.ok()) << result.status();
    auto supplier = db_->GetTable("Supplier");
    ASSERT_TRUE(supplier.ok());
    EXPECT_EQ(result->rows.size(), (*supplier)->num_rows());
  }
  EXPECT_EQ(remote.peer_version(), 1);

  std::vector<Span> spans = sink.spans();
  ExpectWellFormedTree(spans);
  EXPECT_EQ(CountByName(spans, "server"), 0u);
  bool downgraded = false;
  for (const auto& s : spans) {
    if (FindAnnotation(s, "wire_downgrade") != nullptr) downgraded = true;
  }
  EXPECT_TRUE(downgraded) << "downgrade not annotated on any span";

  // The negotiated version sticks: the next traced call goes straight to
  // v1 (no second downgrade round-trip) and still succeeds.
  {
    SpanHandle root = tracer.StartRoot("request");
    ScopedCurrentSpan scope(&root);
    auto again = remote.ExecuteSqlWithDeadline(sql, 5000);
    ASSERT_TRUE(again.ok()) << again.status();
  }
  EXPECT_EQ(remote.peer_version(), 1);
  ExpectWellFormedTree(sink.spans());
  remote.Shutdown();
  legacy.Shutdown();
}

TEST_F(StitchFixture, HostileTraceBlockFromServerNeverMalformsClientTree) {
  // A "server" that answers a traced request with a traced kEnd whose
  // trace block is hostile garbage. The client must fail the exchange
  // cleanly and emit no stitched span — never a dangling or torn tree.
  auto bound = Listener::Bind("127.0.0.1", 0);
  ASSERT_TRUE(bound.ok()) << bound.status();
  Listener listener = std::move(bound).value();
  std::thread fake([&listener] {
    IoOptions io = IoOptions::WithTimeout(5000);
    auto socket = listener.Accept(io);
    if (!socket.ok()) return;
    auto request = ReadFrame(&*socket, io);
    if (!request.ok()) return;
    FrameHeader end;
    end.version = kWireVersion;
    end.flags = kFlagTrace;
    end.type = FrameType::kEnd;
    end.request_id = request->header.request_id;
    // 16-byte base claiming zero rows, then a hostile span count.
    std::string payload(16, '\0');
    payload += std::string("\xFF\xFF\xFF\x7F", 4);
    (void)WriteFrame(&*socket, end, payload, io);
    // Hold the socket open briefly so the client, not us, decides.
    auto extra = ReadFrame(&*socket, io);
    (void)extra;
  });

  CollectingSink sink;
  Tracer tracer(&sink);
  auto options = RemoteOpts(listener.port());
  options.connect_attempts = 1;
  RemoteSqlExecutor remote(options);
  {
    SpanHandle root = tracer.StartRoot("request");
    ScopedCurrentSpan scope(&root);
    auto result =
        remote.ExecuteSqlWithDeadline("select suppkey from Supplier", 2000);
    EXPECT_FALSE(result.ok());
  }
  remote.Shutdown();
  fake.join();
  listener.Close();

  std::vector<Span> spans = sink.spans();
  ExpectWellFormedTree(spans);
  EXPECT_EQ(CountByName(spans, "server"), 0u);
  EXPECT_EQ(remote.trace_stitches(), 0u);
  EXPECT_GE(remote.decode_errors(), 1u);
}

TEST_F(StitchFixture, ChaosTracedSweepNeverMalformsClientTree) {
  // Seeded FlakyProxy schedules between a traced client and a real server:
  // whatever the proxy tears, stalls, or resets, every schedule must end
  // with a clean status and a structurally valid trace.
  constexpr int kSchedules = 48;
  int ok_count = 0;
  int failed_count = 0;
  for (int schedule = 0; schedule < kSchedules; ++schedule) {
    FlakyProxyOptions proxy_options;
    proxy_options.upstream_port = server_->port();
    proxy_options.seed = 0x7ACE0000u + static_cast<uint64_t>(schedule);
    proxy_options.max_stall_ms = 50;
    FlakyProxy proxy(proxy_options);
    ASSERT_TRUE(proxy.Start().ok());

    CollectingSink sink;
    Tracer tracer(&sink);
    RemoteSqlExecutor remote(RemoteOpts(proxy.port()));
    {
      SpanHandle root = tracer.StartRoot("request");
      ScopedCurrentSpan scope(&root);
      auto result = remote.ExecuteSqlWithDeadline(
          "select suppkey from Supplier order by suppkey", 3000);
      if (result.ok()) {
        ++ok_count;
      } else {
        ++failed_count;
      }
    }
    remote.Shutdown();
    proxy.Shutdown();

    std::vector<Span> spans = sink.spans();
    ExpectServerSubtreesWellPlaced(spans);  // includes well-formedness
  }
  // The sweep must exercise both outcomes for the invariant to mean much.
  EXPECT_GT(ok_count, 0);
  EXPECT_GT(failed_count, 0);
}

TEST_F(StitchFixture, HedgedRaceCarriesAttemptSpansForWinnerAndLoser) {
  // Two replicas of the same healthy server, hedging after 0ms: every call
  // races two attempts. Both replica_attempt spans must appear under the
  // coordinator's span — the cancelled loser included — and the stitched
  // tree must stay well-formed with at least one server subtree per call.
  ReplicaSetOptions set_options;
  set_options.backend = "east";
  set_options.remote = RemoteOpts(0);
  set_options.endpoints = {{"r0", "127.0.0.1", server_->port()},
                           {"r1", "127.0.0.1", server_->port()}};
  set_options.hedge_initial_delay_ms = 0;
  set_options.hedge_warmup = 1000000;  // always use the initial delay
  set_options.hedge_budget_ratio = 1.0;
  set_options.hedge_budget_cap = 100;
  ReplicaSet set(std::move(set_options));

  CollectingSink sink;
  Tracer tracer(&sink);
  constexpr int kCalls = 6;
  for (int i = 0; i < kCalls; ++i) {
    SpanHandle root = tracer.StartRoot("request");
    ScopedCurrentSpan scope(&root);
    auto result = set.ExecuteSqlWithDeadline(
        "select suppkey from Supplier order by suppkey", 10000);
    ASSERT_TRUE(result.ok()) << i << ": " << result.status();
  }
  EXPECT_GE(set.hedges_fired(), 1u);
  set.Shutdown();  // joins in-flight losers so their spans reach the sink

  std::vector<Span> spans = sink.spans();
  ExpectServerSubtreesWellPlaced(spans);
  size_t attempts = CountByName(spans, "replica_attempt");
  size_t servers = CountByName(spans, "server");
  // Every call has an attempt span; fired hedges add loser attempts.
  EXPECT_GT(attempts, static_cast<size_t>(kCalls));
  // Winners always ship a subtree; drained losers may add more.
  EXPECT_GE(servers, static_cast<size_t>(kCalls));
  bool hedge_attempt_seen = false;
  for (const auto& s : spans) {
    if (s.name != "replica_attempt") continue;
    EXPECT_NE(FindAnnotation(s, "replica"), nullptr) << s.id;
    const std::string* hedge = FindAnnotation(s, "hedge");
    if (hedge != nullptr && *hedge == "true") hedge_attempt_seen = true;
  }
  EXPECT_TRUE(hedge_attempt_seen);
}

// ---------------------------------------------------------------------------
// Live scrape endpoints under load (the TSan case): PromServer over HTTP
// and FetchServerStats over the wire, both scraped while 8 concurrent
// publishers drive a remote-backed service; mid-run counters must parse
// and never exceed the post-run totals.

Result<std::string> HttpGet(uint16_t port) {
  IoOptions io = IoOptions::WithTimeout(5000);
  auto socket = Dial("127.0.0.1", port, io);
  SILK_RETURN_IF_ERROR(socket.status());
  const std::string request = "GET /metrics HTTP/1.0\r\n\r\n";
  SILK_RETURN_IF_ERROR(
      socket->WriteFull(request.data(), request.size(), io));
  std::string response;
  char buffer[4096];
  for (;;) {
    size_t got = 0;
    Status status = socket->ReadSome(buffer, sizeof(buffer), &got, io);
    if (!status.ok() || got == 0) break;
    response.append(buffer, got);
  }
  return response;
}

/// Parses counter lines ("name value", name not starting with '#') out of
/// a Prometheus text body; EXPECTs every line to be structurally valid.
std::map<std::string, uint64_t> ParseExposition(const std::string& body) {
  std::map<std::string, uint64_t> values;
  std::istringstream lines(body);
  std::string line;
  while (std::getline(lines, line)) {
    if (line.empty()) continue;
    if (line.rfind("# TYPE ", 0) == 0) continue;
    EXPECT_NE(line[0], '#') << "unknown comment form: " << line;
    size_t space = line.rfind(' ');
    EXPECT_NE(space, std::string::npos) << line;
    if (space == std::string::npos) continue;
    EXPECT_EQ(line.rfind("silkroute_", 0), 0u) << line;
    values[line.substr(0, space)] =
        static_cast<uint64_t>(std::strtoull(line.c_str() + space + 1,
                                            nullptr, 10));
  }
  return values;
}

TEST_F(StitchFixture, LiveScrapeStaysConsistentUnderConcurrentLoad) {
  obs::MetricsRegistry registry;
  PromServer prom(&registry, "127.0.0.1", 0);
  ASSERT_TRUE(prom.Start().ok());

  auto remote_options = RemoteOpts(server_->port());
  remote_options.metrics = &registry;
  RemoteSqlExecutor remote(remote_options);
  ServiceOptions service_options;
  service_options.workers = 8;
  service_options.executor = &remote;
  service_options.metrics_registry = &registry;
  PublishingService service(db_.get(), service_options);

  ServiceRequest prototype;
  prototype.rxl = std::string(core::Query1Rxl());
  prototype.options = PublishOpts();

  std::atomic<bool> done{false};
  std::map<std::string, uint64_t> mid_counters;
  size_t scrapes = 0;
  std::thread scraper([&] {
    while (!done.load(std::memory_order_acquire)) {
      auto body = HttpGet(prom.port());
      ASSERT_TRUE(body.ok()) << body.status();
      // HTTP/1.0, status 200, text exposition content type, then a body
      // that parses — a real Prometheus scrape would accept this.
      EXPECT_EQ(body->rfind("HTTP/1.0 200 OK\r\n", 0), 0u);
      EXPECT_NE(body->find("Content-Type: text/plain; version=0.0.4"),
                std::string::npos);
      size_t split = body->find("\r\n\r\n");
      ASSERT_NE(split, std::string::npos);
      std::map<std::string, uint64_t> counters =
          ParseExposition(body->substr(split + 4));
      // Monotone across scrapes: counters never go backwards mid-run.
      for (const auto& [name, value] : counters) {
        auto it = mid_counters.find(name);
        if (it != mid_counters.end() &&
            name.find("_total") != std::string::npos) {
          EXPECT_GE(value, it->second) << name;
        }
        mid_counters[name] = value;
      }
      ++scrapes;
      std::this_thread::yield();
    }
  });

  std::vector<ServiceRequest> batch(8, prototype);
  std::vector<ServiceResponse> responses = service.PublishAll(std::move(batch));
  done.store(true, std::memory_order_release);
  scraper.join();
  for (const auto& response : responses) {
    EXPECT_TRUE(response.status.ok()) << response.status;
  }
  EXPECT_GE(prom.scrapes_served(), scrapes);
  EXPECT_GT(scrapes, 0u);

  // The post-run snapshot dominates every mid-run counter observation.
  std::ostringstream post;
  obs::WritePrometheusText(post, registry.Snapshot());
  std::map<std::string, uint64_t> final_counters =
      ParseExposition(post.str());
  for (const auto& [name, value] : mid_counters) {
    if (name.find("_total") == std::string::npos) continue;  // gauges move
    auto it = final_counters.find(name);
    ASSERT_NE(it, final_counters.end()) << name;
    EXPECT_GE(it->second, value) << name;
  }
  EXPECT_EQ(final_counters.at("silkroute_requests_completed_total"), 8u);

  service.Shutdown();
  remote.Shutdown();
  prom.Shutdown();
}

TEST_F(StitchFixture, WireScrapeMatchesServerCountersAndRejectsLegacyPeer) {
  // A metrics-enabled server scraped over the wire via the v2 kStats frame.
  obs::MetricsRegistry registry;
  EngineServerOptions server_options;
  server_options.metrics = &registry;
  EngineServer server(db_.get(), server_options);
  ASSERT_TRUE(server.Start().ok());

  RemoteSqlExecutor remote(RemoteOpts(server.port()));
  ASSERT_TRUE(remote.ExecuteSql("select suppkey from Supplier").ok());
  remote.Shutdown();

  auto stats = FetchServerStats("127.0.0.1", server.port(), 2000);
  ASSERT_TRUE(stats.ok()) << stats.status();
  std::map<std::string, uint64_t> counters = ParseExposition(*stats);
  EXPECT_EQ(counters.at("silkroute_server_requests_total"), 1u);
  EXPECT_GE(counters.at("silkroute_server_frames_out_total"), 2u);
  server.Shutdown();

  // A legacy peer kills the connection on the v2 frame: clean kUnavailable,
  // not a hang or a garbage payload.
  EngineServerOptions legacy_options;
  legacy_options.emulate_legacy = true;
  EngineServer legacy(db_.get(), legacy_options);
  ASSERT_TRUE(legacy.Start().ok());
  auto refused = FetchServerStats("127.0.0.1", legacy.port(), 2000);
  EXPECT_EQ(refused.status().code(), StatusCode::kUnavailable);
  legacy.Shutdown();
}

}  // namespace
}  // namespace silkroute::net
