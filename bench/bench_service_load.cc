// Service load benchmark: N concurrent publish requests through the
// PublishingService, healthy and with one sick backend table. Reports
// throughput, shed rate, latency percentiles, and the circuit-breaker /
// degradation counters that explain them.
//
// Environment knobs (on top of the bench_util scales):
//   SILK_SERVICE_REQUESTS    -- concurrent publish requests (default 48)
//   SILK_SERVICE_WORKERS     -- worker-pool threads (default 8)
//   SILK_SERVICE_PENDING     -- admission request slots (default 16)
//   SILK_SERVICE_DEADLINE_MS -- per-request deadline (default 0 = none)
//   SILK_SICK_TABLE          -- table failed in the sick run (default PartSupp)
#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "common/timer.h"
#include "engine/fault_injection.h"
#include "net/remote_executor.h"
#include "net/replica_set.h"
#include "net/server.h"
#include "service/publishing_service.h"
#include "silkroute/queries.h"

namespace silkroute::bench {
namespace {

struct LoadResult {
  double wall_ms = 0;
  std::vector<double> latencies_ms;  // admitted requests only
  size_t shed = 0;
  service::ServiceMetrics metrics;
};

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  size_t index = static_cast<size_t>(p * static_cast<double>(values.size()));
  return values[std::min(index, values.size() - 1)];
}

LoadResult RunLoad(const Database* db, engine::SqlExecutor* executor,
                   int requests) {
  service::ServiceOptions options;
  options.workers = static_cast<size_t>(EnvInt("SILK_SERVICE_WORKERS", 8));
  options.admission.max_pending_requests =
      static_cast<size_t>(EnvInt("SILK_SERVICE_PENDING", 16));
  options.default_deadline_ms = EnvScale("SILK_SERVICE_DEADLINE_MS", 0);
  options.retry.sleep_fn = [](double) {};  // keep the sick run fast
  options.executor = executor;
  service::PublishingService service(db, options);

  service::ServiceRequest prototype;
  prototype.rxl = std::string(core::Query1Rxl());
  prototype.options.document_element = "suppliers";

  std::vector<service::ServiceRequest> batch(static_cast<size_t>(requests),
                                             prototype);
  Timer timer;
  auto responses = service.PublishAll(std::move(batch));
  LoadResult result;
  result.wall_ms = timer.ElapsedMillis();
  for (const auto& response : responses) {
    if (response.status.code() == StatusCode::kResourceExhausted) {
      ++result.shed;
    } else {
      result.latencies_ms.push_back(response.elapsed_ms);
    }
  }
  result.metrics = service.metrics();
  return result;
}

void Report(const char* scenario, const LoadResult& r, int requests,
            BenchReport* report) {
  double served = static_cast<double>(requests) - static_cast<double>(r.shed);
  double throughput = r.wall_ms > 0 ? served / (r.wall_ms / 1000.0) : 0;
  std::printf("%-12s %4d req  wall %8.1f ms  %7.1f req/s  shed %4.1f%%  "
              "p50 %7.1f ms  p95 %7.1f ms\n",
              scenario, requests, r.wall_ms, throughput,
              100.0 * static_cast<double>(r.shed) / requests,
              Percentile(r.latencies_ms, 0.50),
              Percentile(r.latencies_ms, 0.95));
  std::printf("             completed %zu  timed_out %zu  failed %zu  "
              "breaker trips %zu  fast-fails %zu\n",
              r.metrics.completed, r.metrics.timed_out, r.metrics.failed,
              r.metrics.breaker_trips, r.metrics.breaker_fast_fails);
  report->Add(scenario,
              {{"requests", static_cast<double>(requests)},
               {"wall_ms", r.wall_ms},
               {"throughput_rps", throughput},
               {"shed", static_cast<double>(r.shed)},
               {"p50_ms", Percentile(r.latencies_ms, 0.50)},
               {"p95_ms", Percentile(r.latencies_ms, 0.95)},
               {"completed", static_cast<double>(r.metrics.completed)},
               {"timed_out", static_cast<double>(r.metrics.timed_out)},
               {"failed", static_cast<double>(r.metrics.failed)},
               {"breaker_trips", static_cast<double>(r.metrics.breaker_trips)},
               {"breaker_fast_fails",
                static_cast<double>(r.metrics.breaker_fast_fails)}});
}

}  // namespace
}  // namespace silkroute::bench

int main() {
  using namespace silkroute;
  using namespace silkroute::bench;

  double scale = EnvScale("SILK_SCALE_A", 0.025);
  int requests = EnvInt("SILK_SERVICE_REQUESTS", 48);
  auto db = MakeDatabase(scale);
  std::printf("%s", Header("Service load, Query 1, scale " +
                           std::to_string(scale)));

  BenchReport report("service_load");
  // Healthy source: the service's own DatabaseExecutor.
  Report("healthy", RunLoad(db.get(), nullptr, requests), requests, &report);

  // One sick table: every query joining it fails permanently. The first
  // failures trip its breaker; later requests degrade around it without
  // executing (or retrying) doomed queries.
  const char* sick_table = std::getenv("SILK_SICK_TABLE");
  std::string sick = sick_table && sick_table[0] ? sick_table : "PartSupp";
  engine::DatabaseExecutor db_executor(db.get());
  engine::FaultPolicy policy;
  engine::FaultRule rule;
  rule.table = sick;
  rule.fail = true;
  policy.rules.push_back(rule);
  engine::FaultInjectingExecutor faulty(&db_executor, policy);
  faulty.set_sleep_fn([](double) {});
  std::printf("sick table: %s\n", sick.c_str());
  Report("sick-table", RunLoad(db.get(), &faulty, requests), requests,
         &report);

  // Remote backend: the same queries through an in-process EngineServer
  // over a real loopback socket — the full wire cost (frame encode/decode,
  // payload hash, connection pooling) relative to the in-process healthy
  // run. Loopback RTT varies across machines, so baselines compare with a
  // loose tolerance.
  net::EngineServerOptions server_options;
  server_options.workers = static_cast<size_t>(EnvInt("SILK_SERVICE_WORKERS", 8));
  net::EngineServer server(db.get(), server_options);
  auto started = server.Start();
  if (!started.ok()) {
    std::printf("remote scenario skipped: %s\n",
                std::string(started.message()).c_str());
    return 0;
  }
  net::RemoteExecutorOptions remote_options;
  remote_options.port = server.port();
  net::RemoteSqlExecutor remote(remote_options);
  Report("remote", RunLoad(db.get(), &remote, requests), requests, &report);
  remote.Shutdown();

  // Replica set: the same load across three in-process replicas behind
  // health-aware power-of-two-choices routing with hedging enabled. The
  // interesting delta is against the single "remote" row: routing spreads
  // in-flight work, so wall time should not regress despite the extra
  // bookkeeping. Like "remote", compared with a loose tolerance.
  net::EngineServer replica_b(db.get(), server_options);
  net::EngineServer replica_c(db.get(), server_options);
  if (replica_b.Start().ok() && replica_c.Start().ok()) {
    net::ReplicaSetOptions set_options;
    set_options.backend = "bench";
    set_options.remote.port = 0;  // per-endpoint ports below
    for (net::EngineServer* s : {&server, &replica_b, &replica_c}) {
      net::ReplicaEndpoint endpoint;
      endpoint.name = "r" + std::to_string(set_options.endpoints.size());
      endpoint.host = "127.0.0.1";
      endpoint.port = s->port();
      set_options.endpoints.push_back(endpoint);
    }
    net::ReplicaSet set(set_options);
    Report("replicas", RunLoad(db.get(), &set, requests), requests, &report);
    std::printf("             hedges fired %zu  won %zu  ejections %zu\n",
                set.hedges_fired(), set.hedges_won(), set.ejections());
    set.Shutdown();
  } else {
    std::printf("replicas scenario skipped: extra replicas failed to start\n");
  }
  replica_b.Shutdown();
  replica_c.Shutdown();
  server.Shutdown();
  return 0;
}
