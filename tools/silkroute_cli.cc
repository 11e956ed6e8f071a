// silkroute: the middle-ware as a command-line tool.
//
//   silkroute --schema schema.sql --data dir/ --view view.rxl [options]
//
// Loads a relational database from a DDL file plus per-table CSV files
// (dir/<Table>.csv), compiles the RXL view, and publishes the XML document.
//
// Options:
//   --schema FILE      CREATE TABLE statements (required)
//   --data DIR         directory with <Table>.csv files (default: schema dir)
//   --view FILE        RXL view query (required unless --demo)
//   --output FILE      write XML here (default: stdout)
//   --root NAME        wrap the document in this element
//   --strategy S       greedy | unified | partitioned | outer-union
//   --subview PATH     publish only /a[b='x']/c of the view
//   --explain          print the view tree, plan, and SQL; no execution
//   --dtd              print the DTD derived from the view and exit
//   --pretty           indent the XML output
//   --no-reduce        disable view-tree reduction
//   --concurrency N    publish through the concurrent service with N workers
//   --deadline-ms D    end-to-end deadline per request (service mode)
//   --requests N       publish the view N times concurrently (service mode)
//   --trace FILE       write the span trace as JSONL (see tools/trace_check)
//   --prom FILE        write metrics in Prometheus text exposition format
//   --stats            print the metrics summary table on stderr
//
// Result cache (DESIGN.md §15):
//   --cache-mb N       cache component-query results and finished documents
//                      under an N-MB byte budget, keyed by table versions;
//                      repeated publishes (--requests) of an unchanged view
//                      are served from cache, byte-identical
//   --cache-stats      print hit/miss/eviction/splice totals on stderr
//                      after publishing (enables a 64 MB cache if --cache-mb
//                      was not given)
//
// Live observability (DESIGN.md §14):
//   --prom-port PORT   serve live Prometheus text exposition over HTTP on
//                      PORT while running (0 = ephemeral; works in serve,
//                      service, and plain publish modes)
//   --prom-port-file F with --prom-port: write the bound scrape port to F
//   --scrape HOST:PORT fetch a running engine server's metrics snapshot
//                      via a kStats wire frame, print it, and exit
//
// Networked federation (DESIGN.md §12):
//   --serve PORT       run as an engine server: load schema+data, answer
//                      wire-protocol SQL requests until SIGINT/SIGTERM
//                      (PORT 0 = ephemeral; no --view needed)
//   --port-file FILE   with --serve: write the bound port to FILE once
//                      listening (how scripts find an ephemeral port)
//   --connect LIST     execute component SQL on the engine server(s) at
//                      the comma-separated host:port list instead of the
//                      local engine; two or more endpoints form a replica
//                      set (health-aware routing + hedged requests,
//                      DESIGN.md §13)
//   --federate LIST    with --connect: route only the comma-separated
//                      tables to the remote ("all" = every table), fall
//                      back to the locally loaded data when it is down
#include <csignal>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <thread>

#include "common/timer.h"
#include "engine/result_cache.h"
#include "net/prom_server.h"
#include "net/remote_executor.h"
#include "net/replica_set.h"
#include "net/server.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "relational/csv.h"
#include "service/federated_executor.h"
#include "service/publishing_service.h"
#include "silkroute/dtdgen.h"
#include "silkroute/partition.h"
#include "silkroute/publisher.h"
#include "rxl/parser.h"
#include "silkroute/subview.h"
#include "sql/ddl.h"

using namespace silkroute;
using namespace silkroute::core;

namespace {

struct Args {
  std::string schema;
  std::string data;
  std::string view;
  std::string output;
  std::string root;
  std::string strategy = "greedy";
  std::string subview;
  bool explain = false;
  bool dtd = false;
  bool pretty = false;
  bool reduce = true;
  int concurrency = 0;      // >0: publish through the PublishingService
  double deadline_ms = 0;   // end-to-end deadline per request
  int requests = 1;         // concurrent copies of the request
  std::string trace;        // JSONL span trace output path
  std::string prom;         // Prometheus text output path
  bool stats = false;       // metrics table on stderr
  int cache_mb = 0;         // >0: result cache with this byte budget (MB)
  bool cache_stats = false; // print cache totals on stderr after the run
  int prom_port = -1;       // >=0: live HTTP scrape endpoint on this port
  std::string prom_port_file;  // write the bound scrape port here
  std::string scrape;       // host:port — print a server's stats and exit
  int serve = -1;           // >=0: run as an engine server on this port
  std::string port_file;    // with --serve: write the bound port here
  std::string connect;      // host:port of a remote engine server
  std::string federate;     // comma-separated remote tables, or "all"
};

volatile std::sig_atomic_t g_stop = 0;
void HandleStopSignal(int) { g_stop = 1; }

int Usage(const char* argv0) {
  std::cerr << "usage: " << argv0
            << " --schema schema.sql --view view.rxl [--data dir] "
               "[--output file] [--root name] [--strategy greedy|unified|"
               "partitioned|outer-union] [--subview path] [--explain] "
               "[--dtd] [--pretty] [--no-reduce] [--concurrency N] "
               "[--deadline-ms D] [--requests N] "
               "[--trace file] [--prom file] [--stats] "
               "[--cache-mb N] [--cache-stats] "
               "[--prom-port port [--prom-port-file file]] "
               "[--scrape host:port] "
               "[--serve port [--port-file file]] [--connect host:port"
               "[,host:port...] [--federate table,...|all]]\n";
  return 2;
}

Result<std::string> ReadFile(const std::string& path) {
  std::ifstream in(path);
  if (!in.is_open()) {
    return Status::NotFound("cannot open '" + path + "'");
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

#define CLI_CHECK(expr)                                       \
  do {                                                        \
    auto&& _cli_result = (expr);                              \
    if (!_cli_result.ok()) {                                  \
      std::cerr << "error: " << _cli_result.status() << "\n"; \
      return 1;                                               \
    }                                                         \
  } while (false)

}  // namespace

int main(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (flag == "--schema") {
      args.schema = next() ? argv[i] : "";
    } else if (flag == "--data") {
      args.data = next() ? argv[i] : "";
    } else if (flag == "--view") {
      args.view = next() ? argv[i] : "";
    } else if (flag == "--output") {
      args.output = next() ? argv[i] : "";
    } else if (flag == "--root") {
      args.root = next() ? argv[i] : "";
    } else if (flag == "--strategy") {
      args.strategy = next() ? argv[i] : "";
    } else if (flag == "--subview") {
      args.subview = next() ? argv[i] : "";
    } else if (flag == "--explain") {
      args.explain = true;
    } else if (flag == "--dtd") {
      args.dtd = true;
    } else if (flag == "--pretty") {
      args.pretty = true;
    } else if (flag == "--no-reduce") {
      args.reduce = false;
    } else if (flag == "--concurrency") {
      args.concurrency = next() ? std::atoi(argv[i]) : -1;
      if (args.concurrency <= 0) return Usage(argv[0]);
    } else if (flag == "--deadline-ms") {
      args.deadline_ms = next() ? std::atof(argv[i]) : -1;
      if (args.deadline_ms <= 0) return Usage(argv[0]);
    } else if (flag == "--requests") {
      args.requests = next() ? std::atoi(argv[i]) : -1;
      if (args.requests <= 0) return Usage(argv[0]);
    } else if (flag == "--trace") {
      args.trace = next() ? argv[i] : "";
      if (args.trace.empty()) return Usage(argv[0]);
    } else if (flag == "--prom") {
      args.prom = next() ? argv[i] : "";
      if (args.prom.empty()) return Usage(argv[0]);
    } else if (flag == "--stats") {
      args.stats = true;
    } else if (flag == "--cache-mb") {
      args.cache_mb = next() ? std::atoi(argv[i]) : -1;
      if (args.cache_mb <= 0) return Usage(argv[0]);
    } else if (flag == "--cache-stats") {
      args.cache_stats = true;
    } else if (flag == "--prom-port") {
      args.prom_port = next() ? std::atoi(argv[i]) : -1;
      if (args.prom_port < 0 || args.prom_port > 65535) return Usage(argv[0]);
    } else if (flag == "--prom-port-file") {
      args.prom_port_file = next() ? argv[i] : "";
      if (args.prom_port_file.empty()) return Usage(argv[0]);
    } else if (flag == "--scrape") {
      args.scrape = next() ? argv[i] : "";
      if (args.scrape.find(':') == std::string::npos) return Usage(argv[0]);
    } else if (flag == "--serve") {
      args.serve = next() ? std::atoi(argv[i]) : -1;
      if (args.serve < 0 || args.serve > 65535) return Usage(argv[0]);
    } else if (flag == "--port-file") {
      args.port_file = next() ? argv[i] : "";
      if (args.port_file.empty()) return Usage(argv[0]);
    } else if (flag == "--connect") {
      args.connect = next() ? argv[i] : "";
      if (args.connect.find(':') == std::string::npos) return Usage(argv[0]);
    } else if (flag == "--federate") {
      args.federate = next() ? argv[i] : "";
      if (args.federate.empty()) return Usage(argv[0]);
    } else {
      std::cerr << "unknown flag '" << flag << "'\n";
      return Usage(argv[0]);
    }
  }
  // Scrape mode: dial a running engine server, print its live metrics
  // snapshot, exit. Needs no schema or view of its own.
  if (!args.scrape.empty()) {
    size_t colon = args.scrape.find_last_of(':');
    std::string host = args.scrape.substr(0, colon);
    uint16_t port =
        static_cast<uint16_t>(std::atoi(args.scrape.c_str() + colon + 1));
    auto stats = net::FetchServerStats(host, port, /*timeout_ms=*/2000);
    CLI_CHECK(stats);
    std::cout << *stats;
    return 0;
  }

  // A server answers SQL; it never compiles a view of its own.
  if (args.schema.empty()) return Usage(argv[0]);
  if (args.view.empty() && args.serve < 0) return Usage(argv[0]);
  if (!args.federate.empty() && args.connect.empty()) return Usage(argv[0]);

  // 1. Schema.
  Database db;
  {
    auto ddl = ReadFile(args.schema);
    CLI_CHECK(ddl);
    auto created = sql::ExecuteDdl(*ddl, &db);
    CLI_CHECK(created);
    std::cerr << "created " << *created << " table(s)\n";
  }

  // 2. Data (skipped for --explain / --dtd without a data dir).
  std::string data_dir = args.data;
  if (data_dir.empty()) {
    size_t slash = args.schema.find_last_of('/');
    data_dir = slash == std::string::npos ? "." : args.schema.substr(0, slash);
  }
  size_t total_rows = 0;
  Timer load_timer;
  for (const std::string& table : db.catalog().TableNames()) {
    std::string path = data_dir + "/" + table + ".csv";
    std::ifstream probe(path);
    if (!probe.is_open()) continue;
    probe.close();
    auto loaded = LoadCsvFile(path, CsvLoadOptions{}, table, &db);
    CLI_CHECK(loaded);
    total_rows += *loaded;
  }
  const double load_ms = load_timer.ElapsedMillis();
  std::cerr << "loaded " << total_rows << " row(s), "
            << db.TotalByteSize() << " bytes in " << load_ms << " ms\n";

  // Server mode: answer wire-protocol SQL requests over the loaded data
  // until a stop signal. The publisher side of the federation runs
  // elsewhere with --connect.
  if (args.serve >= 0) {
    std::signal(SIGINT, HandleStopSignal);
    std::signal(SIGTERM, HandleStopSignal);
    obs::MetricsRegistry serve_registry;
    net::EngineServerOptions server_options;
    server_options.port = static_cast<uint16_t>(args.serve);
    server_options.workers =
        args.concurrency > 0 ? static_cast<size_t>(args.concurrency) : 4;
    server_options.metrics = &serve_registry;
    net::EngineServer server(&db, server_options);
    auto started = server.Start();
    if (!started.ok()) {
      std::cerr << "error: " << started << "\n";
      return 1;
    }
    // Live scrape endpoint next to the wire listener: HTTP on --prom-port
    // for Prometheus, while kStats frames serve the CLI's --scrape.
    std::unique_ptr<net::PromServer> prom_server;
    if (args.prom_port >= 0) {
      prom_server = std::make_unique<net::PromServer>(
          &serve_registry, server_options.host,
          static_cast<uint16_t>(args.prom_port));
      auto prom_started = prom_server->Start();
      if (!prom_started.ok()) {
        std::cerr << "error: " << prom_started << "\n";
        return 1;
      }
      if (!args.prom_port_file.empty()) {
        std::ofstream prom_port_out(args.prom_port_file);
        if (!prom_port_out.is_open()) {
          std::cerr << "error: cannot write '" << args.prom_port_file
                    << "'\n";
          return 1;
        }
        prom_port_out << prom_server->port() << "\n";
      }
      std::cerr << "prometheus scrape on port " << prom_server->port()
                << "\n";
    }
    if (!args.port_file.empty()) {
      std::ofstream port_out(args.port_file);
      if (!port_out.is_open()) {
        std::cerr << "error: cannot write '" << args.port_file << "'\n";
        return 1;
      }
      port_out << server.port() << "\n";
    }
    std::cerr << "serving on port " << server.port() << "\n";
    while (g_stop == 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
    if (prom_server != nullptr) prom_server->Shutdown();
    server.Shutdown();
    std::cerr << "served " << server.requests_served() << " request(s), "
              << server.requests_failed() << " failed, "
              << server.connections_accepted() << " connection(s)\n";
    return 0;
  }

  // 3. View.
  auto view_text = ReadFile(args.view);
  CLI_CHECK(view_text);
  std::string rxl = *view_text;
  if (!args.subview.empty()) {
    auto parsed = rxl::ParseRxl(rxl);
    CLI_CHECK(parsed);
    auto composed = ComposeSubview(*parsed, args.subview);
    CLI_CHECK(composed);
    rxl = composed->ToString();
  }

  Publisher publisher(&db);
  if (args.dtd) {
    auto tree = publisher.BuildViewTree(rxl);
    CLI_CHECK(tree);
    auto dtd = GenerateDtdText(*tree, args.root);
    CLI_CHECK(dtd);
    std::cout << *dtd;
    return 0;
  }

  PublishOptions options;
  options.document_element = args.root;
  options.pretty = args.pretty;
  options.reduce = args.reduce;
  if (args.strategy == "greedy") {
    options.strategy = PlanStrategy::kGreedy;
  } else if (args.strategy == "unified") {
    options.strategy = PlanStrategy::kUnified;
  } else if (args.strategy == "partitioned") {
    options.strategy = PlanStrategy::kFullyPartitioned;
  } else if (args.strategy == "outer-union") {
    options.strategy = PlanStrategy::kUnified;
    options.style = SqlGenStyle::kOuterUnion;
    options.reduce = false;
  } else {
    std::cerr << "unknown strategy '" << args.strategy << "'\n";
    return Usage(argv[0]);
  }

  // Observability: a collecting tracer when --trace was given, a metrics
  // registry when --stats/--prom/--prom-port were; null pointers keep the
  // whole stack in its compiled-in disabled mode.
  obs::CollectingSink trace_sink;
  obs::Tracer tracer(&trace_sink);
  obs::MetricsRegistry registry;
  obs::Tracer* tracer_ptr = args.trace.empty() ? nullptr : &tracer;
  obs::MetricsRegistry* registry_ptr =
      (args.stats || !args.prom.empty() || args.prom_port >= 0) ? &registry
                                                                : nullptr;
  if (registry_ptr != nullptr) {
    // Bulk-load accounting, captured above before the registry existed.
    registry_ptr->gauge("silkroute_load_ms")
        ->Set(static_cast<int64_t>(load_ms + 0.5));
    registry_ptr->counter("silkroute_load_rows_total")->Add(total_rows);
  }
  auto export_observability = [&]() -> bool {
    if (!args.trace.empty()) {
      std::ofstream trace_out(args.trace);
      if (!trace_out.is_open()) {
        std::cerr << "error: cannot write '" << args.trace << "'\n";
        return false;
      }
      obs::WriteTraceJsonl(trace_out, trace_sink.spans());
      std::cerr << "trace: " << trace_sink.size() << " span(s) -> "
                << args.trace << "\n";
    }
    if (!args.prom.empty()) {
      std::ofstream prom_out(args.prom);
      if (!prom_out.is_open()) {
        std::cerr << "error: cannot write '" << args.prom << "'\n";
        return false;
      }
      obs::WritePrometheusText(prom_out, registry.Snapshot());
    }
    if (args.stats) obs::WriteStatsTable(std::cerr, registry.Snapshot());
    return true;
  };

  // Result cache (DESIGN.md §15): one instance shared by every publish this
  // process runs, so repeated --requests serve warm fragments/documents.
  std::unique_ptr<engine::ResultCache> result_cache;
  if (args.cache_mb > 0 || args.cache_stats) {
    engine::ResultCache::Options cache_options;
    cache_options.budget_bytes =
        static_cast<size_t>(args.cache_mb > 0 ? args.cache_mb : 64) << 20;
    cache_options.metrics = registry_ptr;
    result_cache = std::make_unique<engine::ResultCache>(cache_options);
  }
  auto report_cache = [&] {
    if (result_cache == nullptr || !args.cache_stats) return;
    auto s = result_cache->stats();
    std::cerr << "cache: " << s.hits << " hit(s), " << s.misses
              << " miss(es), " << s.evictions << " eviction(s), " << s.splices
              << " splice(s), " << s.entries << " entr"
              << (s.entries == 1 ? "y" : "ies") << ", " << s.resident_bytes
              << " byte(s) resident\n";
  };

  if (args.explain) {
    // The prepared plan a publish with the same flags runs.
    auto plan = publisher.Prepare(rxl, options);
    CLI_CHECK(plan);
    const ViewTree& tree = *(*plan)->tree;
    std::cout << "view tree:\n" << tree.ToString() << "\n";
    if (options.strategy == PlanStrategy::kGreedy) {
      std::cout << "greedy " << (*plan)->greedy_plan.ToString(tree) << "\n";
    }
    auto partition = Partition::FromMask(tree, (*plan)->mask);
    CLI_CHECK(partition);
    std::cout << "plan: " << partition->ToString() << "\n";
    for (const auto& spec : (*plan)->specs) {
      auto est = publisher.estimator()->EstimateSql(spec.sql);
      CLI_CHECK(est);
      std::cout << "-- rows~" << static_cast<long long>(est->rows)
                << " cost~" << static_cast<long long>(est->cost) << "\n"
                << spec.sql << "\n";
    }
    return 0;
  }

  std::ofstream file_out;
  std::ostream* out = &std::cout;
  if (!args.output.empty()) {
    file_out.open(args.output);
    if (!file_out.is_open()) {
      std::cerr << "error: cannot write '" << args.output << "'\n";
      return 1;
    }
    out = &file_out;
  }

  // Live scrape endpoint for the publishing side: Prometheus HTTP over the
  // same registry the run records into.
  std::unique_ptr<net::PromServer> prom_server;
  if (args.prom_port >= 0) {
    prom_server = std::make_unique<net::PromServer>(
        &registry, "127.0.0.1", static_cast<uint16_t>(args.prom_port));
    auto prom_started = prom_server->Start();
    if (!prom_started.ok()) {
      std::cerr << "error: " << prom_started << "\n";
      return 1;
    }
    if (!args.prom_port_file.empty()) {
      std::ofstream prom_port_out(args.prom_port_file);
      if (!prom_port_out.is_open()) {
        std::cerr << "error: cannot write '" << args.prom_port_file << "'\n";
        return 1;
      }
      prom_port_out << prom_server->port() << "\n";
    }
    std::cerr << "prometheus scrape on port " << prom_server->port() << "\n";
  }

  // Federation: component SQL goes to one remote engine server — or a
  // replica set of them when --connect lists several endpoints —
  // optionally split by table ownership with the local engine as
  // failover target.
  std::unique_ptr<net::RemoteSqlExecutor> remote_executor;
  std::unique_ptr<net::ReplicaSet> replica_set;
  std::unique_ptr<engine::DatabaseExecutor> local_executor;
  std::unique_ptr<service::FederatedExecutor> federated_executor;
  engine::SqlExecutor* executor = nullptr;
  if (!args.connect.empty()) {
    std::vector<net::ReplicaEndpoint> endpoints;
    std::istringstream connect_list(args.connect);
    std::string hostport;
    while (std::getline(connect_list, hostport, ',')) {
      if (hostport.empty()) continue;
      size_t colon = hostport.find_last_of(':');
      if (colon == std::string::npos) return Usage(argv[0]);
      net::ReplicaEndpoint endpoint;
      endpoint.name = "r" + std::to_string(endpoints.size());
      endpoint.host = hostport.substr(0, colon);
      endpoint.port =
          static_cast<uint16_t>(std::atoi(hostport.c_str() + colon + 1));
      endpoints.push_back(std::move(endpoint));
    }
    if (endpoints.empty()) return Usage(argv[0]);
    engine::SqlExecutor* remote = nullptr;
    if (endpoints.size() == 1) {
      net::RemoteExecutorOptions remote_options;
      remote_options.host = endpoints[0].host;
      remote_options.port = endpoints[0].port;
      remote_options.metrics = registry_ptr;
      remote_executor =
          std::make_unique<net::RemoteSqlExecutor>(remote_options);
      remote = remote_executor.get();
    } else {
      net::ReplicaSetOptions set_options;
      set_options.backend = "remote";
      set_options.endpoints = std::move(endpoints);
      set_options.metrics = registry_ptr;
      replica_set = std::make_unique<net::ReplicaSet>(std::move(set_options));
      remote = replica_set.get();
    }
    if (!args.federate.empty()) {
      local_executor = std::make_unique<engine::DatabaseExecutor>(&db);
      service::FederatedBackendSpec spec;
      spec.name = "remote";
      spec.executor = remote;
      if (args.federate != "all") {
        std::istringstream tables(args.federate);
        std::string table;
        while (std::getline(tables, table, ',')) {
          if (!table.empty()) spec.tables.push_back(table);
        }
      }
      service::FederatedExecutorOptions federated_options;
      federated_options.local = local_executor.get();
      federated_options.remotes.push_back(std::move(spec));
      federated_options.metrics = registry_ptr;
      federated_executor = std::make_unique<service::FederatedExecutor>(
          std::move(federated_options));
      executor = federated_executor.get();
    } else {
      executor = remote;
    }
  }

  // Service mode: publish through the concurrent PublishingService with a
  // worker pool, admission control, circuit breakers, and deadlines.
  if (args.concurrency > 0 || args.requests > 1 || args.deadline_ms > 0) {
    service::ServiceOptions service_options;
    service_options.workers =
        args.concurrency > 0 ? static_cast<size_t>(args.concurrency) : 4;
    service_options.default_deadline_ms = args.deadline_ms;
    service_options.executor = executor;  // null = built-in local engine
    service_options.tracer = tracer_ptr;
    service_options.metrics_registry = registry_ptr;
    service_options.result_cache = result_cache.get();
    service::PublishingService service(&db, service_options);
    std::vector<service::ServiceRequest> batch(
        static_cast<size_t>(args.requests));
    for (auto& request : batch) {
      request.rxl = rxl;
      request.options = options;
    }
    auto responses = service.PublishAll(std::move(batch));
    int failures = 0;
    for (size_t i = 0; i < responses.size(); ++i) {
      const auto& response = responses[i];
      if (!response.status.ok()) {
        std::cerr << "request " << i << ": error: " << response.status << "\n";
        ++failures;
        continue;
      }
      if (response.result.metrics.timed_out) {
        std::cerr << "request " << i << ": deadline expired after "
                  << response.elapsed_ms << " ms\n";
        ++failures;
        continue;
      }
      std::cerr << "request " << i << ": " << response.xml.size()
                << " bytes in " << response.elapsed_ms << " ms\n";
    }
    auto metrics = service.metrics();
    std::cerr << "service: " << metrics.completed << " completed, "
              << metrics.timed_out << " timed out, " << metrics.failed
              << " failed, " << metrics.admission.shed_requests
              << " shed\n";
    for (const auto& response : responses) {
      if (response.status.ok() && !response.result.metrics.timed_out) {
        *out << response.xml;  // all byte-identical; emit the document once
        break;
      }
    }
    report_cache();
    if (!export_observability()) return 1;
    if (prom_server != nullptr) prom_server->Shutdown();
    return failures == 0 ? 0 : 1;
  }

  options.executor = executor;  // null = built-in local engine
  options.tracer = tracer_ptr;
  options.metrics_registry = registry_ptr;
  options.result_cache = result_cache.get();
  auto result = publisher.Publish(rxl, options, out);
  CLI_CHECK(result);
  std::cerr << "published " << result->metrics.xml_bytes << " bytes via "
            << result->metrics.num_streams << " SQL quer"
            << (result->metrics.num_streams == 1 ? "y" : "ies") << " in "
            << result->metrics.total_ms() << " ms\n";
  report_cache();
  if (!export_observability()) return 1;
  if (prom_server != nullptr) prom_server->Shutdown();
  return 0;
}
