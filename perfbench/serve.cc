// `serve`: virtual-view fragments (paper Sec. 7) under an offered load.
// One generator thread sends seeded Poisson arrivals at two fixed rates
// through PublishingService, whose executor is a RemoteSqlExecutor talking
// to an in-process EngineServer over loopback: the paper's middle-ware /
// RDBMS split. Half the requests ask for /supplier[nation=...] (one
// nation's suppliers), half for /supplier/part/order[orderkey=...] (one
// order's few elements); each is planned greedily per request. There is no
// cache. Every response must match the serial in-process Publisher's
// document for its path, computed before the load starts.
//
// Latency is timed from each request's scheduled send time, so a stalled
// generator or a full queue is charged to the requests it delays
// (coordinated-omission correction); the generator's own lateness is
// reported as loadgen.late_ms.
#include <algorithm>
#include <condition_variable>
#include <deque>
#include <sstream>
#include <thread>

#include "net/remote_executor.h"
#include "net/server.h"
#include "rxl/parser.h"
#include "service/publishing_service.h"
#include "silkroute/queries.h"
#include "silkroute/subview.h"
#include "workloads.h"

namespace perfbench {
namespace {

namespace core = silkroute::core;
namespace net = silkroute::net;
namespace service = silkroute::service;

/// Service workers, engine-server workers and pooled connections.
size_t Lanes() {
  return std::clamp<size_t>(std::thread::hardware_concurrency(), 1, 4);
}

/// The two offered rates, in requests per second: about 30% and 50% of the
/// ~200 req/s this configuration sustained on 4 cores when the benchmark
/// was defined. Fixed, so every later build is measured at the same load.
constexpr double kLightRate = 60;
constexpr double kHeavyRate = 100;

/// Orders whose fragments a run draws from.
constexpr size_t kOrderPaths = 32;

struct Path {
  std::string path;
  std::string rxl;  // the view composed with the path
  uint64_t digest = 0;
};

struct Sent {
  size_t path = 0;
  Clock::time_point due;
  Clock::time_point sent;  // Submit returned
  std::shared_ptr<service::PublishTicket> ticket;  // null: refused
};

struct PhaseResult {
  std::vector<double> latency_ms;
  /// Latency by path: each path is a request class. Fragments of one
  /// class (nation or order) still differ several-fold in size.
  std::vector<std::vector<double>> by_path;
  std::vector<double> late_ms;
  double queue_wait_ms = 0;
  size_t completed = 0;
};

class Serve : public Workload {
 public:
  void Setup() override;
  Report Run(const RunConfig& config) override;

 private:
  void BuildPaths(uint64_t seed);
  /// Sends the schedule open-loop and collects every response.
  PhaseResult Phase(uint64_t seed, double rate, double seconds, bool traced,
                    Report* report);
  std::vector<std::vector<double>> Nations(const PhaseResult& phase) const {
    return {phase.by_path.begin(), phase.by_path.begin() + nation_paths_};
  }
  std::vector<std::vector<double>> Orders(const PhaseResult& phase) const {
    return {phase.by_path.begin() + nation_paths_, phase.by_path.end()};
  }
  core::PublishOptions Options() const {
    core::PublishOptions options;
    options.document_element = "fragment";
    return options;
  }

  // Declared in dependency order, so each is destroyed before what it uses.
  std::unique_ptr<silkroute::Database> db_;
  std::unique_ptr<core::Publisher> publisher_;
  std::unique_ptr<net::EngineServer> server_;
  std::unique_ptr<net::RemoteSqlExecutor> remote_;
  std::unique_ptr<TimedExecutor> executor_;
  std::unique_ptr<service::PublishingService> service_;

  std::vector<Path> paths_;
  size_t nation_paths_ = 0;
  MachineGauge* gauge_ = nullptr;  // sampled by the collector thread
  SpanRecorder recorder_;
  uint64_t requests_ = 0;
};

void Serve::Setup() {
  service_.reset();
  executor_.reset();
  remote_.reset();
  server_.reset();
  publisher_.reset();
  db_ = MakeConfigA();
  publisher_ = std::make_unique<core::Publisher>(db_.get());

  net::EngineServerOptions server_options;
  server_options.workers = Lanes();
  server_ = std::make_unique<net::EngineServer>(db_.get(), server_options);
  silkroute::Status started = server_->Start();
  if (!started.ok()) {
    std::fprintf(stderr, "engine server failed to start: %s\n",
                 started.ToString().c_str());
    std::exit(1);
  }
  net::RemoteExecutorOptions remote_options;
  remote_options.port = server_->port();
  remote_options.max_pooled_connections = Lanes();
  remote_ = std::make_unique<net::RemoteSqlExecutor>(remote_options);
  executor_ = std::make_unique<TimedExecutor>(remote_.get());

  service::ServiceOptions options;
  options.workers = Lanes();
  // Sized so that neither offered rate sheds: a request's queue wait, not
  // its refusal, is what the tail measures.
  options.admission.max_pending_requests = 4096;
  options.admission.max_in_flight_queries = 1 << 16;
  options.executor = executor_.get();
  service_ = std::make_unique<service::PublishingService>(db_.get(), options);
}

void Serve::BuildPaths(uint64_t seed) {
  auto view = silkroute::rxl::ParseRxl(core::Query1Rxl());
  if (!view.ok()) std::exit(1);
  std::vector<std::string> paths;
  for (const silkroute::Tuple& row :
       QueryRows(*db_, "SELECT name FROM Nation ORDER BY name")) {
    paths.push_back("/supplier[nation='" + row[0].AsString() + "']");
  }
  nation_paths_ = paths.size();
  std::vector<int64_t> orders;
  for (const silkroute::Tuple& row :
       QueryRows(*db_, "SELECT DISTINCT orderkey FROM LineItem ORDER BY "
                       "orderkey")) {
    orders.push_back(row[0].AsInt64());
  }
  for (size_t i : Choices(SubSeed(seed, "serve.orders"), orders.size(),
                          kOrderPaths)) {
    paths.push_back("/supplier/part/order[orderkey=" +
                    std::to_string(orders[i]) + "]");
  }
  for (std::string& path : paths) {
    auto composed = core::ComposeSubview(*view, path);
    if (!composed.ok()) {
      std::fprintf(stderr, "cannot compose %s: %s\n", path.c_str(),
                   composed.status().ToString().c_str());
      std::exit(1);
    }
    Path p{std::move(path), composed->ToString(), 0};
    std::ostringstream out;
    auto result = publisher_->Publish(p.rxl, Options(), &out);
    if (!result.ok()) {
      std::fprintf(stderr, "reference publish failed for %s\n",
                   p.path.c_str());
      std::exit(1);
    }
    p.digest = Digest(out.view());
    paths_.push_back(std::move(p));
  }
}

PhaseResult Serve::Phase(uint64_t seed, double rate, double seconds,
                         bool traced, Report* report) {
  std::vector<double> schedule =
      PoissonSchedule(SubSeed(seed, "arrivals"), rate, seconds);
  // Half nation fragments, half order fragments.
  Rng pick(SubSeed(seed, "paths"));
  std::vector<size_t> chosen(schedule.size());
  for (size_t& p : chosen) {
    p = pick.Below(2) == 0
            ? pick.Below(nation_paths_)
            : nation_paths_ + pick.Below(paths_.size() - nation_paths_);
  }

  PhaseResult result;
  result.by_path.resize(paths_.size());
  std::mutex mu;
  std::condition_variable cv;
  std::deque<Sent> sent;
  bool done_sending = false;

  // Collector: waits for responses in send order and checks each one.
  std::thread collector([&] {
    for (;;) {
      Sent s;
      {
        std::unique_lock<std::mutex> lock(mu);
        cv.wait(lock, [&] { return !sent.empty() || done_sending; });
        if (sent.empty()) return;
        s = std::move(sent.front());
        sent.pop_front();
      }
      bool ok = false;
      if (s.ticket != nullptr) {
        const service::ServiceResponse& r = s.ticket->Wait();
        ok = r.status.ok() && !r.result.metrics.timed_out &&
             Digest(r.xml) == paths_[s.path].digest;
        Clock::time_point finished =
            s.sent + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double, std::milli>(
                             r.elapsed_ms));
        if (ok) {
          double latency = MsBetween(s.due, finished);
          result.latency_ms.push_back(latency);
          result.by_path[s.path].push_back(latency);
          for (const core::ComponentOutcome& c : r.result.metrics.components) {
            result.queue_wait_ms += c.queue_wait_ms;
          }
          ++result.completed;
          if (traced) {
            uint64_t request = ++requests_;
            double due = recorder_.At(s.due);
            int root = recorder_.Add("request", due, due + latency, -1,
                                     request);
            recorder_.Add("loadgen.late", due, recorder_.At(s.sent), root,
                          request);
          }
        }
      }
      result.late_ms.push_back(MsBetween(s.due, s.sent));
      gauge_->MaybeSample();
      std::lock_guard<std::mutex> lock(mu);
      ++report->attempted;
      if (!ok) {
        report->Fail(paths_[s.path].path +
                     ": refused, failed or differs from the serial document");
      }
    }
  });

  Clock::time_point origin = Clock::now();
  for (size_t i = 0; i < schedule.size(); ++i) {
    Clock::time_point due =
        origin + std::chrono::duration_cast<Clock::duration>(
                     std::chrono::duration<double>(schedule[i]));
    std::this_thread::sleep_until(due);
    service::ServiceRequest request;
    request.rxl = paths_[chosen[i]].rxl;
    request.options = Options();
    auto ticket = service_->Submit(std::move(request));
    Sent s{chosen[i], due, Clock::now(),
           ticket.ok() ? std::move(ticket).value() : nullptr};
    std::lock_guard<std::mutex> lock(mu);
    sent.push_back(std::move(s));
    cv.notify_one();
  }
  {
    std::lock_guard<std::mutex> lock(mu);
    done_sending = true;
    cv.notify_one();
  }
  collector.join();
  return result;
}

Report Serve::Run(const RunConfig& config) {
  Report report;
  gauge_ = config.gauge;
  BuildPaths(config.seed);

  // Warm-up, untimed: two seconds at the heavy rate open every pooled
  // connection and let the allocator grow its per-thread arenas.
  Phase(SubSeed(config.seed, "warmup"), kHeavyRate, 2, false, &report);

  // The light rate gets two thirds of the time: it carries the gated
  // figures. At the heavy rate, a machine running slower for a while (as
  // shared virtual machines do) turns into queueing, and its quartiles
  // moved 0.3-0.4 of their median between runs.
  double span = config.trace ? config.seconds / 2 : config.seconds;
  PhaseResult light = Phase(SubSeed(config.seed, "light"), kLightRate,
                            span * 2 / 3, false, &report);
  PhaseResult heavy = Phase(SubSeed(config.seed, "heavy"), kHeavyRate,
                            span / 3, false, &report);
  Tail light_tail = TailOf(light.latency_ms);
  Tail heavy_tail = TailOf(heavy.latency_ms);
  // Each path is a request class: p25 averages the nation paths' lower
  // quartiles, aux the order paths'.
  report.p25_ms = MeanOfQuantiles(Nations(light), 0.25);
  report.aux_p25_ms = MeanOfQuantiles(Orders(light), 0.25);
  report.detail.push_back(
      {"serve_light_p50_ms", MeanOfQuantiles(light.by_path, 0.5), "ms"});
  AddTail("serve_light_tail_ms", light_tail, &report.detail);
  report.detail.push_back(
      {"serve_heavy_p50_ms", MeanOfQuantiles(heavy.by_path, 0.5), "ms"});
  AddTail("serve_heavy_tail_ms", heavy_tail, &report.detail);
  for (const auto& [rate, phase] : {std::pair{"light", &light},
                                    std::pair{"heavy", &heavy}}) {
    report.detail.push_back({std::string("serve_") + rate + "_nation_p50_ms",
                             MeanOfQuantiles(Nations(*phase), 0.5), "ms"});
    report.detail.push_back({std::string("serve_") + rate + "_order_p50_ms",
                             MeanOfQuantiles(Orders(*phase), 0.5), "ms"});
  }
  double late_max = 0;
  for (const PhaseResult* phase : {&light, &heavy}) {
    for (double ms : phase->late_ms) late_max = std::max(late_max, ms);
  }
  report.detail.push_back({"loadgen_late_max_ms", late_max, "ms"});

  auto& layers = report.layers;
  layers["relational.table_bytes"] = static_cast<double>(db_->TotalByteSize());
  if (!config.trace) return report;

  executor_->TakeTotals();
  executor_->set_recording(true);
  PhaseResult traced_light = Phase(SubSeed(config.seed, "traced.light"),
                                   kLightRate, span * 2 / 3, true, &report);
  PhaseResult traced_heavy = Phase(SubSeed(config.seed, "traced.heavy"),
                                   kHeavyRate, span / 3, true, &report);
  executor_->set_recording(false);
  TimedExecutor::Totals wire = executor_->TakeTotals();
  double requests =
      static_cast<double>(traced_light.completed + traced_heavy.completed);
  std::map<std::string, double> self =
      SelfTimePerRequest(recorder_.spans(), requests_);
  layers["loadgen.late_ms"] = self["loadgen.late"];
  layers["service.queue_wait_ms"] =
      (traced_light.queue_wait_ms + traced_heavy.queue_wait_ms) / requests;
  service::ServiceMetrics metrics = service_->metrics();
  layers["service.peak_pending"] =
      static_cast<double>(metrics.admission.peak_pending_requests);
  layers["service.shed"] = static_cast<double>(
      metrics.admission.shed_requests + metrics.admission.shed_queries +
      metrics.admission.shed_memory);
  layers["net.call_ms"] = wire.call_ms / requests;
  layers["net.wire_bytes"] = wire.bytes / requests;
  layers["bench.trace_overhead_pct"] =
      100.0 * (MeanOfQuantiles(Nations(traced_light), 0.25) / report.p25_ms -
               1.0);

  // The pipeline layers of the same request mix, re-run stage by stage on
  // the local database after the load.
  SpanRecorder staged_recorder;
  LayerCounters counters;
  Rng pick(SubSeed(config.seed, "traced.staged"));
  const size_t staged = 2 * paths_.size();
  for (size_t i = 0; i < staged; ++i) {
    size_t p = i % 2 == 0 ? pick.Below(nation_paths_)
                          : nation_paths_ +
                                pick.Below(paths_.size() - nation_paths_);
    std::string xml;
    double begin = staged_recorder.Now();
    int root = staged_recorder.Add("request", begin, begin, -1, i + 1);
    bool ok = RunStaged(*db_, publisher_->estimator(), paths_[p].rxl,
                        Options(), &staged_recorder, root, i + 1, &counters,
                        &xml);
    staged_recorder.Close(root, staged_recorder.Now());
    ++report.attempted;
    if (!ok || Digest(xml) != paths_[p].digest) {
      report.Fail(paths_[p].path + ": staged pipeline differs");
    }
  }
  AddStagedLayers(staged_recorder.spans(), staged, counters, &layers);
  report.spans = recorder_.spans();
  std::vector<SpanRecord> staged_spans = staged_recorder.spans();
  report.spans.insert(report.spans.end(), staged_spans.begin(),
                      staged_spans.end());
  return report;
}

}  // namespace

std::unique_ptr<Workload> MakeServe() { return std::make_unique<Serve>(); }

}  // namespace perfbench
