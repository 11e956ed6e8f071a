// perfbench: SilkRoute's benchmark, one workload per invocation.
//
//   perfbench --workload publish|republish|serve --seed N --seconds S
//             --trace 0|1 [--spans FILE]
//
// Sets the workload up kSetups times (the median is setup_s), runs it for S
// seconds of measurement, prints the workload's own named figures on
// stderr, and prints the result JSON as the last line of stdout: the
// end-to-end metrics untraced (times scaled to the reference machine speed
// a MachineGauge measures during the run), the per-layer metrics traced.
// Exits 1 if any output was wrong.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "workloads.h"

namespace perfbench {
namespace {

constexpr int kSetups = 11;

/// Per-layer metrics of a traced run, with units. A layer a workload
/// bypasses reports 0.
const Metric kLayers[] = {
    {"rxl.parse_ms", 0, "ms"},
    {"silkroute.view_tree_ms", 0, "ms"},
    {"silkroute.greedy_ms", 0, "ms"},
    {"silkroute.oracle_requests", 0, "count"},
    {"silkroute.sqlgen_ms", 0, "ms"},
    {"sql.parse_ms", 0, "ms"},
    {"engine.execute_ms", 0, "ms"},
    {"engine.rows_scanned", 0, "count"},
    {"engine.rows_joined", 0, "count"},
    {"engine.rows_sorted", 0, "count"},
    {"engine.keys_encoded", 0, "count"},
    {"engine.bind_ms", 0, "ms"},
    {"engine.wire_bytes", 0, "bytes"},
    {"engine.decode_ms", 0, "ms"},
    {"silkroute.merge_emit_ms", 0, "ms"},
    {"silkroute.instances_emitted", 0, "count"},
    {"xml.bytes", 0, "bytes"},
    {"xml.flushes", 0, "count"},
    {"engine.cache_hit_ratio", 0, "ratio"},
    {"engine.cache_splices", 0, "count"},
    {"engine.cache_resident_bytes", 0, "bytes"},
    {"engine.cache_evictions", 0, "count"},
    {"relational.insert_us", 0, "us"},
    {"relational.table_bytes", 0, "bytes"},
    {"service.queue_wait_ms", 0, "ms"},
    {"service.peak_pending", 0, "count"},
    {"service.shed", 0, "count"},
    {"net.call_ms", 0, "ms"},
    {"net.wire_bytes", 0, "bytes"},
    {"loadgen.late_ms", 0, "ms"},
    {"bench.trace_overhead_pct", 0, "%"},
    {"bench.reference_ms", 0, "ms"},
};

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload publish|republish|serve "
               "--seed N --seconds S --trace 0|1 [--spans FILE]\n");
  return 2;
}

int Main(int argc, char** argv) {
  std::string workload, spans_path;
  RunConfig config;
  for (int i = 1; i + 1 < argc; i += 2) {
    const char* flag = argv[i];
    const char* value = argv[i + 1];
    if (std::strcmp(flag, "--workload") == 0) {
      workload = value;
    } else if (std::strcmp(flag, "--seed") == 0) {
      config.seed = std::strtoull(value, nullptr, 10);
    } else if (std::strcmp(flag, "--seconds") == 0) {
      config.seconds = std::atof(value);
    } else if (std::strcmp(flag, "--trace") == 0) {
      config.trace = std::strcmp(value, "1") == 0;
    } else if (std::strcmp(flag, "--spans") == 0) {
      spans_path = value;
    } else {
      return Usage();
    }
  }
  if (argc % 2 != 1 || config.seconds <= 0) return Usage();
  std::unique_ptr<Workload> (*make)() = workload == "publish"     ? MakePublish
                                        : workload == "republish" ? MakeRepublish
                                        : workload == "serve"     ? MakeServe
                                                                  : nullptr;
  if (make == nullptr) return Usage();

  std::vector<double> setup_s;
  std::unique_ptr<Workload> w;
  for (int i = 0; i < kSetups; ++i) {
    w.reset();
    w = make();
    Clock::time_point start = Clock::now();
    w->Setup();
    setup_s.push_back(MsBetween(start, Clock::now()) / 1000.0);
  }
  MachineGauge gauge;
  config.gauge = &gauge;
  Report report = w->Run(config);
  w.reset();

  // Times are reported at the reference machine speed; the raw figures
  // and the gauge go to stderr.
  double factor = gauge.Factor();
  report.detail.push_back({"raw_setup_s", Median(setup_s), "s"});
  report.detail.push_back({"raw_p25_ms", report.p25_ms, "ms"});
  report.detail.push_back({"raw_aux_p25_ms", report.aux_p25_ms, "ms"});
  report.detail.push_back({"reference_ms", gauge.ReferenceMs(), "ms"});
  report.layers["bench.reference_ms"] = gauge.ReferenceMs();
  std::vector<Metric> metrics;
  if (config.trace) {
    for (Metric m : kLayers) {
      m.value = report.layers[m.name];
      metrics.push_back(m);
    }
  } else {
    metrics = {{"setup_s", Median(setup_s) / factor, "s"},
               {"peak_rss_mb", PeakRssMb(), "MB"},
               {"p25_ms", report.p25_ms / factor, "ms"},
               {"aux_p25_ms", report.aux_p25_ms / factor, "ms"}};
  }
  report.detail.push_back(
      {"failed_frac",
       report.attempted > 0 ? static_cast<double>(report.failed) /
                                  static_cast<double>(report.attempted)
                            : 1.0,
       "ratio"});
  for (const Metric& m : report.detail) {
    std::fprintf(stderr, "%-28s %14.4f %s\n", m.name.c_str(), m.value,
                 m.unit.c_str());
  }
  for (const Metric& m : metrics) {
    std::fprintf(stderr, "%-28s %14.4f %s\n", m.name.c_str(), m.value,
                 m.unit.c_str());
  }
  if (!spans_path.empty() && !WriteSpans(report.spans, spans_path)) {
    std::fprintf(stderr, "cannot write spans to %s\n", spans_path.c_str());
  }
  bool correct = report.failed == 0 && report.attempted > 0;
  std::printf("%s\n", ResultJson(correct, report.attempted, report.failed,
                                 metrics)
                          .c_str());
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
