// The three workloads. Each is set up several times per run (the median
// set-up is `setup_s`), then runs once for the requested seconds and
// reports the end-to-end figures and, in a traced run, the per-layer ones.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "harness.h"
#include "system.h"

namespace perfbench {

struct RunConfig {
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Sampled from each workload's request loop throughout the run.
  MachineGauge* gauge = nullptr;
};

struct Report {
  uint64_t attempted = 0;
  /// Errors, sheds, timeouts and output mismatches.
  uint64_t failed = 0;
  /// 25th-percentile latency of the workload's main requests and of its
  /// second request class, each the mean over request classes (the gated
  /// end-to-end figures: noise on a shared machine only ever adds latency,
  /// so the lower quartile repeats where the median and tail do not).
  double p25_ms = 0;
  double aux_p25_ms = 0;
  /// Per-layer values of a traced run, keyed by metric name.
  std::map<std::string, double> layers;
  /// The workload's own named figures, printed for people (stderr).
  std::vector<Metric> detail;
  /// Bench-side spans of a traced run, written out when the run ends.
  std::vector<SpanRecord> spans;

  /// Counts one failed operation and says why on stderr.
  void Fail(const std::string& why) {
    ++failed;
    std::fprintf(stderr, "FAILED: %s\n", why.c_str());
  }
};

class Workload {
 public:
  virtual ~Workload() = default;
  /// Everything a deployment pays before serving: TPC-H generation,
  /// ANALYZE, and for `serve` the engine server and the service.
  virtual void Setup() = 0;
  virtual Report Run(const RunConfig& config) = 0;
};

std::unique_ptr<Workload> MakePublish();
std::unique_ptr<Workload> MakeRepublish();
std::unique_ptr<Workload> MakeServe();

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
