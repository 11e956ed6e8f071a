// Harness arithmetic shared by every workload: seeded input generation,
// latency statistics, bench-side spans with self-time accounting, output
// digests, and the final JSON report. Nothing here touches the system under
// test, so perfbench_selftest can pin all of it exactly.
#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace perfbench {

// --- Seeded choices --------------------------------------------------------

/// splitmix64: the benchmark's own generator, so workload inputs depend only
/// on --seed and never on the generator the system under test ships.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t Next();
  /// Uniform in [0, n); n must be positive.
  size_t Below(size_t n) { return static_cast<size_t>(Next() % n); }
  /// Uniform in [0, 1).
  double Unit() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }
  /// Exponential with the given rate (mean 1/rate).
  double Exponential(double rate);
  template <typename T>
  void Shuffle(std::vector<T>* v) {
    for (size_t i = v->size(); i > 1; --i) std::swap((*v)[i - 1], (*v)[Below(i)]);
  }

 private:
  uint64_t state_;
};

/// Derives an independent stream seed for one purpose of one run.
uint64_t SubSeed(uint64_t seed, std::string_view purpose);

/// Poisson arrival offsets in seconds over [0, seconds) at `rate` per second.
std::vector<double> PoissonSchedule(uint64_t seed, double rate,
                                    double seconds);

/// `count` draws from [0, n), each uniform and independent.
std::vector<size_t> Choices(uint64_t seed, size_t n, size_t count);

// --- Statistics ------------------------------------------------------------

/// Linearly interpolated quantile, q in [0, 1]; 0 for no values.
double Quantile(std::vector<double> values, double q);
inline double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}

/// Mean over the non-empty classes of each class's `q` quantile. Request
/// classes whose latencies differ several-fold would put a pooled quantile
/// in the gap between their modes, where it jumps with the mix.
double MeanOfQuantiles(const std::vector<std::vector<double>>& classes,
                       double q);

/// The tail rule: the highest percentile that still has at least
/// `min_beyond` samples above it, i.e. the (min_beyond+1)-th largest sample.
/// `percentile` is the share of samples at or below it. With too few
/// samples the maximum is reported and `beyond` says how many lie above.
struct Tail {
  double value = 0;
  double percentile = 0;
  size_t samples = 0;
  size_t beyond = 0;
};
Tail TailOf(std::vector<double> values, size_t min_beyond = 10);

// --- Spans -----------------------------------------------------------------

using Clock = std::chrono::steady_clock;

/// Milliseconds between two instants.
double MsBetween(Clock::time_point from, Clock::time_point to);

struct SpanRecord {
  std::string name;
  double start_ms = 0;  // since the recorder's origin
  double end_ms = 0;
  int parent = -1;      // index into the recorder's spans, -1 = root
  uint64_t request = 0;
};

/// Keeps spans in memory (thread-safe) until the run ends.
class SpanRecorder {
 public:
  SpanRecorder() : origin_(Clock::now()) {}

  double Now() const { return MsBetween(origin_, Clock::now()); }
  double At(Clock::time_point t) const { return MsBetween(origin_, t); }

  /// Records a finished span and returns its index (for children).
  int Add(std::string name, double start_ms, double end_ms, int parent,
          uint64_t request);
  /// Re-times a span that was opened before its end was known.
  void Close(int index, double end_ms);

  std::vector<SpanRecord> spans() const;

 private:
  Clock::time_point origin_;
  mutable std::mutex mu_;
  std::vector<SpanRecord> spans_;
};

/// Self time of every span: its duration minus the part of its interval
/// that the union of its children's intervals covers (children may overlap
/// each other and are clipped to the parent).
std::vector<double> SelfTimes(const std::vector<SpanRecord>& spans);

/// Total self time per span name, divided by `requests`.
std::map<std::string, double> SelfTimePerRequest(
    const std::vector<SpanRecord>& spans, size_t requests);

/// One JSON object per span (name, start, end, parent, request, self time).
bool WriteSpans(const std::vector<SpanRecord>& spans, const std::string& path);

/// Wall time of a fixed, allocation- and memory-heavy reference task that
/// shares no code with the system under test: its changes across runs are
/// the machine's, not the program's.
double ReferenceTaskMs();

/// Tracks the machine's speed through a run by timing the reference task
/// from the caller's thread, at most once per interval, interleaved with
/// the requests. On a shared virtual machine memory-heavy work runs up to
/// 1.5x slower for stretches of seconds to minutes; dividing latencies by
/// Factor() removes most of that from the gated figures.
class MachineGauge {
 public:
  /// The reference task's lower quartile on a quiet 4-core machine.
  static constexpr double kNominalMs = 30;
  /// At most one sample a second: ~3% of a closed loop's time.
  static constexpr double kIntervalMs = 1000;

  /// Runs the reference task if kIntervalMs passed since the last one.
  void MaybeSample();
  /// Lower quartile of the samples over kNominalMs (1 without samples).
  double Factor() const;
  double ReferenceMs() const { return Quantile(samples_, 0.25); }

 private:
  Clock::time_point last_{};
  std::vector<double> samples_;
};

// --- Outputs ---------------------------------------------------------------

/// FNV-1a 64 of a document, the identity the output checks compare.
uint64_t Digest(std::string_view bytes);

/// Peak resident set size of this process in MiB (VmHWM).
double PeakRssMb();

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// Appends `name` = the tail value, plus which percentile the tail rule
/// picked and from how many samples.
void AddTail(const std::string& name, const Tail& tail,
             std::vector<Metric>* detail);

/// The benchmark's last stdout line.
std::string ResultJson(bool correct, uint64_t attempted, uint64_t failed,
                       const std::vector<Metric>& metrics);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
