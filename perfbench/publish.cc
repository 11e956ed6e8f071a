// `publish`: the paper's experiment. One client in a closed loop
// materializes the whole Query 1 view, rotating in seeded rounds over the
// unified, greedy and fully partitioned plans. Every document must be
// byte-identical to the first one, whatever the plan.
#include <sstream>

#include "silkroute/queries.h"
#include "workloads.h"

namespace perfbench {
namespace {

namespace core = silkroute::core;

constexpr double kWarmupSeconds = 2;

/// Publish latencies by plan shape.
using ShapeSamples = std::vector<std::vector<double>>;

class Publish : public Workload {
 public:
  void Setup() override {
    publisher_.reset();
    db_ = MakeConfigA();
    publisher_ = std::make_unique<core::Publisher>(db_.get());
  }

  Report Run(const RunConfig& config) override;

 private:
  static core::PublishOptions Options(int shape) {
    core::PublishOptions options;
    options.strategy = ShapeStrategy(shape);
    options.document_element = "suppliers";
    return options;
  }

  /// One timed Publisher::Publish; checks its document against the
  /// reference outside the timed region.
  void PublishOnce(int shape, double* ms, Report* report);
  /// One staged, traced publish under a root span.
  void StagedOnce(int shape, double* ms, Report* report);
  /// Rounds of all shapes until `seconds` have passed.
  template <typename F>
  void Loop(Rng* rng, double seconds, MachineGauge* gauge, F&& one,
            ShapeSamples* samples);

  std::unique_ptr<silkroute::Database> db_;
  std::unique_ptr<core::Publisher> publisher_;
  const std::string rxl_{core::Query1Rxl()};
  uint64_t reference_ = 0;
  SpanRecorder recorder_;
  LayerCounters counters_;
  size_t staged_requests_ = 0;
};

void Publish::PublishOnce(int shape, double* ms, Report* report) {
  std::ostringstream out;
  Clock::time_point start = Clock::now();
  auto result = publisher_->Publish(rxl_, Options(shape), &out);
  *ms = MsBetween(start, Clock::now());
  ++report->attempted;
  uint64_t digest = Digest(out.view());
  if (reference_ == 0) reference_ = digest;
  if (!result.ok() || digest != reference_) {
    report->Fail(std::string(ShapeName(shape)) +
                 " publish failed or differs from the first document");
  }
}

void Publish::StagedOnce(int shape, double* ms, Report* report) {
  uint64_t request = ++staged_requests_;
  std::string xml;
  double start = recorder_.Now();
  int root = recorder_.Add("request", start, start, -1, request);
  bool ok = RunStaged(*db_, publisher_->estimator(), rxl_, Options(shape),
                      &recorder_, root, request, &counters_, &xml);
  double end = recorder_.Now();
  recorder_.Close(root, end);
  *ms = end - start;
  ++report->attempted;
  if (!ok || Digest(xml) != reference_) {
    report->Fail(std::string("staged ") + ShapeName(shape) +
                 " publish differs from Publisher::Publish");
  }
}

template <typename F>
void Publish::Loop(Rng* rng, double seconds, MachineGauge* gauge, F&& one,
                   ShapeSamples* samples) {
  Clock::time_point start = Clock::now();
  std::vector<int> round = {kUnified, kGreedy, kPartitioned};
  do {
    rng->Shuffle(&round);
    for (int shape : round) {
      double ms = 0;
      one(shape, &ms);
      (*samples)[shape].push_back(ms);
    }
    gauge->MaybeSample();
  } while (MsBetween(start, Clock::now()) < seconds * 1000.0);
}

Report Publish::Run(const RunConfig& config) {
  Report report;
  Rng rng(SubSeed(config.seed, "publish.shapes"));
  auto plain = [&](int shape, double* ms) { PublishOnce(shape, ms, &report); };

  // Warm-up, untimed: the first document is the reference, and two
  // seconds of rounds let the allocator reach its steady footprint.
  ShapeSamples warm(kNumShapes);
  Loop(&rng, kWarmupSeconds, config.gauge, plain, &warm);

  ShapeSamples samples(kNumShapes);
  Loop(&rng, config.trace ? config.seconds / 2 : config.seconds, config.gauge,
       plain, &samples);
  std::vector<double> pooled;
  for (const auto& s : samples) pooled.insert(pooled.end(), s.begin(), s.end());
  Tail tail = TailOf(pooled);
  report.p25_ms = MeanOfQuantiles(samples, 0.25);
  report.aux_p25_ms = Quantile(samples[kGreedy], 0.25);
  for (int shape = 0; shape < kNumShapes; ++shape) {
    report.detail.push_back({std::string("publish_") + ShapeName(shape) +
                                 "_p50_ms",
                             Median(samples[shape]), "ms"});
  }
  AddTail("publish_tail_ms", tail, &report.detail);

  report.layers["relational.table_bytes"] =
      static_cast<double>(db_->TotalByteSize());
  if (!config.trace) return report;

  ShapeSamples traced(kNumShapes);
  Loop(&rng, config.seconds / 2, config.gauge,
       [&](int shape, double* ms) { StagedOnce(shape, ms, &report); },
       &traced);
  AddStagedLayers(recorder_.spans(), staged_requests_, counters_,
                  &report.layers);
  report.layers["bench.trace_overhead_pct"] =
      100.0 * (MeanOfQuantiles(traced, 0.25) / report.p25_ms - 1.0);
  report.spans = recorder_.spans();
  return report;
}

}  // namespace

std::unique_ptr<Workload> MakePublish() { return std::make_unique<Publish>(); }

}  // namespace perfbench
