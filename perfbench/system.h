// The benchmark's view of SilkRoute: the Config A database, the plan
// shapes, the stage-by-stage pipeline of the traced publish, and an
// executor decorator that times calls into the engine or the wire. All of
// it drives the system through its public headers only.
#ifndef PERFBENCH_SYSTEM_H_
#define PERFBENCH_SYSTEM_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "engine/estimator.h"
#include "engine/executor.h"
#include "harness.h"
#include "relational/database.h"
#include "silkroute/publisher.h"

namespace perfbench {

/// TPC-H Config A: the paper's ~1 MB database.
inline constexpr double kScale = 0.025;

/// The three plan shapes of the paper's experiment.
enum Shape { kUnified = 0, kGreedy = 1, kPartitioned = 2 };
inline constexpr int kNumShapes = 3;
const char* ShapeName(int shape);
silkroute::core::PlanStrategy ShapeStrategy(int shape);

/// Generates the Config A database (fixed generator seed: the data is the
/// paper's, the benchmark seed drives only the workload).
std::unique_ptr<silkroute::Database> MakeConfigA();

/// Rows of `sql` through a fresh executor; exits on error (set-up only).
std::vector<silkroute::Tuple> QueryRows(const silkroute::Database& db,
                                        const std::string& sql);

/// Per-request counters the traced runs sum from what the API returns.
struct LayerCounters {
  double oracle_requests = 0;
  double rows_scanned = 0;
  double rows_joined = 0;
  double rows_sorted = 0;
  double keys_encoded = 0;
  double wire_bytes = 0;
  double instances_emitted = 0;
  double xml_bytes = 0;
  double xml_flushes = 0;

  void AddExec(const silkroute::engine::ExecStats& s);
};

/// One publish re-run stage by stage with a span around each public call:
/// ParseRxl, ViewTree::Build, GeneratePlanGreedy + MakePermissible,
/// Partition::FromMask + SqlGenerator::GeneratePlan, then per component
/// sql::ParseQuery, QueryExecutor::Execute and the TupleStream constructor
/// (bind), a decode-only drain of every stream, and Tagger::Run. Writes the
/// document to `xml`; it must be byte-identical to Publisher::Publish.
/// Span names are the layer metric names ("rxl.parse", "engine.execute",
/// "engine.decode", "silkroute.tag", ...).
bool RunStaged(const silkroute::Database& db,
               silkroute::engine::CostOracle* oracle, std::string_view rxl,
               const silkroute::core::PublishOptions& options,
               SpanRecorder* recorder, int parent, uint64_t request,
               LayerCounters* counters, std::string* xml);

/// Sets the pipeline layer metrics in `layers` from staged-run spans and
/// counters, as means per request. `silkroute.merge_emit_ms` is the tag
/// span minus the decode-only drain of the same streams.
void AddStagedLayers(const std::vector<SpanRecord>& spans, size_t requests,
                     const LayerCounters& counters,
                     std::map<std::string, double>* layers);

/// SqlExecutor decorator: forwards every call and, while recording, times
/// it and counts the bytes of the returned relation. Over a
/// DatabaseExecutor it also sums the engine's ExecStats of each call (valid
/// for one calling thread, the republish loop's case).
class TimedExecutor : public silkroute::engine::SqlExecutor {
 public:
  explicit TimedExecutor(silkroute::engine::SqlExecutor* inner,
                         silkroute::engine::DatabaseExecutor* stats_source =
                             nullptr)
      : inner_(inner), stats_source_(stats_source) {}

  void set_recording(bool on) { recording_ = on; }

  silkroute::Result<silkroute::engine::Relation> ExecuteSql(
      std::string_view sql) override;
  void set_timeout_ms(double timeout_ms) override {
    inner_->set_timeout_ms(timeout_ms);
  }
  silkroute::Result<silkroute::engine::Relation> ExecuteSqlWithDeadline(
      std::string_view sql, double timeout_ms) override;
  silkroute::Result<silkroute::engine::Relation> ExecuteSqlCancellable(
      std::string_view sql, double timeout_ms,
      silkroute::CancelToken* cancel) override;
  bool Healthy() const override { return inner_->Healthy(); }
  silkroute::Result<std::vector<std::pair<std::string, uint64_t>>>
  FetchTableVersions(const std::vector<std::string>& tables) override {
    return inner_->FetchTableVersions(tables);
  }

  struct Totals {
    size_t calls = 0;
    double call_ms = 0;
    double bytes = 0;
    LayerCounters exec;
  };
  Totals TakeTotals();

 private:
  template <typename F>
  silkroute::Result<silkroute::engine::Relation> Timed(F&& call);

  silkroute::engine::SqlExecutor* inner_;
  silkroute::engine::DatabaseExecutor* stats_source_;
  std::atomic<bool> recording_{false};
  std::mutex mu_;
  Totals totals_;
};

}  // namespace perfbench

#endif  // PERFBENCH_SYSTEM_H_
