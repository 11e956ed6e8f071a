// Shared harness for the experiment benchmarks. Each bench binary
// regenerates one table or figure of the paper; see EXPERIMENTS.md for the
// index. Scales are configurable through environment variables:
//   SILK_SCALE_A  -- "Config A" database scale (default 0.025, ~1 MB)
//   SILK_SCALE_B  -- "Config B" database scale (default 0.25, ~10 MB)
//   SILK_REPEAT   -- repetitions per measured plan (default 1)
//
// Faulty-source scenario (FaultySource below):
//   SILK_FAULT_PROB        -- per-query flake probability (default 0.1)
//   SILK_FAULT_SEED        -- fault policy seed (default 1)
//   SILK_FAULT_LATENCY_MS  -- injected latency per query (default 0)
//
// Every bench binary also writes its results as BENCH_<name>.json
// (BenchReport below) into SILK_BENCH_JSON_DIR or the working directory.
#ifndef SILKROUTE_BENCH_BENCH_UTIL_H_
#define SILKROUTE_BENCH_BENCH_UTIL_H_

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "engine/fault_injection.h"
#include "obs/export.h"
#include "relational/database.h"
#include "silkroute/publisher.h"
#include "tpch/generator.h"

namespace silkroute::bench {

inline double EnvScale(const char* name, double fallback) {
  const char* value = std::getenv(name);
  if (value == nullptr || value[0] == '\0') return fallback;
  return std::atof(value);
}

inline int EnvInt(const char* name, int fallback) {
  const char* value = std::getenv(name);
  if (value == nullptr || value[0] == '\0') return fallback;
  return std::atoi(value);
}

/// A deterministic TPC-H database at `scale`; exits on generation failure.
inline std::unique_ptr<Database> MakeDatabase(double scale) {
  auto db = std::make_unique<Database>();
  tpch::TpchConfig config;
  config.scale_factor = scale;
  Status s = tpch::GenerateTpch(config, db.get());
  if (!s.ok()) {
    std::fprintf(stderr, "TPC-H generation failed: %s\n",
                 s.ToString().c_str());
    std::exit(1);
  }
  return db;
}

/// Executes one plan and returns its metrics (XML discarded). Repeats
/// SILK_REPEAT times and keeps the fastest run (steady-state behaviour).
inline core::PlanMetrics MeasurePlan(core::Publisher& publisher,
                                     const core::ViewTree& tree,
                                     uint64_t mask,
                                     const core::PublishOptions& options,
                                     int repeat = 0) {
  if (repeat <= 0) repeat = EnvInt("SILK_REPEAT", 1);
  core::PlanMetrics best;
  for (int i = 0; i < repeat; ++i) {
    std::ostringstream sink;
    auto metrics = publisher.ExecutePlan(tree, mask, options, &sink);
    if (!metrics.ok()) {
      std::fprintf(stderr, "plan %llu failed: %s\n",
                   static_cast<unsigned long long>(mask),
                   metrics.status().ToString().c_str());
      std::exit(1);
    }
    if (i == 0 || metrics->total_ms() < best.total_ms()) {
      best = std::move(metrics).value();
    }
  }
  return best;
}

/// Faulty-source scenario: an unreliable wire to the RDBMS, seeded so runs
/// are reproducible. Point `PublishOptions::executor` at executor() to
/// measure plan families under source flakiness — degradation shifts the
/// unified/partitioned trade-off, since big components are both the fastest
/// healthy plans and the most expensive ones to lose and re-plan.
///
///   bench::FaultySource source(db.get());
///   options.executor = source.executor();
///   auto metrics = MeasurePlan(publisher, tree, mask, options);
///   // metrics.retries / metrics.degraded_components tell the story.
class FaultySource {
 public:
  explicit FaultySource(const Database* db)
      : db_executor_(db), faulty_(&db_executor_, MakePolicy()) {}

  engine::SqlExecutor* executor() { return &faulty_; }
  engine::FaultStats stats() const { return faulty_.stats(); }

 private:
  static engine::FaultPolicy MakePolicy() {
    engine::FaultPolicy policy;
    policy.seed = static_cast<uint64_t>(EnvInt("SILK_FAULT_SEED", 1));
    engine::FaultRule rule;
    rule.flake_probability = EnvScale("SILK_FAULT_PROB", 0.1);
    rule.latency_ms = EnvScale("SILK_FAULT_LATENCY_MS", 0);
    policy.rules.push_back(rule);
    return policy;
  }

  engine::DatabaseExecutor db_executor_;
  engine::FaultInjectingExecutor faulty_;
};

inline const char* Header(const std::string& title) {
  static std::string buffer;
  buffer = "\n=== " + title + " ===\n";
  return buffer.c_str();
}

/// Machine-readable companion to the printed tables: rows of named numeric
/// values, written as BENCH_<bench>.json when the report is destroyed (or
/// Write() is called explicitly). Output lands in SILK_BENCH_JSON_DIR
/// (default: the working directory), so CI and plotting scripts consume
/// results without scraping stdout.
class BenchReport {
 public:
  explicit BenchReport(std::string bench) : bench_(std::move(bench)) {}
  ~BenchReport() { Write(); }
  BenchReport(const BenchReport&) = delete;
  BenchReport& operator=(const BenchReport&) = delete;

  void Add(std::string row,
           std::vector<std::pair<std::string, double>> values) {
    rows_.push_back(Row{std::move(row), std::move(values)});
  }

  /// The standard per-plan row, shared by the experiment benches.
  void AddPlan(std::string row, const core::PlanMetrics& m) {
    Add(std::move(row),
        {{"query_ms", m.query_ms},
         {"bind_ms", m.bind_ms},
         {"tag_ms", m.tag_ms},
         {"total_ms", m.total_ms()},
         {"streams", static_cast<double>(m.num_streams)},
         {"rows", static_cast<double>(m.rows)},
         {"wire_bytes", static_cast<double>(m.wire_bytes)},
         {"attempts", static_cast<double>(m.attempts)},
         {"retries", static_cast<double>(m.retries)},
         {"timed_out", m.timed_out ? 1.0 : 0.0}});
  }

  /// Idempotent; the destructor calls it.
  void Write() {
    if (written_) return;
    written_ = true;
    const char* dir = std::getenv("SILK_BENCH_JSON_DIR");
    std::string path = std::string(dir != nullptr && dir[0] != '\0' ? dir
                                                                    : ".") +
                       "/BENCH_" + bench_ + ".json";
    std::ofstream out(path);
    if (!out.is_open()) {
      std::fprintf(stderr, "bench: cannot write '%s'\n", path.c_str());
      return;
    }
    out << "{\"bench\":\"" << obs::JsonEscape(bench_) << "\",\"rows\":[";
    for (size_t i = 0; i < rows_.size(); ++i) {
      const Row& row = rows_[i];
      out << (i > 0 ? ",\n" : "\n") << " {\"name\":\""
          << obs::JsonEscape(row.name) << "\",\"values\":{";
      for (size_t j = 0; j < row.values.size(); ++j) {
        char number[40];
        std::snprintf(number, sizeof(number), "%.6g", row.values[j].second);
        out << (j > 0 ? "," : "") << "\""
            << obs::JsonEscape(row.values[j].first) << "\":" << number;
      }
      out << "}}";
    }
    out << "\n]}\n";
    std::fprintf(stderr, "bench json: %s (%zu row(s))\n", path.c_str(),
                 rows_.size());
  }

 private:
  struct Row {
    std::string name;
    std::vector<std::pair<std::string, double>> values;
  };

  const std::string bench_;
  std::vector<Row> rows_;
  bool written_ = false;
};

}  // namespace silkroute::bench

#endif  // SILKROUTE_BENCH_BENCH_UTIL_H_
