// E10 (ablation, paper Sec. 4 last paragraph): "The outer-join plan
// actually produces fewer, but wider, tuples than the outer-union plan;
// the additional width may induce anomalous caching behavior in JDBC.
// This suggests that we could further improve the total running time of
// the best plans if we rewrite them from outer joins to outer unions."
//
// This bench quantifies that trade-off on our substrate: for the unified
// and the best 5-stream plans of Query 1, both SQL shapes, with and
// without reduction, it reports tuple counts, average width, wire bytes,
// and times.
#include <cstdio>

#include "bench/bench_util.h"
#include "silkroute/publisher.h"
#include "silkroute/queries.h"

using namespace silkroute;
using namespace silkroute::core;

int main() {
  const double scale = bench::EnvScale("SILK_SCALE_A", 0.025);
  auto db = bench::MakeDatabase(scale);
  std::printf("%s", bench::Header(
                        "E10 — outer-join vs outer-union plan shapes "
                        "(Sec. 3.4 / Sec. 4)"));
  std::printf("database bytes: %zu (scale %.3f)\n\n", db->TotalByteSize(),
              scale);

  Publisher publisher(db.get());
  auto tree = publisher.BuildViewTree(Query1Rxl());
  if (!tree.ok()) return 1;

  struct Case {
    const char* plan;
    uint64_t mask;
  };
  const Case plans[] = {
      {"unified", 0x1FF},
      {"5-stream", 0x1E8},
  };

  bench::BenchReport report("styles");
  std::printf("%-10s %-12s %-8s %9s %9s %11s %10s %10s\n", "plan", "style",
              "reduce", "tuples", "avg B/t", "wire bytes", "query ms",
              "total ms");
  for (const Case& c : plans) {
    for (auto style : {SqlGenStyle::kOuterJoin, SqlGenStyle::kOuterUnion}) {
      for (bool reduce : {false, true}) {
        PublishOptions opt;
        opt.style = style;
        opt.reduce = reduce;
        PlanMetrics m = bench::MeasurePlan(publisher, *tree, c.mask, opt);
        std::printf("%-10s %-12s %-8s %9zu %9.1f %11zu %10.1f %10.1f\n",
                    c.plan, SqlGenStyleToString(style),
                    reduce ? "yes" : "no", m.rows,
                    m.rows ? static_cast<double>(m.wire_bytes) /
                                 static_cast<double>(m.rows)
                           : 0.0,
                    m.wire_bytes, m.query_ms, m.total_ms());
        report.AddPlan(std::string(c.plan) + "/" +
                           SqlGenStyleToString(style) +
                           (reduce ? "/reduced" : "/nonreduced"),
                       m);
      }
    }
  }
  std::printf(
      "\nexpected shape: outer-join rows are fewer but wider than\n"
      "outer-union rows for the same plan; reduction shrinks both.\n");
  return 0;
}
