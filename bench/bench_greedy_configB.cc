// E4 — Fig. 15: Configuration B (large database, exhaustive search
// infeasible in the paper's setting): run the plan family produced by the
// greedy algorithm (with view-tree reduction) for Queries 1 and 2 and
// compare against the unified (outer-union, and reduced outer-join) and
// fully partitioned plans.
//
// Paper (100 MB): outer-union ~4.7-5x slower than the best generated plan
// on query time, fully partitioned ~2.4-2.6x slower; on total time
// outer-union ~4.6x and fully partitioned ~3.1x slower.
#include <algorithm>
#include <cstdio>
#include <vector>

#include "bench/bench_util.h"
#include "silkroute/greedy.h"
#include "silkroute/partition.h"
#include "silkroute/queries.h"

using namespace silkroute;
using namespace silkroute::core;

namespace {

int RunQuery(Publisher& publisher, std::string_view rxl, const char* name,
             bench::BenchReport* report) {
  auto tree = publisher.BuildViewTree(rxl);
  if (!tree.ok()) {
    std::fprintf(stderr, "%s\n", tree.status().ToString().c_str());
    return 1;
  }
  GreedyParams params;  // calibrated defaults; reduction on
  auto plan = GeneratePlanGreedy(*tree, publisher.estimator(), params);
  if (!plan.ok()) {
    std::fprintf(stderr, "%s\n", plan.status().ToString().c_str());
    return 1;
  }
  std::printf("\n--- %s ---\n", name);
  std::printf("greedy %s\n", plan->ToString(*tree).c_str());
  auto masks = plan->PlanMasks();
  std::printf("generated plans: %zu\n", masks.size());

  PublishOptions opt;
  opt.reduce = true;
  std::printf("%10s %8s %12s %12s\n", "mask", "streams", "query ms",
              "total ms");
  double best_query = 0, best_total = 0;
  for (uint64_t mask : masks) {
    PlanMetrics m = bench::MeasurePlan(publisher, *tree, mask, opt);
    std::printf("%10llu %8zu %12.1f %12.1f\n",
                static_cast<unsigned long long>(mask), m.num_streams,
                m.query_ms, m.total_ms());
    report->AddPlan(std::string(name) + "/mask_" + std::to_string(mask), m);
    if (best_query == 0 || m.query_ms < best_query) best_query = m.query_ms;
    if (best_total == 0 || m.total_ms() < best_total) best_total = m.total_ms();
  }

  PublishOptions ou;
  ou.style = SqlGenStyle::kOuterUnion;
  ou.reduce = false;
  const uint64_t unified = (uint64_t{1} << tree->num_edges()) - 1;
  PlanMetrics outer_union = bench::MeasurePlan(publisher, *tree, unified, ou);
  PlanMetrics outer_join = bench::MeasurePlan(publisher, *tree, unified, opt);
  PlanMetrics fully_part = bench::MeasurePlan(publisher, *tree, 0, opt);

  std::printf("baselines:\n");
  std::printf("  unified outer-union : %10.1f ms query, %10.1f ms total\n",
              outer_union.query_ms, outer_union.total_ms());
  std::printf("  unified outer-join  : %10.1f ms query, %10.1f ms total\n",
              outer_join.query_ms, outer_join.total_ms());
  std::printf("  fully partitioned   : %10.1f ms query, %10.1f ms total\n",
              fully_part.query_ms, fully_part.total_ms());
  std::printf("ratios vs best generated plan "
              "(paper: OU ~4.7-5x / ~4.6x, FP ~2.4-2.6x / ~3.1x):\n");
  std::printf("  outer-union / best query : %5.2fx\n",
              outer_union.query_ms / best_query);
  std::printf("  outer-union / best total : %5.2fx\n",
              outer_union.total_ms() / best_total);
  std::printf("  outer-join / best total  : %5.2fx\n",
              outer_join.total_ms() / best_total);
  std::printf("  fully-part / best query  : %5.2fx\n",
              fully_part.query_ms / best_query);
  std::printf("  fully-part / best total  : %5.2fx\n",
              fully_part.total_ms() / best_total);
  report->AddPlan(std::string(name) + "/unified_outer_union", outer_union);
  report->AddPlan(std::string(name) + "/unified_outer_join", outer_join);
  report->AddPlan(std::string(name) + "/fully_partitioned", fully_part);
  report->Add(std::string(name) + "/summary",
              {{"generated_plans", static_cast<double>(masks.size())},
               {"best_query_ms", best_query},
               {"best_total_ms", best_total},
               {"outer_union_vs_best_query", outer_union.query_ms / best_query},
               {"fully_part_vs_best_query", fully_part.query_ms / best_query}});
  return 0;
}

}  // namespace

int main() {
  const double scale = silkroute::bench::EnvScale("SILK_SCALE_B", 0.25);
  auto db = silkroute::bench::MakeDatabase(scale);
  std::printf("%s", silkroute::bench::Header(
                        "E4 / Fig. 15 — Config B, greedy plan family"));
  std::printf("database bytes: %zu (scale %.3f)\n", db->TotalByteSize(),
              scale);
  Publisher publisher(db.get());
  silkroute::bench::BenchReport report("greedy_configB");
  int rc = RunQuery(publisher, Query1Rxl(), "Query 1", &report);
  if (rc != 0) return rc;
  return RunQuery(publisher, Query2Rxl(), "Query 2", &report);
}
