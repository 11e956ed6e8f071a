// E8 — google-benchmark micro suite for the relational substrate: the
// operator throughputs that the cost model abstracts (scan+filter, hash
// join, disjunctive outer join, sort, wire serialization, end-to-end plan
// execution). Context for interpreting the experiment tables.
#include <benchmark/benchmark.h>

#include <sstream>
#include <string_view>

#include "bench/bench_util.h"
#include "engine/executor.h"
#include "engine/tuple_stream.h"
#include "silkroute/partition.h"
#include "silkroute/publisher.h"
#include "silkroute/queries.h"

using namespace silkroute;
using namespace silkroute::core;

namespace {

Database* SharedDb() {
  static Database* db = bench::MakeDatabase(0.01).release();
  return db;
}

void BM_SeqScanFilter(benchmark::State& state) {
  engine::QueryExecutor exec(SharedDb());
  for (auto _ : state) {
    auto r = exec.ExecuteSql(
        "select l.orderkey from LineItem l where l.qty < 10");
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_SeqScanFilter);

void BM_HashJoin(benchmark::State& state) {
  engine::QueryExecutor exec(SharedDb());
  for (auto _ : state) {
    auto r = exec.ExecuteSql(
        "select l.orderkey, o.custkey from LineItem l, Orders o "
        "where l.orderkey = o.orderkey");
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_HashJoin);

void BM_ChainJoin4Way(benchmark::State& state) {
  engine::QueryExecutor exec(SharedDb());
  for (auto _ : state) {
    auto r = exec.ExecuteSql(
        "select s.name, p.name from Supplier s, PartSupp ps, Part p, "
        "LineItem l where s.suppkey = ps.suppkey and ps.partkey = p.partkey "
        "and l.partkey = ps.partkey and l.suppkey = ps.suppkey");
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_ChainJoin4Way);

void BM_DisjunctiveOuterJoin(benchmark::State& state) {
  engine::QueryExecutor exec(SharedDb());
  for (auto _ : state) {
    auto r = exec.ExecuteSql(
        "select s.suppkey, Q.v from Supplier s left outer join "
        "((select 1 as t, n.nationkey as k, n.name as v from Nation n) union "
        " (select 2 as t, ps.suppkey as k, null as v from PartSupp ps)) as Q "
        "on (Q.t = 1 and s.nationkey = Q.k) or (Q.t = 2 and s.suppkey = Q.k)");
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_DisjunctiveOuterJoin);

void BM_FilteredScanNoIndex(benchmark::State& state) {
  engine::QueryExecutor exec(SharedDb());
  for (auto _ : state) {
    auto r = exec.ExecuteSql(
        "select o.custkey from Orders o where o.orderkey = 42");
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_FilteredScanNoIndex);

void BM_IndexProbe(benchmark::State& state) {
  static bool indexed = [] {
    auto table = SharedDb()->GetTable("Orders");
    return table.ok() && (*table)->CreateIndex("orderkey").ok();
  }();
  benchmark::DoNotOptimize(indexed);
  engine::QueryExecutor exec(SharedDb());
  for (auto _ : state) {
    auto r = exec.ExecuteSql(
        "select o.custkey from Orders o where o.orderkey = 42");
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_IndexProbe);

void BM_SortWideRelation(benchmark::State& state) {
  engine::QueryExecutor exec(SharedDb());
  for (auto _ : state) {
    auto r = exec.ExecuteSql(
        "select l.orderkey, l.partkey, l.suppkey, l.qty, l.prc "
        "from LineItem l order by l.partkey, l.orderkey");
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_SortWideRelation);

void BM_WireSerialization(benchmark::State& state) {
  engine::QueryExecutor exec(SharedDb());
  auto rel = exec.ExecuteSql("select * from Orders");
  for (auto _ : state) {
    engine::Relation copy = *rel;
    engine::TupleStream stream(std::move(copy));
    size_t rows = 0;
    while (stream.Next().has_value()) ++rows;
    benchmark::DoNotOptimize(rows);
  }
}
BENCHMARK(BM_WireSerialization);

// --- Shard-count axis (DESIGN.md §16) -------------------------------------
// Arg = columnar shard count. The same scan+filter and hash join as above,
// but over databases built at 1/4/16 shards: results are byte-identical
// (differential_test pins that), so any delta here is pure storage-layout
// cost — shard dispatch overhead vs cache locality of narrower partitions.

Database* ShardedDb(int shard_count) {
  static Database* dbs[3] = {nullptr, nullptr, nullptr};
  const int slot = shard_count == 1 ? 0 : shard_count == 4 ? 1 : 2;
  if (dbs[slot] == nullptr) {
    dbs[slot] =
        bench::MakeDatabase(0.01, static_cast<size_t>(shard_count)).release();
  }
  return dbs[slot];
}

void BM_SeqScanFilterSharded(benchmark::State& state) {
  engine::QueryExecutor exec(ShardedDb(static_cast<int>(state.range(0))));
  for (auto _ : state) {
    auto r = exec.ExecuteSql(
        "select l.orderkey from LineItem l where l.qty < 10");
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_SeqScanFilterSharded)->Arg(1)->Arg(4)->Arg(16);

void BM_HashJoinSharded(benchmark::State& state) {
  engine::QueryExecutor exec(ShardedDb(static_cast<int>(state.range(0))));
  for (auto _ : state) {
    auto r = exec.ExecuteSql(
        "select l.orderkey, o.custkey from LineItem l, Orders o "
        "where l.orderkey = o.orderkey");
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_HashJoinSharded)->Arg(1)->Arg(4)->Arg(16);

void BM_PublishOptimalPlan(benchmark::State& state) {
  static Publisher* publisher = new Publisher(SharedDb());
  static ViewTree* tree =
      new ViewTree(publisher->BuildViewTree(Query1Rxl()).value());
  PublishOptions opt;
  opt.collect_sql = false;
  for (auto _ : state) {
    std::ostringstream sink;
    auto m = publisher->ExecutePlan(*tree, 0x1E8, opt, &sink);
    benchmark::DoNotOptimize(m);
  }
}
BENCHMARK(BM_PublishOptimalPlan);

void BM_PublishUnifiedPlan(benchmark::State& state) {
  static Publisher* publisher = new Publisher(SharedDb());
  static ViewTree* tree =
      new ViewTree(publisher->BuildViewTree(Query1Rxl()).value());
  PublishOptions opt;
  opt.collect_sql = false;
  for (auto _ : state) {
    std::ostringstream sink;
    auto m = publisher->ExecutePlan(*tree, 0x1FF, opt, &sink);
    benchmark::DoNotOptimize(m);
  }
}
BENCHMARK(BM_PublishUnifiedPlan);

}  // namespace

// Like BENCHMARK_MAIN(), but defaults --benchmark_out to the shared
// BENCH_<name>.json convention (google-benchmark's own JSON schema) unless
// the caller passed an output flag. SILK_BENCH_JSON_DIR relocates it, as
// for BenchReport.
int main(int argc, char** argv) {
  bool has_out = false;
  for (int i = 1; i < argc; ++i) {
    if (std::string_view(argv[i]).rfind("--benchmark_out", 0) == 0) {
      has_out = true;
    }
  }
  std::vector<char*> args(argv, argv + argc);
  const char* dir = std::getenv("SILK_BENCH_JSON_DIR");
  std::string out_flag = std::string("--benchmark_out=") +
                         (dir != nullptr && dir[0] != '\0' ? dir : ".") +
                         "/BENCH_engine_micro.json";
  std::string format_flag = "--benchmark_out_format=json";
  if (!has_out) {
    args.push_back(out_flag.data());
    args.push_back(format_flag.data());
  }
  int args_argc = static_cast<int>(args.size());
  benchmark::Initialize(&args_argc, args.data());
  if (benchmark::ReportUnrecognizedArguments(args_argc, args.data())) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
