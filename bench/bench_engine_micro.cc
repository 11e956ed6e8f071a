// E8 — google-benchmark micro suite for the relational substrate: the
// operator throughputs that the cost model abstracts (scan+filter, hash
// join on integer and string keys, disjunctive outer join, sort (out of
// order, and Query 1's order component arriving in order), wire
// serialization, end-to-end plan execution, the engine layer of one
// Query 1 plan alone and with its bind), plus the client-side merge/tag
// layer on bound streams (Query 1's greedy plan, and its fully
// partitioned plan at Config A) and the two planning paths of a Sec. 7
// fragment (an uncached Prepare, a publish whose prepared plan is stored).
// Context for interpreting the experiment tables.
#include <benchmark/benchmark.h>

#include <memory>
#include <sstream>
#include <streambuf>
#include <string>
#include <string_view>
#include <vector>

#include "bench/bench_util.h"
#include "engine/executor.h"
#include "engine/tuple_stream.h"
#include "rxl/parser.h"
#include "silkroute/greedy.h"
#include "silkroute/partition.h"
#include "silkroute/publisher.h"
#include "silkroute/queries.h"
#include "silkroute/subview.h"
#include "silkroute/tagger.h"

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

// A string join key: the word index hashes the names and verifies every
// candidate against its bytes.
void BM_HashJoinStringKey(benchmark::State& state) {
  engine::QueryExecutor exec(SharedDb());
  for (auto _ : state) {
    auto r = exec.ExecuteSql(
        "select p1.partkey, p2.partkey from Part p1, Part p2 "
        "where p1.name = p2.name");
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_HashJoinStringKey);

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

void BM_OrderByInOrder(benchmark::State& state) {
  // Query 1's order component in the fully partitioned plan: a five-way
  // join whose seven non-literal ORDER BY keys arrive in key order, so
  // the sort is one pass over the keys' words. Handed over as Rows.
  static Publisher* publisher = new Publisher(SharedDb());
  static ViewTree* tree =
      new ViewTree(publisher->BuildViewTree(Query1Rxl()).value());
  SqlGenerator gen(tree, SqlGenStyle::kOuterJoin, /*reduce=*/true);
  const std::vector<StreamSpec> specs =
      gen.GeneratePlan(Partition::FullyPartitioned(*tree)).value();
  std::string sql;
  for (const StreamSpec& spec : specs) {
    if (spec.sql.find("Orders o") != std::string::npos) {
      sql = spec.sql;
      break;
    }
  }
  for (auto _ : state) {
    engine::QueryExecutor exec(SharedDb());
    auto rows = exec.ExecuteRows(sql, 0, nullptr);
    if (!rows.ok()) {
      state.SkipWithError(rows.status().ToString().c_str());
      break;
    }
    benchmark::DoNotOptimize(rows);
  }
}
BENCHMARK(BM_OrderByInOrder);

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

void BM_PublishOptimalPlan(benchmark::State& state) {
  static Publisher* publisher = new Publisher(SharedDb());
  static ViewTree* tree =
      new ViewTree(publisher->BuildViewTree(Query1Rxl()).value());
  PublishOptions opt;
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
  for (auto _ : state) {
    std::ostringstream sink;
    auto m = publisher->ExecutePlan(*tree, 0x1FF, opt, &sink);
    benchmark::DoNotOptimize(m);
  }
}
BENCHMARK(BM_PublishUnifiedPlan);

void BM_ExecuteQuery1Unified(benchmark::State& state) {
  // The engine layer alone: Query 1's unified-plan SQL — one query, two
  // outer joins over derived tables, a 16-key ORDER BY — executed into a
  // Relation each iteration, with no bind or tag.
  static Publisher* publisher = new Publisher(SharedDb());
  static ViewTree* tree =
      new ViewTree(publisher->BuildViewTree(Query1Rxl()).value());
  SqlGenerator gen(tree, SqlGenStyle::kOuterJoin, /*reduce=*/true);
  const std::string sql =
      gen.GeneratePlan(Partition::Unified(*tree)).value().at(0).sql;
  for (auto _ : state) {
    engine::QueryExecutor exec(SharedDb());
    auto result = exec.ExecuteSql(sql);
    if (!result.ok()) {
      state.SkipWithError(result.status().ToString().c_str());
      break;
    }
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_ExecuteQuery1Unified);

void BM_ExecuteAndBindQuery1Unified(benchmark::State& state) {
  // The local publish path's engine and bind layers: the same SQL handed
  // over as Rows and bound into a TupleStream straight from the batch.
  static Publisher* publisher = new Publisher(SharedDb());
  static ViewTree* tree =
      new ViewTree(publisher->BuildViewTree(Query1Rxl()).value());
  SqlGenerator gen(tree, SqlGenStyle::kOuterJoin, /*reduce=*/true);
  const std::string sql =
      gen.GeneratePlan(Partition::Unified(*tree)).value().at(0).sql;
  for (auto _ : state) {
    engine::QueryExecutor exec(SharedDb());
    auto rows = exec.ExecuteRows(sql, 0, nullptr);
    if (!rows.ok()) {
      state.SkipWithError(rows.status().ToString().c_str());
      break;
    }
    engine::TupleStream stream(std::move(rows).value());
    benchmark::DoNotOptimize(stream.wire_bytes());
  }
}
BENCHMARK(BM_ExecuteAndBindQuery1Unified);

std::string NationSubviewRxl() {
  auto view = rxl::ParseRxl(Query1Rxl()).value();
  return ComposeSubview(view, "/supplier[nation='FRANCE']").value().ToString();
}

void BM_PrepareNationSubview(benchmark::State& state) {
  // The prepared-plan miss path for a Sec. 7 fragment: RXL parse, view
  // tree, genPlan, permissible cut and SQL generation, stored nowhere.
  static Publisher* publisher = new Publisher(SharedDb());
  const std::string rxl = NationSubviewRxl();
  PublishOptions opt;
  for (auto _ : state) {
    auto plan = publisher->Prepare(rxl, opt);
    if (!plan.ok()) {
      state.SkipWithError(plan.status().ToString().c_str());
      break;
    }
    benchmark::DoNotOptimize(plan);
  }
}
BENCHMARK(BM_PrepareNationSubview);

void BM_PublishNationSubview(benchmark::State& state) {
  // The hit path: a warm Publisher::Publish of the same fragment, whose
  // prepared plan the first publish stored.
  static Publisher* publisher = new Publisher(SharedDb());
  const std::string rxl = NationSubviewRxl();
  PublishOptions opt;
  opt.document_element = "fragment";
  std::ostringstream warm;
  if (!publisher->Publish(rxl, opt, &warm).ok()) {
    state.SkipWithError("warm-up publish failed");
    return;
  }
  for (auto _ : state) {
    std::ostringstream sink;
    auto result = publisher->Publish(rxl, opt, &sink);
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_PublishNationSubview);

/// An ostream sink that drops every byte, so BM_TagQuery1 times the tagger
/// and the XML writer, not a growing string.
class DiscardBuf : public std::streambuf {
 protected:
  std::streamsize xsputn(const char*, std::streamsize n) override { return n; }
  int_type overflow(int_type c) override { return c; }
};

/// The tag layer alone: `specs` are executed and bound once, then every
/// iteration rewinds the streams and re-runs the merge into a discarding
/// sink, cut into `ranges` root-instance ranges (0: as the row count and
/// the idle lanes allow). Reports how many ranges the tagger cut.
void TagBoundStreams(benchmark::State& state, Database* db,
                     const ViewTree* tree,
                     const std::vector<StreamSpec>& specs,
                     size_t ranges_wanted = 0) {
  std::vector<std::unique_ptr<engine::TupleStream>> streams;
  for (const StreamSpec& spec : specs) {
    engine::QueryExecutor exec(db);
    streams.push_back(std::make_unique<engine::TupleStream>(
        exec.ExecuteSql(spec.sql).value()));
  }
  DiscardBuf discard;
  std::ostream sink(&discard);
  size_t ranges = 0;
  for (auto _ : state) {
    std::vector<Tagger::StreamInput> inputs;
    for (size_t i = 0; i < specs.size(); ++i) {
      streams[i]->Rewind();
      inputs.push_back({&specs[i], streams[i].get()});
    }
    xml::XmlWriter writer(&sink);
    Tagger::Options options;
    options.document_element = "suppliers";
    options.ranges = ranges_wanted;
    Tagger tagger(tree, &writer, options);
    Status tagged = tagger.Run(std::move(inputs));
    if (tagged.ok()) tagged = writer.Finish();
    if (!tagged.ok()) {
      state.SkipWithError(tagged.ToString().c_str());
      break;
    }
    ranges = tagger.stats().ranges;
    benchmark::DoNotOptimize(writer.bytes_written());
  }
  state.counters["ranges"] = static_cast<double>(ranges);
}

void BM_TagQuery1(benchmark::State& state) {
  // Query 1's greedy-plan streams.
  static Publisher* publisher = new Publisher(SharedDb());
  static ViewTree* tree =
      new ViewTree(publisher->BuildViewTree(Query1Rxl()).value());
  auto greedy = GeneratePlanGreedy(*tree, publisher->estimator(), {});
  auto partition = Partition::FromMask(*tree, greedy->FullMask());
  SqlGenerator gen(tree, SqlGenStyle::kOuterJoin, /*reduce=*/true);
  TagBoundStreams(state, SharedDb(), tree,
                  gen.GeneratePlan(*partition).value());
}
BENCHMARK(BM_TagQuery1);

/// Query 1's fully partitioned streams at Config A (TPC-H scale 0.025):
/// the whole view, large enough to tag in one range per core.
void TagQuery1ConfigA(benchmark::State& state, size_t ranges_wanted) {
  static Database* db = bench::MakeDatabase(0.025).release();
  static ViewTree* tree = new ViewTree(
      Publisher(db).BuildViewTree(Query1Rxl()).value());
  SqlGenerator gen(tree, SqlGenStyle::kOuterJoin, /*reduce=*/false);
  TagBoundStreams(state, db, tree,
                  gen.GeneratePlan(Partition::FullyPartitioned(*tree)).value(),
                  ranges_wanted);
}

void BM_TagQuery1ConfigA(benchmark::State& state) {
  TagQuery1ConfigA(state, /*ranges_wanted=*/0);
}
BENCHMARK(BM_TagQuery1ConfigA);

/// The same streams in one range on the calling thread: the merge's own
/// CPU time, which the threaded row above spreads over its helpers.
void BM_TagQuery1ConfigAOneRange(benchmark::State& state) {
  TagQuery1ConfigA(state, /*ranges_wanted=*/1);
}
BENCHMARK(BM_TagQuery1ConfigAOneRange);

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
