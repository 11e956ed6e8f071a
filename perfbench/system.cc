#include "system.h"

#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <utility>

#include "engine/tuple_stream.h"
#include "rxl/parser.h"
#include "silkroute/greedy.h"
#include "silkroute/partition.h"
#include "silkroute/source.h"
#include "silkroute/sqlgen.h"
#include "silkroute/tagger.h"
#include "silkroute/view_tree.h"
#include "sql/parser.h"
#include "tpch/generator.h"
#include "xml/writer.h"

namespace perfbench {

using silkroute::Result;
using silkroute::Status;
namespace core = silkroute::core;
namespace engine = silkroute::engine;

const char* ShapeName(int shape) {
  switch (shape) {
    case kUnified:
      return "unified";
    case kGreedy:
      return "greedy";
    default:
      return "partitioned";
  }
}

core::PlanStrategy ShapeStrategy(int shape) {
  switch (shape) {
    case kUnified:
      return core::PlanStrategy::kUnified;
    case kGreedy:
      return core::PlanStrategy::kGreedy;
    default:
      return core::PlanStrategy::kFullyPartitioned;
  }
}

std::unique_ptr<silkroute::Database> MakeConfigA() {
  auto db = std::make_unique<silkroute::Database>();
  silkroute::tpch::TpchConfig config;
  config.scale_factor = kScale;
  Status s = silkroute::tpch::GenerateTpch(config, db.get());
  if (!s.ok()) {
    std::fprintf(stderr, "TPC-H generation failed: %s\n",
                 s.ToString().c_str());
    std::exit(1);
  }
  return db;
}

std::vector<silkroute::Tuple> QueryRows(const silkroute::Database& db,
                                        const std::string& sql) {
  engine::QueryExecutor executor(&db);
  auto result = executor.ExecuteSql(sql);
  if (!result.ok()) {
    std::fprintf(stderr, "set-up query failed: %s: %s\n", sql.c_str(),
                 result.status().ToString().c_str());
    std::exit(1);
  }
  return std::move(result).value().rows;
}

void LayerCounters::AddExec(const engine::ExecStats& s) {
  rows_scanned += static_cast<double>(s.rows_scanned);
  rows_joined += static_cast<double>(s.rows_joined);
  rows_sorted += static_cast<double>(s.rows_sorted);
  keys_encoded += static_cast<double>(s.keys_encoded);
}

bool RunStaged(const silkroute::Database& db, engine::CostOracle* oracle,
               std::string_view rxl, const core::PublishOptions& options,
               SpanRecorder* recorder, int parent, uint64_t request,
               LayerCounters* counters, std::string* xml) {
  double start = recorder->Now();
  auto span = [&](const char* name) {
    double end = recorder->Now();
    recorder->Add(name, start, end, parent, request);
    start = end;
  };
  auto fail = [](const char* stage, const Status& status) {
    std::fprintf(stderr, "staged %s failed: %s\n", stage,
                 status.ToString().c_str());
    return false;
  };

  auto query = silkroute::rxl::ParseRxl(rxl);
  span("rxl.parse");
  if (!query.ok()) return fail("rxl.parse", query.status());

  auto tree = core::ViewTree::Build(*query, db.catalog());
  span("silkroute.view_tree");
  if (!tree.ok()) return fail("view_tree", tree.status());

  uint64_t mask = 0;
  if (options.strategy == core::PlanStrategy::kUnified) {
    mask = core::Partition::Unified(*tree).mask();
  } else if (options.strategy == core::PlanStrategy::kGreedy) {
    core::GreedyParams params = options.greedy;
    params.style = options.style;
    params.reduce = options.reduce;
    auto plan = core::GeneratePlanGreedy(*tree, oracle, params);
    if (!plan.ok()) return fail("greedy", plan.status());
    counters->oracle_requests += static_cast<double>(plan->oracle_requests);
    mask = plan->FullMask();
  }
  auto permissible = core::MakePermissible(*tree, mask, options.style,
                                           options.reduce, options.source);
  span("silkroute.greedy");
  if (!permissible.ok()) return fail("permissible", permissible.status());

  auto partition = core::Partition::FromMask(*tree, *permissible);
  if (!partition.ok()) return fail("partition", partition.status());
  core::SqlGenerator gen(&*tree, options.style, options.reduce,
                         options.distinct_selects);
  auto specs = gen.GeneratePlan(*partition);
  span("silkroute.sqlgen");
  if (!specs.ok()) return fail("sqlgen", specs.status());

  std::vector<std::unique_ptr<engine::TupleStream>> streams;
  for (const core::StreamSpec& spec : *specs) {
    auto parsed = silkroute::sql::ParseQuery(spec.sql);
    span("sql.parse");
    if (!parsed.ok()) return fail("sql.parse", parsed.status());
    engine::QueryExecutor executor(&db);
    auto relation = executor.Execute(**parsed);
    span("engine.execute");
    if (!relation.ok()) return fail("execute", relation.status());
    counters->AddExec(executor.stats());
    streams.push_back(
        std::make_unique<engine::TupleStream>(std::move(relation).value()));
    span("engine.bind");
    counters->wire_bytes += static_cast<double>(streams.back()->wire_bytes());
  }

  for (auto& stream : streams) {
    while (stream->Next().has_value()) {
    }
    stream->Rewind();
  }
  span("engine.decode");

  std::ostringstream out;
  {
    silkroute::xml::XmlWriter::Options writer_options;
    writer_options.pretty = options.pretty;
    silkroute::xml::XmlWriter writer(&out, writer_options);
    core::Tagger tagger(&*tree, &writer,
                        core::Tagger::Options{options.document_element});
    std::vector<core::Tagger::StreamInput> inputs;
    for (size_t i = 0; i < streams.size(); ++i) {
      inputs.push_back({&(*specs)[i], streams[i].get()});
    }
    Status tagged = tagger.Run(std::move(inputs));
    if (tagged.ok()) tagged = writer.Finish();
    span("silkroute.tag");
    if (!tagged.ok()) return fail("tag", tagged);
    counters->instances_emitted +=
        static_cast<double>(tagger.stats().instances_emitted);
    counters->xml_bytes += static_cast<double>(writer.bytes_written());
    counters->xml_flushes += static_cast<double>(writer.flushes());
  }
  *xml = std::move(out).str();
  return true;
}

void AddStagedLayers(const std::vector<SpanRecord>& spans, size_t requests,
                     const LayerCounters& counters,
                     std::map<std::string, double>* layers) {
  std::map<std::string, double> self = SelfTimePerRequest(spans, requests);
  auto& out = *layers;
  for (const char* layer :
       {"rxl.parse", "silkroute.view_tree", "silkroute.greedy",
        "silkroute.sqlgen", "sql.parse", "engine.execute", "engine.bind",
        "engine.decode"}) {
    out[std::string(layer) + "_ms"] = self[layer];
  }
  out["silkroute.merge_emit_ms"] = self["silkroute.tag"] - self["engine.decode"];
  double n = requests > 0 ? static_cast<double>(requests) : 1.0;
  out["silkroute.oracle_requests"] = counters.oracle_requests / n;
  out["engine.rows_scanned"] = counters.rows_scanned / n;
  out["engine.rows_joined"] = counters.rows_joined / n;
  out["engine.rows_sorted"] = counters.rows_sorted / n;
  out["engine.keys_encoded"] = counters.keys_encoded / n;
  out["engine.wire_bytes"] = counters.wire_bytes / n;
  out["silkroute.instances_emitted"] = counters.instances_emitted / n;
  out["xml.bytes"] = counters.xml_bytes / n;
  out["xml.flushes"] = counters.xml_flushes / n;
}

template <typename F>
Result<engine::Relation> TimedExecutor::Timed(F&& call) {
  if (!recording_.load(std::memory_order_relaxed)) return call();
  Clock::time_point start = Clock::now();
  Result<engine::Relation> result = call();
  double ms = MsBetween(start, Clock::now());
  double bytes =
      result.ok() ? static_cast<double>(result.value().ByteSize()) : 0.0;
  std::lock_guard<std::mutex> lock(mu_);
  ++totals_.calls;
  totals_.call_ms += ms;
  totals_.bytes += bytes;
  if (stats_source_ != nullptr) totals_.exec.AddExec(stats_source_->stats());
  return result;
}

Result<engine::Relation> TimedExecutor::ExecuteSql(std::string_view sql) {
  return Timed([&] { return inner_->ExecuteSql(sql); });
}

Result<engine::Relation> TimedExecutor::ExecuteSqlWithDeadline(
    std::string_view sql, double timeout_ms) {
  return Timed([&] { return inner_->ExecuteSqlWithDeadline(sql, timeout_ms); });
}

Result<engine::Relation> TimedExecutor::ExecuteSqlCancellable(
    std::string_view sql, double timeout_ms, silkroute::CancelToken* cancel) {
  return Timed(
      [&] { return inner_->ExecuteSqlCancellable(sql, timeout_ms, cancel); });
}

TimedExecutor::Totals TimedExecutor::TakeTotals() {
  std::lock_guard<std::mutex> lock(mu_);
  return std::exchange(totals_, Totals());
}

}  // namespace perfbench
