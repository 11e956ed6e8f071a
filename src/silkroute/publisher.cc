#include "silkroute/publisher.h"

#include <algorithm>
#include <deque>
#include <set>
#include <sstream>
#include <utility>

#include "common/string_util.h"
#include "common/timer.h"
#include "engine/tuple_stream.h"
#include "rxl/parser.h"
#include "silkroute/partition.h"
#include "silkroute/subview.h"
#include "xml/writer.h"

namespace silkroute::core {

Publisher::Publisher(const Database* db)
    : db_(db),
      stats_(engine::DatabaseStats::Collect(*db)),
      estimator_(&db->catalog(), &stats_) {}

Result<ViewTree> Publisher::BuildViewTree(std::string_view rxl_text) const {
  SILK_ASSIGN_OR_RETURN(rxl::RxlQuery query, rxl::ParseRxl(rxl_text));
  return ViewTree::Build(query, db_->catalog());
}

Result<PublishResult> Publisher::PublishSubview(std::string_view rxl_text,
                                                std::string_view path,
                                                const PublishOptions& options,
                                                std::ostream* out) {
  SILK_ASSIGN_OR_RETURN(rxl::RxlQuery view, rxl::ParseRxl(rxl_text));
  SILK_ASSIGN_OR_RETURN(rxl::RxlQuery composed, ComposeSubview(view, path));
  return Publish(composed.ToString(), options, out);
}

Result<PublishResult> Publisher::Publish(std::string_view rxl_text,
                                         const PublishOptions& options,
                                         std::ostream* out) {
  SILK_ASSIGN_OR_RETURN(ViewTree tree, BuildViewTree(rxl_text));

  PublishResult result;
  uint64_t mask = 0;
  switch (options.strategy) {
    case PlanStrategy::kUnified:
      mask = Partition::Unified(tree).mask();
      break;
    case PlanStrategy::kFullyPartitioned:
      mask = 0;
      break;
    case PlanStrategy::kExplicitMask:
      mask = options.explicit_mask;
      break;
    case PlanStrategy::kGreedy: {
      GreedyParams params = options.greedy;
      params.style = options.style;
      params.reduce = options.reduce;
      // The estimator mutates its request counter; concurrent publishers
      // share it, so planning is serialized (execution is not).
      std::lock_guard<std::mutex> lock(plan_mu_);
      engine::CostOracle* oracle = options.plan_oracle != nullptr
                                       ? options.plan_oracle
                                       : &estimator_;
      SILK_ASSIGN_OR_RETURN(result.greedy_plan,
                            GeneratePlanGreedy(tree, oracle, params));
      mask = result.greedy_plan.FullMask();
      break;
    }
  }
  SILK_ASSIGN_OR_RETURN(mask,
                        MakePermissible(tree, mask, options.style,
                                        options.reduce, options.source));
  SILK_ASSIGN_OR_RETURN(result.metrics,
                        ExecutePlan(tree, mask, options, out));
  return result;
}

namespace {

/// True for errors of the *source* (as opposed to bugs in the generated
/// SQL or the plan): the ones plan degradation can route around.
bool IsSourceFailure(StatusCode code) {
  return code == StatusCode::kUnavailable || code == StatusCode::kTimeout;
}

/// A component query awaiting execution; degradation replaces one item
/// with the two halves of its deepest-edge split, keeping the index of the
/// original component so degradations are counted once per component.
struct PendingQuery {
  StreamSpec spec;
  size_t origin = 0;
  /// Component span (null when tracing is off). Shared so follow-up
  /// queries produced by degradation can nest under the failed
  /// component's span after this item is gone.
  std::shared_ptr<obs::SpanHandle> span;
};

}  // namespace

std::shared_ptr<obs::SpanHandle> MakeComponentSpan(const ViewTree& tree,
                                                   obs::Tracer* tracer,
                                                   obs::SpanHandle* parent,
                                                   const StreamSpec& spec) {
  if (tracer == nullptr || !tracer->enabled()) return nullptr;
  auto span = std::make_shared<obs::SpanHandle>(
      tracer->StartChild(parent, "component"));
  std::string nodes, tables;
  for (int id : spec.covered_nodes) {
    if (!nodes.empty()) nodes += ',';
    nodes += std::to_string(id);
  }
  for (const std::string& t : ComponentTables(tree, spec.covered_nodes)) {
    if (!tables.empty()) tables += ',';
    tables += t;
  }
  span->Annotate("nodes", std::move(nodes));
  span->Annotate("tables", std::move(tables));
  return span;
}

namespace {

/// The built-in strategy: one query at a time on the calling thread,
/// retries through a ResilientExecutor, degradation down the edge-mask
/// lattice on permanent source failure.
class SequentialExecution : public PlanExecution {
 public:
  explicit SequentialExecution(const Database* db) : db_(db) {}

  Result<std::vector<ComponentStream>> Run(const ViewTree& tree,
                                           const SqlGenerator& gen,
                                           std::vector<StreamSpec> specs,
                                           const PublishOptions& options,
                                           PlanMetrics* metrics,
                                           obs::SpanHandle* plan_span) override;

 private:
  const Database* db_;
};

Result<std::vector<ComponentStream>> SequentialExecution::Run(
    const ViewTree& tree, const SqlGenerator& gen,
    std::vector<StreamSpec> specs, const PublishOptions& options,
    PlanMetrics* metrics, obs::SpanHandle* plan_span) {
  // The execution stack: the connection (caller-supplied for fault
  // injection, otherwise the local database) under the resilient retry
  // layer. Strict mode runs single-attempt with no budget, preserving the
  // pre-resilience fail-fast behaviour.
  engine::DatabaseExecutor db_executor(db_);
  db_executor.set_metrics_registry(options.metrics_registry);
  engine::SqlExecutor* connection =
      options.executor != nullptr ? options.executor : &db_executor;
  engine::RetryOptions retry = options.retry;
  retry.query_deadline_ms = options.query_timeout_ms;
  retry.tracer = options.tracer;
  retry.metrics = options.metrics_registry;
  if (options.strict) {
    retry.max_attempts = 1;
    retry.retry_budget = 0;
  }
  engine::ResilientExecutor resilient(connection, retry);

  // Execute every SQL query at the "server" (query time), then bind the
  // results to the wire format (bind time). A component whose query fails
  // permanently is degraded: split at its deepest kept edge into two
  // smaller components and re-queued, in the limit one query per node.
  std::deque<PendingQuery> queue;
  for (size_t i = 0; i < specs.size(); ++i) {
    auto span = MakeComponentSpan(tree, options.tracer, plan_span, specs[i]);
    queue.push_back(PendingQuery{std::move(specs[i]), i, std::move(span)});
  }
  std::set<size_t> degraded_origins;
  std::vector<ComponentStream> done;
  auto finish_metrics = [&] {
    metrics->exec_report = resilient.report();
    metrics->attempts = metrics->exec_report.total_attempts();
    metrics->retries = metrics->exec_report.total_retries();
    metrics->degraded_components = degraded_origins.size();
  };
  while (!queue.empty()) {
    PendingQuery item = std::move(queue.front());
    queue.pop_front();
    if (options.collect_sql) metrics->sql.push_back(item.spec.sql);

    ComponentOutcome outcome;
    outcome.nodes = item.spec.covered_nodes;
    outcome.tables = ComponentTables(tree, item.spec.covered_nodes);

    // Fragment-cache fast path: a hit hands back the already-bound wire
    // bytes — no SQL execution, no binding, no retry-budget spend.
    engine::ResultCache* cache = options.result_cache;
    if (cache != nullptr && !item.spec.cache_key.empty()) {
      if (auto entry = cache->Lookup(item.spec.cache_key)) {
        ++metrics->cache_hits;
        metrics->rows += entry->num_tuples;
        auto stream = std::make_unique<engine::TupleStream>(
            entry->schema, entry->bytes, entry->num_tuples);
        metrics->wire_bytes += stream->wire_bytes();
        if (item.span != nullptr) {
          item.span->Annotate("cache", "hit");
          item.span->Annotate("status", StatusCodeToString(StatusCode::kOk));
        }
        metrics->components.push_back(std::move(outcome));
        done.push_back(
            ComponentStream{std::move(item.spec), std::move(stream)});
        continue;
      }
      ++metrics->cache_misses;
    }

    // phase:query under the component span; the resilient layer hangs
    // attempt/backoff spans off it through the thread-local current span.
    obs::SpanHandle query_span =
        obs::Tracer::Child(options.tracer, item.span.get(), "phase:query");
    Timer query_timer;
    auto rel_result = [&] {
      obs::ScopedCurrentSpan scope(&query_span);
      return resilient.ExecuteSql(item.spec.sql);
    }();
    const engine::QueryExecution& executed = resilient.report().queries.back();
    outcome.attempts = static_cast<size_t>(executed.attempts);
    outcome.retries = executed.attempts > 1
                          ? static_cast<size_t>(executed.attempts - 1)
                          : 0;
    if (rel_result.ok()) {
      engine::Relation rel = std::move(rel_result).value();
      // The span carries the *same* measured value that feeds the metrics,
      // so a trace reproduces the query/bind/tag totals exactly.
      double query_elapsed = query_timer.ElapsedMillis();
      metrics->query_ms += query_elapsed;
      query_span.AnnotateMs("ms", query_elapsed);
      query_span.End();
      metrics->rows += rel.rows.size();

      obs::SpanHandle bind_span =
          obs::Tracer::Child(options.tracer, item.span.get(), "phase:bind");
      Timer bind_timer;
      auto stream = std::make_unique<engine::TupleStream>(std::move(rel));
      double bind_elapsed = bind_timer.ElapsedMillis();
      metrics->bind_ms += bind_elapsed;
      bind_span.AnnotateMs("ms", bind_elapsed);
      bind_span.End();
      metrics->wire_bytes += stream->wire_bytes();
      if (cache != nullptr && !item.spec.cache_key.empty()) {
        engine::CacheEntry entry;
        entry.schema = stream->schema();
        entry.bytes = stream->shared_wire();
        entry.num_tuples = stream->num_tuples();
        cache->Insert(item.spec.cache_key, std::move(entry));
      }
      if (options.profile != nullptr) {
        options.profile->RecordQuery(item.spec.sql, query_elapsed,
                                     stream->num_tuples(),
                                     stream->wire_bytes());
        options.profile->RecordBind(item.spec.sql, bind_elapsed);
      }
      if (item.span != nullptr) {
        item.span->Annotate("status", StatusCodeToString(StatusCode::kOk));
      }
      metrics->components.push_back(std::move(outcome));
      done.push_back(ComponentStream{std::move(item.spec), std::move(stream)});
      continue;
    }
    const Status& status = rel_result.status();
    outcome.final_status = status.code();
    query_span.Annotate("status", StatusCodeToString(status.code()));
    query_span.End();
    if (item.span != nullptr) {
      item.span->Annotate("status", StatusCodeToString(status.code()));
    }
    // Budget exhaustion always aborts: degrading without retries left would
    // just re-fail; the caller must raise the budget or go strict.
    if (status.code() == StatusCode::kResourceExhausted ||
        !IsSourceFailure(status.code())) {
      metrics->components.push_back(std::move(outcome));
      return status;
    }
    if (options.strict) {
      metrics->components.push_back(std::move(outcome));
      if (status.code() == StatusCode::kTimeout) {
        metrics->timed_out = true;
        finish_metrics();
        return done;  // paper: "no time was reported"
      }
      return status;
    }

    int edge = DeepestInternalEdge(tree, item.spec.covered_nodes);
    if (edge < 0) {
      // Fully-partitioned limit reached and the single-node query still
      // fails. A timeout here keeps the paper's reporting; an unavailable
      // node is skipped (best-effort document, recorded in failed_nodes).
      metrics->components.push_back(std::move(outcome));
      if (status.code() == StatusCode::kTimeout) {
        metrics->timed_out = true;
        finish_metrics();
        return done;
      }
      metrics->failed_nodes.insert(metrics->failed_nodes.end(),
                                   item.spec.covered_nodes.begin(),
                                   item.spec.covered_nodes.end());
      done.push_back(ComponentStream{
          std::move(item.spec),
          std::make_unique<engine::TupleStream>(engine::Relation{})});
      continue;
    }
    degraded_origins.insert(item.origin);
    outcome.degraded = true;
    metrics->components.push_back(std::move(outcome));
    auto [remainder, subtree] =
        SplitAtEdge(tree, item.spec.covered_nodes, tree.Edges()[edge]);
    for (auto* part : {&remainder, &subtree}) {
      SILK_ASSIGN_OR_RETURN(StreamSpec sub_spec,
                            gen.GenerateComponent(*part));
      // Follow-up queries nest under the failed component's span, so the
      // trace shows the degradation tree.
      auto sub_span =
          MakeComponentSpan(tree, options.tracer, item.span.get(), sub_spec);
      queue.push_back(
          PendingQuery{std::move(sub_spec), item.origin, std::move(sub_span)});
    }
  }
  finish_metrics();
  return done;
}

}  // namespace

Result<PlanMetrics> Publisher::ExecutePlan(const ViewTree& tree,
                                           uint64_t mask,
                                           const PublishOptions& options,
                                           std::ostream* out) {
  SILK_ASSIGN_OR_RETURN(Partition plan, Partition::FromMask(tree, mask));
  SqlGenerator gen(&tree, options.style, options.reduce,
                   options.distinct_selects);
  SILK_ASSIGN_OR_RETURN(std::vector<StreamSpec> specs, gen.GeneratePlan(plan));

  PlanMetrics metrics;
  metrics.mask = mask;
  metrics.num_streams = specs.size();

  obs::SpanHandle plan_span =
      obs::Tracer::Child(options.tracer, options.parent_span, "plan");
  plan_span.AnnotateCount("mask", mask);
  plan_span.AnnotateCount("num_components", specs.size());

  // Result cache (DESIGN.md §15). The version vector of every table the
  // plan touches is snapshotted once, BEFORE any query runs: a write that
  // races the publish can only make an entry conservatively stale (keyed
  // on versions older than what the queries saw), never wrongly fresh. On
  // a quiescent database the snapshot matches the data exactly, which is
  // what makes cached republishes byte-identical to cold ones.
  engine::ResultCache* cache = options.result_cache;
  bool cache_live = false;
  std::string doc_key;
  if (cache != nullptr) {
    std::set<std::string> table_set;
    for (const StreamSpec& spec : specs) {
      for (std::string& t : ComponentTables(tree, spec.covered_nodes)) {
        table_set.insert(std::move(t));
      }
    }
    std::vector<std::string> table_list(table_set.begin(), table_set.end());
    Result<engine::TableVersionVector> fetched =
        [&]() -> Result<engine::TableVersionVector> {
      if (options.executor != nullptr) {
        return options.executor->FetchTableVersions(table_list);
      }
      engine::TableVersionVector local;
      local.reserve(table_list.size());
      for (const std::string& name : table_list) {
        SILK_ASSIGN_OR_RETURN(const Table* table, db_->GetTable(name));
        local.emplace_back(name, table->version());
      }
      return local;
    }();
    // A failed fetch (legacy remote peer, backend down) leaves every
    // cache_key empty: this publish just runs uncached.
    if (fetched.ok()) {
      cache_live = true;
      const engine::TableVersionVector& versions = fetched.value();
      for (StreamSpec& spec : specs) {
        engine::TableVersionVector sub;
        for (const std::string& t : ComponentTables(tree, spec.covered_nodes)) {
          auto it = std::lower_bound(
              versions.begin(), versions.end(), t,
              [](const auto& pair, const std::string& name) {
                return pair.first < name;
              });
          if (it != versions.end() && it->first == t) sub.push_back(*it);
        }
        spec.cache_key =
            engine::ResultCache::FragmentKey(NormalizeSql(spec.sql), sub);
      }
      // The document fingerprint pins everything that shapes the XML: the
      // partition, every component's SQL (style/reduce/distinct are all
      // reflected there), and the tagging options.
      std::string fingerprint = std::to_string(mask);
      fingerprint += '|';
      fingerprint += options.document_element;
      fingerprint += options.pretty ? "|p" : "|c";
      for (const StreamSpec& spec : specs) {
        fingerprint += '|';
        fingerprint += NormalizeSql(spec.sql);
      }
      doc_key = engine::ResultCache::DocumentKey(fingerprint,
                                                 fetched.value());
      if (auto doc = cache->Lookup(doc_key)) {
        // Unchanged view over unchanged tables: stream the finished XML
        // straight out and rebuild the byte/row totals from the entry.
        out->write(doc->bytes->data(),
                   static_cast<std::streamsize>(doc->bytes->size()));
        metrics.served_from_doc_cache = true;
        for (const auto& [name, value] : doc->counters) {
          if (name == "num_streams") metrics.num_streams = value;
          else if (name == "rows") metrics.rows = value;
          else if (name == "wire_bytes") metrics.wire_bytes = value;
          else if (name == "xml_bytes") metrics.xml_bytes = value;
          else if (name == "xml_flushes") metrics.xml_flushes = value;
        }
        plan_span.Annotate("cache", "document_hit");
        plan_span.End();
        if (options.metrics_registry != nullptr) {
          options.metrics_registry->counter("silkroute_plans_total")->Add();
        }
        return metrics;
      }
    }
  }

  // 1. Produce the component streams through the configured strategy.
  SequentialExecution sequential(db_);
  PlanExecution* execution =
      options.execution != nullptr ? options.execution : &sequential;
  SILK_ASSIGN_OR_RETURN(
      std::vector<ComponentStream> done,
      execution->Run(tree, gen, std::move(specs), options, &metrics,
                     &plan_span));
  if (metrics.timed_out) return metrics;  // partial metrics, no document
  metrics.num_streams = done.size();

  // Restore document order after degradation: streams sorted by component
  // root (the smallest covered node id), exactly GeneratePlan's order. This
  // also makes concurrent strategies deterministic: completion order never
  // reaches the tagger.
  std::sort(done.begin(), done.end(), [](const auto& a, const auto& b) {
    return a.spec.covered_nodes.front() < b.spec.covered_nodes.front();
  });

  // 2. Merge + tag (client side; Next() also pays the wire decode). With a
  // live cache the document is captured so a clean publish can be admitted
  // under the document key.
  std::ostringstream capture;
  std::ostream* sink = cache_live ? static_cast<std::ostream*>(&capture) : out;
  xml::XmlWriter::Options writer_options;
  writer_options.pretty = options.pretty;
  xml::XmlWriter writer(sink, writer_options);
  Tagger tagger(&tree, &writer,
                Tagger::Options{options.document_element});
  std::vector<Tagger::StreamInput> inputs;
  inputs.reserve(done.size());
  for (auto& component : done) {
    inputs.push_back({&component.spec, component.stream.get()});
  }
  obs::SpanHandle tag_span =
      obs::Tracer::Child(options.tracer, &plan_span, "phase:tag");
  Timer tag_timer;
  SILK_RETURN_IF_ERROR(tagger.Run(std::move(inputs)));
  SILK_RETURN_IF_ERROR(writer.Finish());
  metrics.tag_ms = tag_timer.ElapsedMillis();
  tag_span.AnnotateMs("ms", metrics.tag_ms);
  tag_span.End();
  metrics.xml_bytes = writer.bytes_written();
  metrics.xml_flushes = writer.flushes();
  metrics.tagger = tagger.stats();

  if (cache_live) {
    std::string xml = std::move(capture).str();
    out->write(xml.data(), static_cast<std::streamsize>(xml.size()));
    // Only a clean document is admitted: a best-effort publish (skipped
    // nodes, degraded components, breaker fast-fails) reflects transient
    // failures, not the tables' state, and must not be replayed later.
    bool clean = metrics.failed_nodes.empty() &&
                 metrics.degraded_components == 0 &&
                 metrics.breaker_fast_fails == 0;
    if (clean) {
      engine::CacheEntry doc;
      doc.counters = {{"num_streams", metrics.num_streams},
                      {"rows", metrics.rows},
                      {"wire_bytes", metrics.wire_bytes},
                      {"xml_bytes", metrics.xml_bytes},
                      {"xml_flushes", metrics.xml_flushes}};
      doc.bytes = std::make_shared<const std::string>(std::move(xml));
      cache->Insert(doc_key, std::move(doc));
    }
    if (metrics.cache_hits > 0) {
      // Cached fragments merged with fresh ones into this document — the
      // incremental-maintenance splice path.
      metrics.cache_splices = metrics.cache_hits;
      cache->RecordSplices(metrics.cache_splices);
    }
  }

  // Tag runs once per plan over the merged streams; apportion its cost to
  // the component queries by row share so the profile prices each SQL text
  // with the downstream tagging work its rows cause.
  if (options.profile != nullptr && !done.empty()) {
    size_t total_rows = 0;
    for (const auto& component : done) {
      total_rows += component.stream->num_tuples();
    }
    for (const auto& component : done) {
      double share =
          total_rows > 0 ? static_cast<double>(component.stream->num_tuples()) /
                               static_cast<double>(total_rows)
                         : 1.0 / static_cast<double>(done.size());
      options.profile->RecordTag(component.spec.sql, metrics.tag_ms * share);
    }
  }

  plan_span.AnnotateMs("query_ms", metrics.query_ms);
  plan_span.AnnotateMs("bind_ms", metrics.bind_ms);
  plan_span.AnnotateMs("tag_ms", metrics.tag_ms);
  plan_span.AnnotateCount("rows", metrics.rows);
  plan_span.AnnotateCount("wire_bytes", metrics.wire_bytes);
  plan_span.AnnotateCount("xml_bytes", metrics.xml_bytes);
  plan_span.End();

  if (options.metrics_registry != nullptr) {
    obs::MetricsRegistry* reg = options.metrics_registry;
    reg->counter("silkroute_plans_total")->Add();
    reg->histogram("silkroute_phase_query_us")
        ->RecordMicros(metrics.query_ms * 1000.0);
    reg->histogram("silkroute_phase_bind_us")
        ->RecordMicros(metrics.bind_ms * 1000.0);
    reg->histogram("silkroute_phase_tag_us")
        ->RecordMicros(metrics.tag_ms * 1000.0);
    reg->histogram("silkroute_plan_rows")->Record(metrics.rows);
    reg->histogram("silkroute_plan_wire_bytes")->Record(metrics.wire_bytes);
    reg->histogram("silkroute_plan_xml_bytes")->Record(metrics.xml_bytes);
    reg->counter("silkroute_xml_writer_flushes_total")
        ->Add(metrics.xml_flushes);
  }
  return metrics;
}

}  // namespace silkroute::core
