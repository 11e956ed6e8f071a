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

ComponentStep::ComponentStep(const ViewTree& tree, const SqlGenerator& gen,
                             const PublishOptions& options,
                             engine::SqlExecutor* connection,
                             CancelToken* cancel, bool has_deadline,
                             std::chrono::steady_clock::time_point deadline)
    : tree_(tree),
      gen_(gen),
      options_(options),
      connection_(connection),
      budget_(options.strict ? 0 : options.retry.retry_budget),
      retry_(options.retry) {
  // Strict mode runs single-attempt with no budget, preserving the
  // pre-resilience fail-fast behaviour.
  if (options.strict) retry_.max_attempts = 1;
  retry_.shared_budget = &budget_;
  retry_.query_deadline_ms = options.query_timeout_ms;
  retry_.cancel = cancel;
  retry_.has_deadline = has_deadline;
  retry_.deadline = deadline;
  retry_.tracer = options.tracer;
  retry_.metrics = options.metrics_registry;
}

PendingComponent ComponentStep::Pending(StreamSpec spec, size_t origin,
                                        obs::SpanHandle* parent) const {
  PendingComponent item;
  item.outcome.nodes = spec.covered_nodes;
  item.outcome.tables = ComponentTables(tree_, spec.covered_nodes);
  // Null — not an inert handle — when tracing is off, so the disabled path
  // allocates nothing.
  obs::Tracer* tracer = options_.tracer;
  if (tracer != nullptr && tracer->enabled()) {
    item.span = std::make_shared<obs::SpanHandle>(
        tracer->StartChild(parent, "component"));
    std::string nodes;
    for (int id : item.outcome.nodes) {
      if (!nodes.empty()) nodes += ',';
      nodes += std::to_string(id);
    }
    item.span->Annotate("nodes", std::move(nodes));
    item.span->Annotate("tables", Join(item.outcome.tables, ","));
  }
  item.spec = std::move(spec);
  item.origin = origin;
  return item;
}

std::unique_ptr<engine::TupleStream> ComponentStep::LookupFragment(
    const PendingComponent& item) {
  // A hit hands back the already-bound wire bytes: no SQL execution, no
  // binding, no retry-budget spend.
  engine::ResultCache* cache = options_.result_cache;
  if (cache == nullptr || item.spec.cache_key.empty()) return nullptr;
  auto entry = cache->Lookup(item.spec.cache_key);
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++(entry ? cache_hits_ : cache_misses_);
  }
  if (!entry) return nullptr;
  if (item.span != nullptr) item.span->Annotate("cache", "hit");
  return std::make_unique<engine::TupleStream>(entry->schema, entry->bytes,
                                               entry->num_tuples);
}

Result<std::unique_ptr<engine::TupleStream>> ComponentStep::ExecuteAndBind(
    PendingComponent* item) {
  const std::string& sql = item->spec.sql;
  engine::ResilientExecutor resilient(connection_, retry_);
  // phase:query under the component span; the resilient layer hangs
  // attempt/backoff spans off it through the thread-local current span.
  obs::SpanHandle query_span =
      obs::Tracer::Child(options_.tracer, item->span.get(), "phase:query");
  Timer query_timer;
  auto result = [&] {
    obs::ScopedCurrentSpan scope(&query_span);
    return resilient.ExecuteSql(sql);
  }();
  double query_elapsed = query_timer.ElapsedMillis();
  const engine::QueryExecution& executed = resilient.report().queries.back();
  item->outcome.attempts = static_cast<size_t>(executed.attempts);
  item->outcome.retries = resilient.report().total_retries();
  {
    std::lock_guard<std::mutex> lock(mu_);
    report_.queries.push_back(executed);
    if (options_.collect_sql) sql_.push_back(sql);
  }
  if (!result.ok()) {
    query_span.Annotate("status", StatusCodeToString(result.status().code()));
    return result.status();
  }
  // The spans carry the *same* measured values that feed the metrics, so a
  // trace reproduces the query/bind totals exactly.
  query_span.AnnotateMs("ms", query_elapsed);
  query_span.End();

  obs::SpanHandle bind_span =
      obs::Tracer::Child(options_.tracer, item->span.get(), "phase:bind");
  Timer bind_timer;
  auto stream =
      std::make_unique<engine::TupleStream>(std::move(result).value());
  double bind_elapsed = bind_timer.ElapsedMillis();
  bind_span.AnnotateMs("ms", bind_elapsed);
  bind_span.End();

  if (options_.result_cache != nullptr && !item->spec.cache_key.empty()) {
    engine::CacheEntry entry;
    entry.schema = stream->schema();
    entry.bytes = stream->shared_wire();
    entry.num_tuples = stream->num_tuples();
    options_.result_cache->Insert(item->spec.cache_key, std::move(entry));
  }
  if (options_.profile != nullptr) {
    options_.profile->RecordQuery(sql, query_elapsed, stream->num_tuples(),
                                  stream->wire_bytes());
    options_.profile->RecordBind(sql, bind_elapsed);
  }
  std::lock_guard<std::mutex> lock(mu_);
  query_ms_ += query_elapsed;
  bind_ms_ += bind_elapsed;
  return stream;
}

void ComponentStep::Accept(PendingComponent item,
                           std::unique_ptr<engine::TupleStream> stream) {
  if (item.span != nullptr) {
    item.span->Annotate("status", StatusCodeToString(StatusCode::kOk));
  }
  std::lock_guard<std::mutex> lock(mu_);
  row_count_ += stream->num_tuples();
  wire_bytes_ += stream->wire_bytes();
  components_.push_back(std::move(item.outcome));
  done_.push_back(ComponentStream{std::move(item.spec), std::move(stream)});
}

std::vector<PendingComponent> ComponentStep::Fail(PendingComponent item,
                                                  const Status& status) {
  StatusCode code = status.code();
  item.outcome.final_status = code;
  if (item.span != nullptr) {
    item.span->Annotate("status", StatusCodeToString(code));
  }
  // Only source failures degrade. Budget exhaustion (kResourceExhausted)
  // aborts: degrading without retries left would just re-fail, and the
  // caller must raise the budget or go strict. Any other error is a bug in
  // the plan, not the source's.
  bool source_failure = IsSourceFailure(code);
  int edge = source_failure && !options_.strict
                 ? DeepestInternalEdge(tree_, item.spec.covered_nodes)
                 : -1;
  item.outcome.degraded = edge >= 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    components_.push_back(std::move(item.outcome));
    if (edge >= 0) {
      degraded_origins_.insert(item.origin);
    } else if (code == StatusCode::kTimeout) {
      // Strict mode, or the fully-partitioned limit: the paper's reporting
      // ("no time was reported").
      timed_out_ = true;
    } else if (source_failure && !options_.strict) {
      // The single-node query is still unavailable: skip the node
      // (best-effort document, recorded in failed_nodes).
      failed_nodes_.insert(failed_nodes_.end(),
                           item.spec.covered_nodes.begin(),
                           item.spec.covered_nodes.end());
      done_.push_back(ComponentStream{
          std::move(item.spec),
          std::make_unique<engine::TupleStream>(engine::Relation{})});
    } else if (fatal_.ok()) {
      fatal_ = status;
    }
  }
  if (edge < 0) return {};
  // Split at the deepest kept edge; the two halves run next. Follow-ups
  // nest under the failed component's span, so the trace shows the
  // degradation tree.
  auto [remainder, subtree] =
      SplitAtEdge(tree_, item.spec.covered_nodes, tree_.Edges()[edge]);
  std::vector<PendingComponent> follow_ups;
  for (auto* part : {&remainder, &subtree}) {
    Result<StreamSpec> spec = gen_.GenerateComponent(*part);
    if (!spec.ok()) {
      Abort(spec.status());
      return {};
    }
    follow_ups.push_back(
        Pending(std::move(spec).value(), item.origin, item.span.get()));
  }
  return follow_ups;
}

void ComponentStep::Abort(Status status) {
  std::lock_guard<std::mutex> lock(mu_);
  if (fatal_.ok()) fatal_ = std::move(status);
}

void ComponentStep::TimeOut() {
  std::lock_guard<std::mutex> lock(mu_);
  timed_out_ = true;
}

bool ComponentStep::aborted() const {
  std::lock_guard<std::mutex> lock(mu_);
  return !fatal_.ok() || timed_out_;
}

Result<std::vector<ComponentStream>> ComponentStep::Finish(
    PlanMetrics* metrics) {
  std::lock_guard<std::mutex> lock(mu_);
  // Query slots are numbered in completion order (each query ran its own
  // single-slot executor).
  for (size_t i = 0; i < report_.queries.size(); ++i) {
    report_.queries[i].query_index = static_cast<int>(i);
  }
  metrics->exec_report = std::move(report_);
  metrics->attempts = metrics->exec_report.total_attempts();
  metrics->retries = metrics->exec_report.total_retries();
  metrics->degraded_components = degraded_origins_.size();
  metrics->breaker_fast_fails = static_cast<size_t>(std::count_if(
      components_.begin(), components_.end(),
      [](const ComponentOutcome& c) { return c.breaker_fast_fail; }));
  metrics->components = std::move(components_);
  metrics->failed_nodes = std::move(failed_nodes_);
  std::sort(metrics->failed_nodes.begin(), metrics->failed_nodes.end());
  metrics->sql = std::move(sql_);
  metrics->cache_hits = cache_hits_;
  metrics->cache_misses = cache_misses_;
  metrics->rows = row_count_;
  metrics->wire_bytes = wire_bytes_;
  // Under a pooled strategy query/bind time is summed across workers:
  // aggregate server time, which can exceed the plan's wall-clock time.
  metrics->query_ms = query_ms_;
  metrics->bind_ms = bind_ms_;
  if (!fatal_.ok()) return fatal_;
  if (timed_out_) {
    metrics->timed_out = true;
    return std::vector<ComponentStream>{};
  }
  return std::move(done_);
}

namespace {

/// The built-in strategy: one component at a time on the calling thread,
/// follow-ups from degradation queued behind the rest.
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
  // The connection: caller-supplied (e.g. for fault injection), otherwise
  // the local database.
  engine::DatabaseExecutor db_executor(db_);
  db_executor.set_metrics_registry(options.metrics_registry);
  ComponentStep step(tree, gen, options,
                     options.executor != nullptr ? options.executor
                                                 : &db_executor);
  std::deque<PendingComponent> queue;
  for (size_t i = 0; i < specs.size(); ++i) {
    queue.push_back(step.Pending(std::move(specs[i]), i, plan_span));
  }
  while (!queue.empty() && !step.aborted()) {
    PendingComponent item = std::move(queue.front());
    queue.pop_front();
    if (auto hit = step.LookupFragment(item)) {
      step.Accept(std::move(item), std::move(hit));
      continue;
    }
    auto stream = step.ExecuteAndBind(&item);
    if (stream.ok()) {
      step.Accept(std::move(item), std::move(stream).value());
      continue;
    }
    for (PendingComponent& follow_up :
         step.Fail(std::move(item), stream.status())) {
      queue.push_back(std::move(follow_up));
    }
  }
  return step.Finish(metrics);
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
