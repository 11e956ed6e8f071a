#include "silkroute/publisher.h"

#include <algorithm>
#include <deque>
#include <set>
#include <sstream>
#include <utility>

#include "common/lanes.h"
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

PreparedPlan::PreparedPlan(std::shared_ptr<const ViewTree> view_tree,
                           const PublishOptions& options)
    : tree(std::move(view_tree)),
      gen(tree.get(), options.style, options.reduce,
          options.distinct_selects) {}

namespace {

/// SQL generation for a chosen mask, and what every publish of the plan
/// derives from the SQL.
Result<std::shared_ptr<const PreparedPlan>> GenerateComponents(
    std::shared_ptr<const ViewTree> tree, uint64_t mask,
    GreedyPlan greedy_plan, const PublishOptions& options) {
  auto plan = std::make_shared<PreparedPlan>(std::move(tree), options);
  plan->mask = mask;
  plan->greedy_plan = std::move(greedy_plan);
  SILK_ASSIGN_OR_RETURN(Partition partition,
                        Partition::FromMask(*plan->tree, mask));
  SILK_ASSIGN_OR_RETURN(plan->specs, plan->gen.GeneratePlan(partition));
  std::set<std::string> tables;
  for (StreamSpec& spec : plan->specs) {
    spec.tables = ComponentTables(*plan->tree, spec.covered_nodes);
    tables.insert(spec.tables.begin(), spec.tables.end());
    plan->normalized_sql.push_back(NormalizeSql(spec.sql));
    plan->sql_fingerprint += '|';
    plan->sql_fingerprint += plan->normalized_sql.back();
  }
  plan->tables.assign(tables.begin(), tables.end());
  return std::shared_ptr<const PreparedPlan>(std::move(plan));
}

}  // namespace

Result<std::shared_ptr<const PreparedPlan>> Publisher::Prepare(
    std::string_view rxl_text, const PublishOptions& options) {
  // The estimator mutates its request counter; concurrent publishers share
  // it, so planning is serialized (execution is not).
  std::lock_guard<std::mutex> lock(plan_mu_);
  return PrepareLocked(rxl_text, options);
}

Result<std::shared_ptr<const PreparedPlan>> Publisher::PrepareLocked(
    std::string_view rxl_text, const PublishOptions& options) {
  SILK_ASSIGN_OR_RETURN(ViewTree built, BuildViewTree(rxl_text));
  auto tree = std::make_shared<const ViewTree>(std::move(built));

  GreedyPlan greedy_plan;
  uint64_t mask = 0;
  switch (options.strategy) {
    case PlanStrategy::kUnified:
      mask = Partition::Unified(*tree).mask();
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
      SILK_ASSIGN_OR_RETURN(greedy_plan,
                            GeneratePlanGreedy(*tree, &estimator_, params));
      mask = greedy_plan.FullMask();
      break;
    }
  }
  SILK_ASSIGN_OR_RETURN(mask,
                        MakePermissible(*tree, mask, options.style,
                                        options.reduce, options.source));
  return GenerateComponents(std::move(tree), mask, std::move(greedy_plan),
                            options);
}

Publisher::PlanKey::PlanKey(std::string_view rxl_text,
                            const PublishOptions& options)
    : rxl(rxl_text),
      strategy(options.strategy),
      explicit_mask(options.explicit_mask),
      style(options.style),
      reduce(options.reduce),
      distinct_selects(options.distinct_selects),
      supports_outer_join(options.source.supports_outer_join),
      supports_union(options.source.supports_union),
      a(options.greedy.a),
      b(options.greedy.b),
      t1(options.greedy.t1),
      t2(options.greedy.t2) {}

std::shared_ptr<const PreparedPlan> Publisher::FindPlan(
    const PlanKey& key) const {
  std::lock_guard<std::mutex> lock(plans_mu_);
  auto it = plans_.find(key);
  return it != plans_.end() ? it->second : nullptr;
}

Result<std::shared_ptr<const PreparedPlan>> Publisher::PrepareCached(
    std::string_view rxl_text, const PublishOptions& options, bool* hit) {
  // For the publisher's lifetime a plan is a pure function of its key: the
  // statistics were collected at construction and the catalog only grows.
  PlanKey key(rxl_text, options);
  if (std::shared_ptr<const PreparedPlan> stored = FindPlan(key)) {
    *hit = true;
    return stored;
  }
  // Misses plan one at a time. A request that raced another for the same
  // view finds that plan on this second look instead of planning again.
  std::lock_guard<std::mutex> planning(plan_mu_);
  if (std::shared_ptr<const PreparedPlan> stored = FindPlan(key)) {
    *hit = true;
    return stored;
  }
  SILK_ASSIGN_OR_RETURN(std::shared_ptr<const PreparedPlan> plan,
                        PrepareLocked(rxl_text, options));
  // Inserts happen only here, under plan_mu_ and after the second look, so
  // the key is new. Errors are not stored.
  std::lock_guard<std::mutex> lock(plans_mu_);
  auto inserted = plans_.emplace(std::move(key), plan).first;
  plan_order_.push_back(&inserted->first);
  if (plan_order_.size() > kMaxPreparedPlans) {
    // A publish still running the evicted plan holds its own reference.
    plans_.erase(plans_.find(*plan_order_.front()));
    plan_order_.pop_front();
  }
  return plan;
}

size_t Publisher::prepared_plans() const {
  std::lock_guard<std::mutex> lock(plans_mu_);
  return plans_.size();
}

ComponentStep::ComponentStep(const ViewTree& tree, const SqlGenerator& gen,
                             const PublishOptions& options,
                             engine::SqlExecutor* connection,
                             CancelToken* cancel, bool has_deadline,
                             std::chrono::steady_clock::time_point deadline,
                             bool bind_whole)
    : tree_(tree),
      gen_(gen),
      options_(options),
      connection_(connection),
      bind_whole_(bind_whole),
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
  item.outcome.tables = spec.tables;
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
    item.span->Annotate("sql", NormalizeSql(spec.sql));
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
  return std::make_unique<engine::TupleStream>(
      entry->schema, entry->bytes, entry->num_tuples, entry->row_index);
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
  // The engine's result is handed over as Rows (DESIGN.md §10), so the
  // bind below is the only pass that writes its cells.
  auto result = [&] {
    obs::ScopedCurrentSpan scope(&query_span);
    return resilient.ExecuteRows(sql, options_.query_timeout_ms, nullptr);
  }();
  double query_elapsed = query_timer.ElapsedMillis();
  const engine::QueryExecution& executed = resilient.report().queries.back();
  item->outcome.attempts = static_cast<size_t>(executed.attempts);
  item->outcome.retries = resilient.report().total_retries();
  {
    std::lock_guard<std::mutex> lock(mu_);
    report_.queries.push_back(executed);
    sql_.push_back(sql);
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
  const bool admit =
      options_.result_cache != nullptr && !item->spec.cache_key.empty();
  if (!admit && !bind_whole_) {
    // The batch binds in windows as the tagger reads; the publisher ends
    // the span with their time after the tag.
    if (bind_span.recording()) {
      item->bind_span = std::make_shared<obs::SpanHandle>(std::move(bind_span));
    }
    std::lock_guard<std::mutex> lock(mu_);
    query_ms_ += query_elapsed;
    return std::make_unique<engine::TupleStream>(
        engine::TupleStream::Windowed(std::move(result).value()));
  }
  Timer bind_timer;
  auto stream =
      std::make_unique<engine::TupleStream>(std::move(result).value());
  double bind_elapsed = bind_timer.ElapsedMillis();
  bind_span.AnnotateMs("ms", bind_elapsed);
  bind_span.End();

  if (admit) {
    engine::CacheEntry entry;
    entry.schema = stream->schema();
    entry.bytes = stream->shared_wire();
    entry.row_index = stream->row_index();
    entry.num_tuples = stream->num_tuples();
    options_.result_cache->Insert(item->spec.cache_key, std::move(entry));
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
  components_.push_back(std::move(item.outcome));
  done_.push_back(ComponentStream{std::move(item.spec), std::move(stream),
                                  std::move(item.bind_span)});
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
          std::make_unique<engine::TupleStream>(engine::Relation{}), nullptr});
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
    spec->tables = ComponentTables(tree_, *part);
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
  // Under a pooled strategy query/bind time is summed across workers:
  // aggregate server time, which can exceed the plan's wall-clock time.
  // Windowed streams add their bind time and wire bytes after the tag.
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

template <typename PrepareFn>
Result<PublishResult> Publisher::Run(const PublishOptions& options,
                                     std::ostream* out, PrepareFn prepare) {
  // A publish in flight holds a core lane, so concurrent publishes leave
  // the range-parallel tagger no idle core to borrow.
  BusyLane busy;
  // The plan span starts before planning, so the trace shows what obtaining
  // the plan cost and whether the cache served it.
  obs::SpanHandle plan_span =
      obs::Tracer::Child(options.tracer, options.parent_span, "plan");
  PublishResult result;
  PlanMetrics& metrics = result.metrics;
  std::shared_ptr<const PreparedPlan> plan;
  {
    obs::SpanHandle plan_phase =
        obs::Tracer::Child(options.tracer, &plan_span, "phase:plan");
    Timer plan_timer;
    SILK_ASSIGN_OR_RETURN(plan, prepare(&metrics.plan_cached));
    metrics.plan_ms = plan_timer.ElapsedMillis();
    plan_phase.AnnotateMs("ms", metrics.plan_ms);
    plan_phase.Annotate("cache", metrics.plan_cached ? "hit" : "miss");
  }
  if (options.metrics_registry != nullptr) {
    obs::MetricsRegistry* reg = options.metrics_registry;
    reg->histogram("silkroute_phase_plan_us")
        ->RecordMicros(metrics.plan_ms * 1000.0);
    // Both series always exist, so a stats table shows a zero.
    reg->counter("silkroute_plan_cache_hits_total")
        ->Add(metrics.plan_cached ? 1 : 0);
    reg->counter("silkroute_plan_cache_misses_total")
        ->Add(metrics.plan_cached ? 0 : 1);
  }
  result.greedy_plan = plan->greedy_plan;
  metrics.mask = plan->mask;
  metrics.num_streams = plan->specs.size();
  plan_span.AnnotateMs("plan_ms", metrics.plan_ms);
  plan_span.AnnotateCount("mask", plan->mask);
  plan_span.AnnotateCount("num_components", plan->specs.size());
  // Each publish keys and consumes its own copies of the specs.
  std::vector<StreamSpec> specs = plan->specs;

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
    const std::vector<std::string>& table_list = plan->tables;
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
      for (size_t i = 0; i < specs.size(); ++i) {
        engine::TableVersionVector sub;
        for (const std::string& t : specs[i].tables) {
          auto it = std::lower_bound(
              versions.begin(), versions.end(), t,
              [](const auto& pair, const std::string& name) {
                return pair.first < name;
              });
          if (it != versions.end() && it->first == t) sub.push_back(*it);
        }
        specs[i].cache_key =
            engine::ResultCache::FragmentKey(plan->normalized_sql[i], sub);
      }
      // The document fingerprint pins everything that shapes the XML: the
      // partition, every component's SQL (style/reduce/distinct are all
      // reflected there), and the tagging options.
      std::string fingerprint = std::to_string(plan->mask);
      fingerprint += '|';
      fingerprint += options.document_element;
      fingerprint += options.pretty ? "|p" : "|c";
      fingerprint += plan->sql_fingerprint;
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
        return result;
      }
    }
  }

  // 1. Produce the component streams through the configured strategy.
  SequentialExecution sequential(db_);
  PlanExecution* execution =
      options.execution != nullptr ? options.execution : &sequential;
  SILK_ASSIGN_OR_RETURN(
      std::vector<ComponentStream> done,
      execution->Run(*plan->tree, plan->gen, std::move(specs), options,
                     &metrics, &plan_span));
  if (metrics.timed_out) return result;  // partial metrics, no document
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
  Tagger tagger(plan->tree.get(), &writer,
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
  tag_span.AnnotateCount("ranges", tagger.stats().ranges);
  tag_span.AnnotateCount("threads", tagger.stats().threads);
  tag_span.AnnotateCount("byte_key_ranges", tagger.stats().byte_key_ranges);
  tag_span.AnnotateCount("windows", tagger.stats().windows);
  tag_span.AnnotateMs("bind_ms", tagger.stats().bind_ms);
  tag_span.AnnotateMs("cut_ms", tagger.stats().cut_ms);
  tag_span.End();
  metrics.xml_bytes = writer.bytes_written();
  metrics.xml_flushes = writer.flushes();
  metrics.tagger = tagger.stats();
  // The windows bound inside the tag: each component's time, summed over
  // the ranges, on its phase:bind span and in bind_ms; and every
  // component's bytes, now that all are bound.
  for (size_t i = 0; i < done.size(); ++i) {
    const Tagger::StreamBind& bound = tagger.bound()[i];
    metrics.bind_ms += bound.bind_ms;
    metrics.wire_bytes += bound.wire_bytes;
    if (done[i].bind_span != nullptr) {
      done[i].bind_span->AnnotateMs("ms", bound.bind_ms);
      done[i].bind_span->End();
    }
  }

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
  return result;
}

Result<PublishResult> Publisher::Publish(std::string_view rxl_text,
                                         const PublishOptions& options,
                                         std::ostream* out) {
  return Run(options, out, [&](bool* hit) {
    return PrepareCached(rxl_text, options, hit);
  });
}

Result<PlanMetrics> Publisher::ExecutePlan(const ViewTree& tree,
                                           uint64_t mask,
                                           const PublishOptions& options,
                                           std::ostream* out) {
  // The caller's tree outlives the call: share it without owning it.
  std::shared_ptr<const ViewTree> borrowed(std::shared_ptr<void>(), &tree);
  SILK_ASSIGN_OR_RETURN(PublishResult result,
                        Run(options, out, [&](bool*) {
                          return GenerateComponents(borrowed, mask, {},
                                                    options);
                        }));
  return std::move(result.metrics);
}

}  // namespace silkroute::core
