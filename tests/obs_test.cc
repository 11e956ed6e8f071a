// Tests for the observability layer (src/obs/ and its wiring): span-id
// determinism and inert handles, histogram bucket/percentile math, the
// well-formedness of span trees emitted by real (serial and degraded
// service) publishes including the 1%-accurate phase reproduction, the
// consistency of MetricsRegistry::Snapshot() while 8 concurrent publishers
// are writing (the TSan target), and the Prometheus text exposition
// against a golden file.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "engine/fault_injection.h"
#include "engine/result_cache.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "service/publishing_service.h"
#include "silkroute/publisher.h"
#include "silkroute/queries.h"
#include "tests/test_util.h"

namespace silkroute::obs {
namespace {

namespace testutil = core::testutil;

const std::string* FindAnnotation(const Span& span, const std::string& key) {
  for (const auto& a : span.annotations) {
    if (a.key == key) return &a.value;
  }
  return nullptr;
}

/// Structural invariants every finished trace must satisfy: unique
/// non-empty ids, monotone timestamps, parents present, child ids formed
/// as `<parent>.<ordinal>`, and children starting no earlier than their
/// parent. (A child may END after its parent: degradation follow-ups
/// outlive the component span they replace.)
std::map<std::string, const Span*> ExpectWellFormedTree(
    const std::vector<Span>& spans) {
  std::map<std::string, const Span*> by_id;
  for (const auto& s : spans) {
    EXPECT_FALSE(s.id.empty());
    EXPECT_FALSE(s.name.empty()) << "span " << s.id;
    EXPECT_GE(s.end_ns, s.start_ns) << "span " << s.id;
    EXPECT_TRUE(by_id.emplace(s.id, &s).second) << "duplicate id " << s.id;
  }
  for (const auto& s : spans) {
    if (s.parent_id.empty()) {
      EXPECT_EQ(s.id.find('.'), std::string::npos)
          << "root with dotted id " << s.id;
      continue;
    }
    auto parent = by_id.find(s.parent_id);
    EXPECT_NE(parent, by_id.end()) << "missing parent of " << s.id;
    if (parent == by_id.end()) continue;
    const std::string prefix = s.parent_id + ".";
    EXPECT_EQ(s.id.rfind(prefix, 0), 0u)
        << "id " << s.id << " not under parent " << s.parent_id;
    if (s.id.rfind(prefix, 0) != 0) continue;
    EXPECT_EQ(s.id.find('.', prefix.size()), std::string::npos)
        << "id " << s.id << " skips a generation under " << s.parent_id;
    EXPECT_GE(s.start_ns, parent->second->start_ns)
        << "child " << s.id << " starts before parent " << s.parent_id;
  }
  return by_id;
}

/// Sums the "ms" annotations of `phase_name` spans below `plan` (id-prefix
/// descendants) and checks them against `expected` with the trace_check
/// tolerance: 1% relative plus %.3f rounding slack per term.
void ExpectPhaseSum(const std::vector<Span>& spans, const Span& plan,
                    const std::string& phase_name, double expected) {
  const std::string prefix = plan.id + ".";
  double sum = 0;
  size_t n = 0;
  for (const auto& s : spans) {
    if (s.name != phase_name || s.id.rfind(prefix, 0) != 0) continue;
    const std::string* ms = FindAnnotation(s, "ms");
    ASSERT_NE(ms, nullptr) << phase_name << " span " << s.id << " lacks ms";
    sum += std::atof(ms->c_str());
    ++n;
  }
  EXPECT_NEAR(sum, expected,
              0.01 * expected + 0.001 * static_cast<double>(n + 1))
      << phase_name << " over plan " << plan.id;
}

// ---------------------------------------------------------------------------
// Tracer core.

TEST(TracerTest, AssignsDeterministicHierarchicalIds) {
  CollectingSink sink;
  Tracer tracer(&sink);
  {
    SpanHandle r1 = tracer.StartRoot("request");
    SpanHandle p1 = tracer.StartChild(&r1, "plan");
    SpanHandle c1 = tracer.StartChild(&p1, "component");
    SpanHandle p2 = tracer.StartChild(&r1, "plan");
    SpanHandle r2 = tracer.StartRoot("request");
    EXPECT_EQ(r1.id(), "1");
    EXPECT_EQ(p1.id(), "1.1");
    EXPECT_EQ(c1.id(), "1.1.1");
    EXPECT_EQ(p2.id(), "1.2");
    EXPECT_EQ(r2.id(), "2");
    EXPECT_TRUE(r1.recording());
  }
  EXPECT_EQ(sink.size(), 5u);
  ExpectWellFormedTree(sink.spans());
}

TEST(TracerTest, NullTracerYieldsInertHandles) {
  SpanHandle root = Tracer::Root(nullptr, "request");
  EXPECT_FALSE(root.recording());
  root.Annotate("k", "v");
  root.AnnotateMs("ms", 1.5);
  SpanHandle child = Tracer::Child(nullptr, &root, "plan");
  EXPECT_FALSE(child.recording());
  child.End();
  root.End();  // idempotent no-ops; must not crash
}

TEST(TracerTest, EndIsIdempotentAndDestructionEnds) {
  CollectingSink sink;
  Tracer tracer(&sink);
  SpanHandle a = tracer.StartRoot("a");
  a.End();
  a.End();
  EXPECT_EQ(sink.size(), 1u);
  { SpanHandle b = tracer.StartRoot("b"); }  // ends via destructor
  EXPECT_EQ(sink.size(), 2u);
}

// ---------------------------------------------------------------------------
// Metrics core.

TEST(MetricsTest, HistogramBucketsCoverEverySample) {
  Histogram h;
  const uint64_t samples[] = {0, 1, 2, 3, 5, 8, 100, 1000, 4096};
  uint64_t total = 0;
  for (uint64_t v : samples) {
    h.Record(v);
    total += v;
  }
  HistogramSnapshot snap = h.Snapshot();
  EXPECT_EQ(snap.count, std::size(samples));
  EXPECT_EQ(snap.sum, total);
  EXPECT_EQ(snap.min, 0u);
  EXPECT_EQ(snap.max, 4096u);
  uint64_t bucket_total = 0;
  for (uint64_t b : snap.buckets) bucket_total += b;
  EXPECT_EQ(bucket_total, snap.count);
  for (double p : {0.5, 0.95, 0.99}) {
    double q = snap.Percentile(p);
    EXPECT_GE(q, static_cast<double>(snap.min));
    EXPECT_LE(q, static_cast<double>(snap.max));
  }
}

TEST(MetricsTest, PercentileOfConstantSamplesIsExact) {
  Histogram h;
  for (int i = 0; i < 32; ++i) h.Record(7);  // bucket [4,8) upper bound 7
  HistogramSnapshot snap = h.Snapshot();
  EXPECT_DOUBLE_EQ(snap.Percentile(0.5), 7.0);
  EXPECT_DOUBLE_EQ(snap.Percentile(0.99), 7.0);
}

TEST(MetricsTest, LabeledNameFoldsLabels) {
  EXPECT_EQ(LabeledName("silkroute_breaker_trips_total", {{"table", "Orders"}}),
            "silkroute_breaker_trips_total{table=\"Orders\"}");
  EXPECT_EQ(LabeledName("x", {{"a", "1"}, {"b", "2"}}),
            "x{a=\"1\",b=\"2\"}");
}

TEST(MetricsTest, RegistryPointersAreStable) {
  MetricsRegistry registry;
  Counter* c = registry.counter("c");
  c->Add(3);
  EXPECT_EQ(registry.counter("c"), c);
  EXPECT_EQ(registry.Snapshot().counters.at("c"), 3u);
}

// ---------------------------------------------------------------------------
// Traced publishes: span-tree shape and phase reproduction.

TEST(TracedPublishTest, SerialPlanSpanTreeReproducesPhaseTotals) {
  auto db = testutil::MakeTinyTpch();
  core::Publisher publisher(db.get());
  auto tree = publisher.BuildViewTree(core::Query1Rxl());
  ASSERT_TRUE(tree.ok()) << tree.status();

  CollectingSink sink;
  Tracer tracer(&sink);
  MetricsRegistry registry;
  core::PublishOptions options;
  options.document_element = "suppliers";
  options.tracer = &tracer;
  options.metrics_registry = &registry;
  std::ostringstream out;
  auto metrics = publisher.ExecutePlan(*tree, 0x1E8, options, &out);
  ASSERT_TRUE(metrics.ok()) << metrics.status();

  std::vector<Span> spans = sink.spans();
  auto by_id = ExpectWellFormedTree(spans);

  const Span* plan = nullptr;
  size_t components = 0;
  for (const auto& s : spans) {
    if (s.name == "plan") {
      EXPECT_EQ(plan, nullptr) << "more than one plan span";
      plan = &s;
    }
    if (s.name == "component") {
      ++components;
      EXPECT_NE(FindAnnotation(s, "nodes"), nullptr) << s.id;
      EXPECT_NE(FindAnnotation(s, "tables"), nullptr) << s.id;
    }
  }
  ASSERT_NE(plan, nullptr);
  EXPECT_TRUE(plan->parent_id.empty());  // no service request above it
  EXPECT_EQ(components, metrics->num_streams);

  // The trace alone reproduces the PlanMetrics phase split.
  ExpectPhaseSum(spans, *plan, "phase:plan", metrics->plan_ms);
  ExpectPhaseSum(spans, *plan, "phase:query", metrics->query_ms);
  ExpectPhaseSum(spans, *plan, "phase:bind", metrics->bind_ms);
  ExpectPhaseSum(spans, *plan, "phase:tag", metrics->tag_ms);
  // A document this small is tagged in one root-instance range.
  for (const auto& s : spans) {
    if (s.name != "phase:tag") continue;
    const std::string* ranges = FindAnnotation(s, "ranges");
    ASSERT_NE(ranges, nullptr);
    EXPECT_EQ(*ranges, "1");
    EXPECT_EQ(metrics->tagger.ranges, 1u);
  }

  MetricsSnapshot snap = registry.Snapshot();
  EXPECT_EQ(snap.counters.at("silkroute_plans_total"), 1u);
  EXPECT_EQ(snap.histograms.at("silkroute_phase_query_us").count, 1u);
  // ExecutePlan runs an unstored plan: one miss, no hit.
  EXPECT_EQ(snap.histograms.at("silkroute_phase_plan_us").count, 1u);
  EXPECT_EQ(snap.counters.at("silkroute_plan_cache_misses_total"), 1u);
  EXPECT_EQ(snap.counters.at("silkroute_plan_cache_hits_total"), 0u);
}

TEST(TracedPublishTest, PlanPhaseReportsCacheHitsUnderThePlanSpan) {
  auto db = testutil::MakeTinyTpch();
  core::Publisher publisher(db.get());
  CollectingSink sink;
  Tracer tracer(&sink);
  MetricsRegistry registry;
  core::PublishOptions options;
  options.document_element = "suppliers";
  options.tracer = &tracer;
  options.metrics_registry = &registry;
  std::vector<double> plan_ms;
  for (int i = 0; i < 2; ++i) {
    std::ostringstream out;
    auto result = publisher.Publish(core::Query1Rxl(), options, &out);
    ASSERT_TRUE(result.ok()) << result.status();
    EXPECT_EQ(result->metrics.plan_cached, i == 1);
    plan_ms.push_back(result->metrics.plan_ms);
  }

  std::vector<Span> spans = sink.spans();
  ExpectWellFormedTree(spans);
  std::vector<const Span*> plans;
  for (const auto& s : spans) {
    if (s.name == "plan") plans.push_back(&s);
  }
  ASSERT_EQ(plans.size(), 2u);
  for (size_t i = 0; i < plans.size(); ++i) {
    const Span* phase = nullptr;
    for (const auto& s : spans) {
      if (s.name == "phase:plan" && s.parent_id == plans[i]->id) {
        EXPECT_EQ(phase, nullptr) << "more than one phase:plan";
        phase = &s;
      }
    }
    ASSERT_NE(phase, nullptr);
    const std::string* cache = FindAnnotation(*phase, "cache");
    ASSERT_NE(cache, nullptr);
    EXPECT_EQ(*cache, i == 0 ? "miss" : "hit");
    // The plan span opens before planning, so planning nests inside it.
    EXPECT_GE(phase->start_ns, plans[i]->start_ns);
    ExpectPhaseSum(spans, *plans[i], "phase:plan", plan_ms[i]);
  }

  MetricsSnapshot snap = registry.Snapshot();
  EXPECT_EQ(snap.counters.at("silkroute_plan_cache_misses_total"), 1u);
  EXPECT_EQ(snap.counters.at("silkroute_plan_cache_hits_total"), 1u);
  EXPECT_EQ(snap.histograms.at("silkroute_phase_plan_us").count, 2u);
}

TEST(TracedPublishTest, DegradedFollowUpsNestUnderFailedComponent) {
  auto db = testutil::MakeTinyTpch();
  engine::DatabaseExecutor db_executor(db.get());
  engine::FaultPolicy policy;
  engine::FaultRule rule;
  rule.table = "PartSupp";
  rule.fail = true;
  policy.rules.push_back(rule);
  engine::FaultInjectingExecutor faulty(&db_executor, policy);
  faulty.set_sleep_fn([](double) {});

  CollectingSink sink;
  Tracer tracer(&sink);
  MetricsRegistry registry;
  service::ServiceOptions options;
  options.workers = 2;
  options.executor = &faulty;
  options.retry.sleep_fn = [](double) {};
  options.tracer = &tracer;
  options.metrics_registry = &registry;
  service::PublishingService service(db.get(), options);

  service::ServiceRequest request;
  request.rxl = std::string(core::Query1Rxl());
  request.options.document_element = "suppliers";
  service::ServiceResponse response = service.Publish(std::move(request));
  ASSERT_TRUE(response.status.ok()) << response.status;

  std::vector<Span> spans = sink.spans();
  auto by_id = ExpectWellFormedTree(spans);

  // Degradation shows up in the trace as component spans nested under the
  // failed component span...
  bool nested_component = false;
  for (const auto& s : spans) {
    if (s.name != "component" || s.parent_id.empty()) continue;
    auto parent = by_id.find(s.parent_id);
    ASSERT_NE(parent, by_id.end());
    if (parent->second->name == "component") nested_component = true;
  }
  EXPECT_TRUE(nested_component);

  // ...and in the per-component outcomes as a degraded entry attributed to
  // the sick table.
  const auto& components = response.result.metrics.components;
  ASSERT_FALSE(components.empty());
  bool degraded_on_sick_table = false;
  for (const auto& outcome : components) {
    if (!outcome.degraded) continue;
    for (const auto& table : outcome.tables) {
      if (table == "PartSupp") degraded_on_sick_table = true;
    }
  }
  EXPECT_TRUE(degraded_on_sick_table);
  EXPECT_GT(response.result.metrics.degraded_components, 0u);
}

// ---------------------------------------------------------------------------
// Concurrent snapshot consistency (the TSan target): 8 publishers drive
// the service while a reader polls Snapshot() and the trace sink. Mid-run
// every per-series statistic must be monotone across polls; at quiescence
// the full cross-field invariants must hold.

TEST(ObsConcurrencyTest, SnapshotsStayConsistentUnderConcurrentPublishers) {
  auto db = testutil::MakeTinyTpch();
  CollectingSink sink;
  Tracer tracer(&sink);
  MetricsRegistry registry;
  service::ServiceOptions options;
  options.workers = 4;
  options.tracer = &tracer;
  options.metrics_registry = &registry;
  service::PublishingService service(db.get(), options);

  service::ServiceRequest prototype;
  prototype.rxl = std::string(core::Query1Rxl());
  prototype.options.document_element = "suppliers";

  std::atomic<bool> done{false};
  std::thread reader([&] {
    std::map<std::string, uint64_t> last_counts;
    std::map<std::string, uint64_t> last_counters;
    while (!done.load(std::memory_order_acquire)) {
      MetricsSnapshot snap = registry.Snapshot();
      for (const auto& [name, value] : snap.counters) {
        auto it = last_counters.find(name);
        if (it != last_counters.end()) {
          EXPECT_GE(value, it->second) << "counter went backwards: " << name;
        }
        last_counters[name] = value;
      }
      for (const auto& [name, h] : snap.histograms) {
        auto it = last_counts.find(name);
        if (it != last_counts.end()) {
          EXPECT_GE(h.count, it->second) << "histogram shrank: " << name;
        }
        last_counts[name] = h.count;
      }
      for (const Span& s : sink.spans()) {
        EXPECT_GE(s.end_ns, s.start_ns) << s.id;  // only finished spans
      }
      std::this_thread::yield();
    }
  });

  std::vector<service::ServiceRequest> batch(8, prototype);
  std::vector<service::ServiceResponse> responses =
      service.PublishAll(std::move(batch));
  done.store(true, std::memory_order_release);
  reader.join();

  for (const auto& response : responses) {
    EXPECT_TRUE(response.status.ok()) << response.status;
  }

  // Quiescent: the full invariants hold exactly.
  MetricsSnapshot snap = registry.Snapshot();
  for (const auto& [name, h] : snap.histograms) {
    uint64_t bucket_total = 0;
    for (uint64_t b : h.buckets) bucket_total += b;
    EXPECT_EQ(bucket_total, h.count) << name;
    if (h.count > 0) {
      EXPECT_GE(h.max, h.min) << name;
      EXPECT_GE(h.sum, h.min * h.count) << name;
      EXPECT_LE(h.sum, h.max * h.count) << name;
    }
  }
  EXPECT_EQ(snap.counters.at("silkroute_requests_completed_total"), 8u);
  EXPECT_EQ(snap.histograms.at("silkroute_request_us").count, 8u);

  // The final trace is one well-formed tree per request.
  std::vector<Span> spans = sink.spans();
  ExpectWellFormedTree(spans);
  size_t roots = 0;
  for (const auto& s : spans) {
    if (s.parent_id.empty()) {
      ++roots;
      EXPECT_EQ(s.name, "request");
    }
  }
  EXPECT_EQ(roots, 8u);
}

// ---------------------------------------------------------------------------
// Exporters.

TEST(ExportTest, TraceJsonlEmitsOneLinePerSpan) {
  CollectingSink sink;
  Tracer tracer(&sink);
  {
    SpanHandle root = tracer.StartRoot("request");
    SpanHandle child = tracer.StartChild(&root, "plan");
    child.Annotate("quote", "a\"b\\c");
  }
  std::ostringstream out;
  WriteTraceJsonl(out, sink.spans());
  std::istringstream lines(out.str());
  std::string line;
  size_t n = 0;
  while (std::getline(lines, line)) {
    ++n;
    EXPECT_EQ(line.front(), '{');
    EXPECT_EQ(line.back(), '}');
  }
  EXPECT_EQ(n, 2u);
  EXPECT_NE(out.str().find("a\\\"b\\\\c"), std::string::npos);
}

TEST(ExportTest, PrometheusTextMatchesGoldenFile) {
  // A hand-built registry with fixed values: the exposition must be
  // byte-stable (sorted series, fixed formatting) across runs.
  MetricsRegistry registry;
  registry.counter("silkroute_requests_completed_total")->Add(5);
  registry
      .counter(LabeledName("silkroute_breaker_trips_total",
                           {{"table", "Orders"}}))
      ->Add(2);
  registry
      .counter(LabeledName("silkroute_breaker_trips_total",
                           {{"table", "PartSupp"}}))
      ->Add(1);
  // The federation's per-backend dimension: breaker series keyed by
  // backend instead of table, plus the wire-level client counters.
  registry
      .counter(LabeledName("silkroute_breaker_trips_total",
                           {{"backend", "east"}}))
      ->Add(1);
  registry
      .counter(LabeledName("silkroute_federation_failovers_total",
                           {{"backend", "east"}}))
      ->Add(2);
  registry
      .counter(LabeledName("silkroute_net_reconnects_total",
                           {{"backend", "east"}}))
      ->Add(3);
  registry
      .counter(LabeledName("silkroute_net_decode_errors_total",
                           {{"backend", "east"}}))
      ->Add(1);
  // The replica dimension (DESIGN.md §13): two-label series keyed
  // (backend, replica), plus the per-backend retry-budget counter.
  registry
      .gauge(LabeledName("silkroute_replica_in_flight",
                         {{"backend", "east"}, {"replica", "r0"}}))
      ->Set(2);
  registry
      .gauge(LabeledName("silkroute_replica_ewma_ms",
                         {{"backend", "east"}, {"replica", "r0"}}))
      ->Set(12);
  registry
      .counter(LabeledName("silkroute_replica_ejections_total",
                           {{"backend", "east"}, {"replica", "r1"}}))
      ->Add(1);
  registry
      .counter(LabeledName("silkroute_replica_hedges_fired_total",
                           {{"backend", "east"}, {"replica", "r1"}}))
      ->Add(4);
  registry
      .counter(LabeledName("silkroute_replica_hedges_won_total",
                           {{"backend", "east"}, {"replica", "r1"}}))
      ->Add(3);
  registry
      .counter(LabeledName("silkroute_replica_hedges_cancelled_total",
                           {{"backend", "east"}, {"replica", "r0"}}))
      ->Add(3);
  registry
      .counter(LabeledName("silkroute_replica_retry_budget_exhausted_total",
                           {{"backend", "east"}}))
      ->Add(2);
  registry.gauge("silkroute_pool_queue_depth")->Set(3);
  // The scrape-endpoint dimension (DESIGN.md §14): the EngineServer's
  // plain-named counters/gauge.
  registry.counter("silkroute_server_requests_total")->Add(7);
  registry.counter("silkroute_server_errors_total")->Add(1);
  registry.counter("silkroute_server_frames_in_total")->Add(9);
  registry.counter("silkroute_server_frames_out_total")->Add(21);
  registry.gauge("silkroute_server_connections")->Set(2);
  // The result-cache dimension (DESIGN.md §15): hit/miss/eviction/splice
  // counters and residency gauges, written through a real ResultCache so
  // the mirror path is the one under test. One insert, one hit, one miss,
  // two recorded splices; all byte values are deterministic (packed key
  // length + entry payload + fixed overhead).
  engine::ResultCache cache(engine::ResultCache::Options{
      /*budget_bytes=*/1 << 20, /*shards=*/1, &registry});
  engine::CacheEntry cache_entry;
  cache_entry.bytes = std::make_shared<const std::string>("<x/>");
  cache_entry.num_tuples = 1;
  const std::string cache_key = engine::ResultCache::FragmentKey(
      "select s from Supplier", {{"Supplier", 3}});
  cache.Insert(cache_key, std::move(cache_entry));
  ASSERT_NE(cache.Lookup(cache_key), nullptr);
  ASSERT_EQ(cache.Lookup(engine::ResultCache::FragmentKey(
                "select s from Supplier", {{"Supplier", 4}})),
            nullptr);
  cache.RecordSplices(2);
  Histogram* h = registry.histogram("silkroute_request_us");
  for (uint64_t v : {0u, 1u, 2u, 3u, 5u, 8u, 100u, 1000u, 4096u}) {
    h->Record(v);
  }

  std::ostringstream rendered;
  WritePrometheusText(rendered, registry.Snapshot());

  const std::string golden_path =
      std::string(SILK_TEST_SOURCE_DIR) + "/golden/prometheus.txt";
  if (std::getenv("SILK_REGEN_GOLDEN") != nullptr) {
    std::ofstream regen(golden_path);
    ASSERT_TRUE(regen.good()) << "cannot write golden file " << golden_path;
    regen << rendered.str();
    GTEST_SKIP() << "regenerated " << golden_path;
  }
  std::ifstream golden_file(golden_path);
  ASSERT_TRUE(golden_file.good()) << "missing golden file " << golden_path;
  std::ostringstream golden;
  golden << golden_file.rdbuf();
  EXPECT_EQ(rendered.str(), golden.str())
      << "regenerate " << golden_path << " if the exposition format "
      << "changed intentionally";
}

TEST(ExportTest, TraceJsonlEscapesHostileAnnotations) {
  // Annotation values come from SQL text, error messages, and replica
  // names — none of which are guaranteed printable or valid UTF-8. The
  // JSONL export must neutralize all of it: standard escapes for the
  // common controls, \u00xx for the rest, and U+FFFD per invalid byte.
  CollectingSink sink;
  Tracer tracer(&sink);
  {
    SpanHandle root = tracer.StartRoot(std::string("req\x01uest"));
    root.Annotate("newline", "a\nb\rc\td");
    root.Annotate("invalid_utf8", std::string("x\x80y"));
    root.Annotate("overlong", std::string("\xC0\xAF"));  // overlong '/'
    root.Annotate("valid_utf8", "caf\xC3\xA9");
    root.Annotate("bell", std::string("ding\x07"));
  }
  std::ostringstream out;
  WriteTraceJsonl(out, sink.spans());
  const std::string text = out.str();
  EXPECT_NE(text.find("req\\u0001uest"), std::string::npos);
  EXPECT_NE(text.find("a\\nb\\rc\\td"), std::string::npos);
  EXPECT_NE(text.find("x\\ufffdy"), std::string::npos);
  EXPECT_NE(text.find("\\ufffd\\ufffd"), std::string::npos);
  EXPECT_NE(text.find("caf\xC3\xA9"), std::string::npos);  // é passes through
  EXPECT_NE(text.find("ding\\u0007"), std::string::npos);
  // No raw control byte survives into the stream (newlines only separate
  // the JSONL records themselves).
  for (char c : text) {
    EXPECT_TRUE(c == '\n' || static_cast<unsigned char>(c) >= 0x20)
        << "raw control byte " << static_cast<int>(c) << " in export";
  }
}

TEST(MetricsTest, LabelValuesEscapeHostileCharacters) {
  EXPECT_EQ(EscapeLabelValue("plain"), "plain");
  EXPECT_EQ(EscapeLabelValue("a\\b"), "a\\\\b");
  EXPECT_EQ(EscapeLabelValue("say \"hi\""), "say \\\"hi\\\"");
  // Both newline flavors collapse to the two-character sequence \n — a
  // value must never break the one-line-per-sample exposition format.
  EXPECT_EQ(EscapeLabelValue("a\nb"), "a\\nb");
  EXPECT_EQ(EscapeLabelValue("a\r\nb"), "a\\n\\nb");
  EXPECT_EQ(LabeledName("silkroute_test_total", {{"path", "a\\b\"c\nd"}}),
            "silkroute_test_total{path=\"a\\\\b\\\"c\\nd\"}");
}

TEST(ExportTest, StatsTableListsEverySeries) {
  MetricsRegistry registry;
  registry.counter("silkroute_plans_total")->Add(4);
  registry.gauge("silkroute_pool_queue_depth")->Set(1);
  registry.histogram("silkroute_request_us")->Record(250);
  std::ostringstream out;
  WriteStatsTable(out, registry.Snapshot());
  EXPECT_NE(out.str().find("silkroute_plans_total"), std::string::npos);
  EXPECT_NE(out.str().find("silkroute_pool_queue_depth"), std::string::npos);
  EXPECT_NE(out.str().find("silkroute_request_us"), std::string::npos);
}

}  // namespace
}  // namespace silkroute::obs
