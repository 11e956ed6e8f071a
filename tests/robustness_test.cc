// Edge-of-domain tests for the full pipeline: empty databases, markup
// characters in data, deep and wide view trees, zero-match subviews,
// publisher option combinations, timeout propagation, and — with the
// fault-injecting source — retry, degradation, and budget behaviour.
#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/timer.h"
#include "engine/fault_injection.h"
#include "engine/resilient_executor.h"
#include "engine/result_cache.h"
#include "silkroute/partition.h"
#include "silkroute/publisher.h"
#include "silkroute/queries.h"
#include "sql/ddl.h"
#include "tests/test_util.h"
#include "tpch/schema.h"
#include "xml/reader.h"

namespace silkroute::core {
namespace {

using testutil::MakeTinyTpch;

std::string PublishOrDie(Publisher* publisher, std::string_view rxl,
                         const PublishOptions& options) {
  std::ostringstream out;
  auto result = publisher->Publish(rxl, options, &out);
  EXPECT_TRUE(result.ok()) << result.status();
  return out.str();
}

TEST(RobustnessTest, EmptyDatabaseYieldsEmptyDocument) {
  Database db;
  ASSERT_TRUE(tpch::CreateTpchSchema(&db).ok());  // schema, no rows
  Publisher publisher(&db);
  for (PlanStrategy strategy :
       {PlanStrategy::kFullyPartitioned, PlanStrategy::kUnified,
        PlanStrategy::kGreedy}) {
    PublishOptions options;
    options.strategy = strategy;
    options.document_element = "suppliers";
    std::string xml = PublishOrDie(&publisher, Query1Rxl(), options);
    auto doc = xml::ParseXml(xml);
    ASSERT_TRUE(doc.ok()) << xml;
    EXPECT_EQ((*doc)->NumChildren(), 0u);
  }
}

TEST(RobustnessTest, MarkupCharactersInDataAreEscaped) {
  Database db;
  ASSERT_TRUE(sql::ExecuteDdl(
                  "CREATE TABLE T (k INT PRIMARY KEY, v TEXT)", &db)
                  .ok());
  ASSERT_TRUE(db.Insert("T", Tuple{Value::Int64(1),
                                   Value::String("<a> & \"b\" 'c'")})
                  .ok());
  ASSERT_TRUE(
      db.Insert("T", Tuple{Value::Int64(2), Value::String("]]></done>")})
          .ok());
  Publisher publisher(&db);
  PublishOptions options;
  options.document_element = "doc";
  std::string xml = PublishOrDie(
      &publisher, "from T $t construct <row>$t.v</row>", options);
  // The raw markup must not appear unescaped...
  EXPECT_EQ(xml.find("<a> &"), std::string::npos);
  EXPECT_EQ(xml.find("</done>"), std::string::npos);
  // ...and it must round-trip through the reader.
  auto doc = xml::ParseXml(xml);
  ASSERT_TRUE(doc.ok()) << xml;
  auto rows = (*doc)->Children("row");
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0]->text, "<a> & \"b\" 'c'");
  EXPECT_EQ(rows[1]->text, "]]></done>");
}

TEST(RobustnessTest, DeepChainView) {
  // A 10-level chain of same-scope elements: plans and reduction must cope
  // with maximal depth.
  Database db;
  ASSERT_TRUE(sql::ExecuteDdl(
                  "CREATE TABLE T (k INT PRIMARY KEY, v TEXT)", &db)
                  .ok());
  ASSERT_TRUE(
      db.Insert("T", Tuple{Value::Int64(1), Value::String("x")}).ok());
  std::string rxl = "from T $t construct ";
  for (int i = 0; i < 10; ++i) rxl += "<d" + std::to_string(i) + ">";
  rxl += "$t.v";
  for (int i = 9; i >= 0; --i) rxl += "</d" + std::to_string(i) + ">";

  Publisher publisher(&db);
  auto tree = publisher.BuildViewTree(rxl);
  ASSERT_TRUE(tree.ok()) << tree.status();
  EXPECT_EQ(tree->MaxLevel(), 10);
  std::string reference;
  for (uint64_t mask : {uint64_t{0}, uint64_t{0x1FF}, uint64_t{0xAA}}) {
    PublishOptions options;
    options.document_element = "doc";
    std::ostringstream out;
    auto metrics = publisher.ExecutePlan(*tree, mask, options, &out);
    ASSERT_TRUE(metrics.ok()) << metrics.status();
    if (reference.empty()) {
      reference = out.str();
      EXPECT_NE(reference.find("<d9>x</d9>"), std::string::npos);
    } else {
      EXPECT_EQ(out.str(), reference);
    }
  }
}

TEST(RobustnessTest, WideFanoutView) {
  // 20 parallel blocks under one root: exercises sibling-branch unions and
  // label ordering past single digits.
  Database db;
  ASSERT_TRUE(sql::ExecuteDdl(
                  "CREATE TABLE T (k INT PRIMARY KEY, v TEXT);"
                  "CREATE TABLE U (k INT PRIMARY KEY, w TEXT, tk INT,"
                  " FOREIGN KEY (tk) REFERENCES T(k))",
                  &db)
                  .ok());
  ASSERT_TRUE(
      db.Insert("T", Tuple{Value::Int64(1), Value::String("root")}).ok());
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(db.Insert("U", Tuple{Value::Int64(i), Value::String("u"),
                                     Value::Int64(1)})
                    .ok());
  }
  std::string rxl = "from T $t construct <root>";
  for (int i = 0; i < 20; ++i) {
    rxl += "{ from U $u" + std::to_string(i) + " where $t.k = $u" +
           std::to_string(i) + ".tk construct <c" + std::to_string(i) +
           ">$u" + std::to_string(i) + ".w</c" + std::to_string(i) + "> }";
  }
  rxl += "</root>";
  Database* dbp = &db;
  Publisher publisher(dbp);
  auto tree = publisher.BuildViewTree(rxl);
  ASSERT_TRUE(tree.ok()) << tree.status();
  EXPECT_EQ(tree->num_nodes(), 21u);
  PublishOptions options;
  options.document_element = "doc";
  std::string unified, partitioned;
  {
    options.strategy = PlanStrategy::kUnified;
    unified = PublishOrDie(&publisher, rxl, options);
  }
  {
    options.strategy = PlanStrategy::kFullyPartitioned;
    partitioned = PublishOrDie(&publisher, rxl, options);
  }
  EXPECT_EQ(unified, partitioned);
  auto doc = xml::ParseXml(unified);
  ASSERT_TRUE(doc.ok());
  const xml::XmlNode* root = (*doc)->FirstChild("root");
  ASSERT_NE(root, nullptr);
  // Children arrive in template (label) order: all c0 before any c1, etc.
  EXPECT_EQ(root->NumChildren(), 100u);  // 20 branches x 5 rows
  int last_branch = -1;
  for (const auto& child : root->children) {
    int branch = std::atoi(child->name.c_str() + 1);
    EXPECT_GE(branch, last_branch);
    last_branch = branch;
  }
}

TEST(RobustnessTest, SubviewWithNoMatchesIsEmpty) {
  auto db = MakeTinyTpch(0.001);
  Publisher publisher(db.get());
  PublishOptions options;
  options.document_element = "result";
  std::ostringstream out;
  auto result = publisher.PublishSubview(
      Query1Rxl(), "/supplier[name='no such supplier']", options, &out);
  ASSERT_TRUE(result.ok()) << result.status();
  auto doc = xml::ParseXml(out.str());
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ((*doc)->NumChildren(), 0u);
}

TEST(RobustnessTest, ExecutePlanRejectsOutOfRangeMask) {
  auto db = MakeTinyTpch(0.001);
  Publisher publisher(db.get());
  auto tree = publisher.BuildViewTree(Query1Rxl());
  ASSERT_TRUE(tree.ok());
  PublishOptions options;
  std::ostringstream out;
  EXPECT_EQ(publisher.ExecutePlan(*tree, uint64_t{1} << 60, options, &out)
                .status()
                .code(),
            StatusCode::kOutOfRange);
}

TEST(RobustnessTest, PublisherTimeoutReportsTimedOut) {
  auto db = MakeTinyTpch(0.005);
  Publisher publisher(db.get());
  auto tree = publisher.BuildViewTree(Query1Rxl());
  ASSERT_TRUE(tree.ok());
  PublishOptions options;
  options.query_timeout_ms = 1e-6;
  std::ostringstream out;
  auto metrics =
      publisher.ExecutePlan(*tree, Partition::Unified(*tree).mask(),
                            options, &out);
  ASSERT_TRUE(metrics.ok()) << metrics.status();
  EXPECT_TRUE(metrics->timed_out);
}

TEST(RobustnessTest, DistinctSelectsProduceSameDocument) {
  auto db = MakeTinyTpch(0.002);
  Publisher publisher(db.get());
  PublishOptions plain;
  plain.document_element = "suppliers";
  PublishOptions distinct = plain;
  distinct.distinct_selects = true;
  std::string a = PublishOrDie(&publisher, Query1Rxl(), plain);
  std::string b = PublishOrDie(&publisher, Query1Rxl(), distinct);
  EXPECT_EQ(a, b);
}

TEST(RobustnessTest, MetricsListOnlyTheStatementsSent) {
  // One SQL text per executed component; a publish served from the cache
  // sends nothing and lists nothing.
  auto db = MakeTinyTpch(0.001);
  Publisher publisher(db.get());
  engine::ResultCache cache(engine::ResultCache::Options{});
  PublishOptions options;
  options.document_element = "suppliers";
  options.result_cache = &cache;
  std::ostringstream cold_out;
  auto cold = publisher.Publish(Query1Rxl(), options, &cold_out);
  ASSERT_TRUE(cold.ok()) << cold.status();
  ASSERT_EQ(cold->metrics.sql.size(), cold->metrics.num_streams);
  for (const std::string& sql : cold->metrics.sql) {
    EXPECT_EQ(sql.rfind("select", 0), 0u) << sql;
  }
  std::ostringstream warm_out;
  auto warm = publisher.Publish(Query1Rxl(), options, &warm_out);
  ASSERT_TRUE(warm.ok()) << warm.status();
  EXPECT_TRUE(warm->metrics.served_from_doc_cache);
  EXPECT_TRUE(warm->metrics.sql.empty());
  EXPECT_EQ(warm_out.str(), cold_out.str());
}

TEST(RobustnessTest, NumericValuesRenderCanonically) {
  Database db;
  ASSERT_TRUE(sql::ExecuteDdl(
                  "CREATE TABLE N (k INT PRIMARY KEY, d DOUBLE)", &db)
                  .ok());
  ASSERT_TRUE(
      db.Insert("N", Tuple{Value::Int64(1), Value::Double(2.5)}).ok());
  ASSERT_TRUE(
      db.Insert("N", Tuple{Value::Int64(2), Value::Double(3.0)}).ok());
  Publisher publisher(&db);
  PublishOptions options;
  options.document_element = "doc";
  std::string xml = PublishOrDie(
      &publisher, "from N $n construct <v>$n.d</v>", options);
  EXPECT_NE(xml.find("<v>2.5</v>"), std::string::npos) << xml;
  EXPECT_NE(xml.find("<v>3.0</v>"), std::string::npos) << xml;
}

// ---------------------------------------------------------------------------
// Fault-tolerant execution: a two-table view published through a
// FaultInjectingExecutor. The healthy document is the reference; every
// recovery path must reproduce it byte-identically.

std::unique_ptr<Database> MakeTwoTableDb() {
  auto db = std::make_unique<Database>();
  EXPECT_TRUE(sql::ExecuteDdl(
                  "CREATE TABLE T (k INT PRIMARY KEY, v TEXT);"
                  "CREATE TABLE U (k INT PRIMARY KEY, w TEXT, tk INT,"
                  " FOREIGN KEY (tk) REFERENCES T(k))",
                  db.get())
                  .ok());
  EXPECT_TRUE(
      db->Insert("T", Tuple{Value::Int64(1), Value::String("a")}).ok());
  EXPECT_TRUE(
      db->Insert("T", Tuple{Value::Int64(2), Value::String("b")}).ok());
  EXPECT_TRUE(db->Insert("U", Tuple{Value::Int64(10), Value::String("x"),
                                    Value::Int64(1)})
                  .ok());
  EXPECT_TRUE(db->Insert("U", Tuple{Value::Int64(11), Value::String("y"),
                                    Value::Int64(1)})
                  .ok());
  EXPECT_TRUE(db->Insert("U", Tuple{Value::Int64(12), Value::String("z"),
                                    Value::Int64(2)})
                  .ok());
  return db;
}

constexpr char kTwoTableRxl[] =
    "from T $t construct <t><v>$t.v</v>"
    "{ from U $u where $t.k = $u.tk construct <u>$u.w</u> }</t>";

/// Publishes through a fault policy; `retry` sleeps are recorded, never
/// slept, so tests stay fast.
struct FaultyPublishOutcome {
  Result<PublishResult> result = Status::Internal("publish not run");
  std::string xml;
  engine::FaultStats fault_stats;
};

FaultyPublishOutcome PublishWithFaults(const Database* db,
                                       const engine::FaultPolicy& policy,
                                       PublishOptions options) {
  engine::DatabaseExecutor db_executor(db);
  engine::FaultInjectingExecutor faulty(&db_executor, policy);
  faulty.set_sleep_fn([](double) {});
  options.executor = &faulty;
  options.retry.sleep_fn = [](double) {};
  Publisher publisher(db);
  FaultyPublishOutcome outcome;
  std::ostringstream out;
  outcome.result = publisher.Publish(kTwoTableRxl, options, &out);
  outcome.xml = out.str();
  outcome.fault_stats = faulty.stats();
  return outcome;
}

std::string HealthyReference(const Database* db, PlanStrategy strategy) {
  Publisher publisher(db);
  PublishOptions options;
  options.strategy = strategy;
  options.document_element = "doc";
  std::ostringstream out;
  auto result = publisher.Publish(kTwoTableRxl, options, &out);
  EXPECT_TRUE(result.ok()) << result.status();
  return out.str();
}

TEST(FaultToleranceTest, TransientUnavailableIsRetriedToIdenticalXml) {
  auto db = MakeTwoTableDb();
  std::string reference = HealthyReference(db.get(), PlanStrategy::kUnified);

  engine::FaultPolicy policy;
  engine::FaultRule rule;
  rule.fail = true;
  rule.times = 1;  // transient: first execution fails, the retry succeeds
  policy.rules.push_back(rule);

  PublishOptions options;
  options.strategy = PlanStrategy::kUnified;
  options.document_element = "doc";
  auto outcome = PublishWithFaults(db.get(), policy, options);
  ASSERT_TRUE(outcome.result.ok()) << outcome.result.status();
  EXPECT_EQ(outcome.xml, reference);
  const PlanMetrics& metrics = outcome.result->metrics;
  EXPECT_EQ(metrics.retries, 1u);
  EXPECT_EQ(metrics.attempts, 2u);  // one component query, one retry
  EXPECT_EQ(metrics.degraded_components, 0u);
  EXPECT_EQ(outcome.fault_stats.injected_failures, 1);
}

TEST(FaultToleranceTest, PermanentComponentFailureDegradesToIdenticalXml) {
  auto db = MakeTwoTableDb();
  std::string reference = HealthyReference(db.get(), PlanStrategy::kUnified);

  // Exactly one component query fails permanently: the unified query
  // (arrival index 0). Its degraded replacements get fresh indexes and
  // succeed.
  engine::FaultPolicy policy;
  engine::FaultRule rule;
  rule.fail = true;
  rule.query_index = 0;
  policy.rules.push_back(rule);

  PublishOptions options;
  options.strategy = PlanStrategy::kUnified;
  options.document_element = "doc";
  options.retry.max_attempts = 2;
  auto outcome = PublishWithFaults(db.get(), policy, options);
  ASSERT_TRUE(outcome.result.ok()) << outcome.result.status();
  EXPECT_EQ(outcome.xml, reference);
  const PlanMetrics& metrics = outcome.result->metrics;
  EXPECT_GE(metrics.degraded_components, 1u);
  EXPECT_TRUE(metrics.failed_nodes.empty());
  ASSERT_FALSE(metrics.exec_report.queries.empty());
  // Per-query attempt counts: the doomed unified query used all its
  // attempts; every degraded replacement succeeded first try.
  EXPECT_EQ(metrics.exec_report.queries[0].attempts, 2);
  EXPECT_EQ(metrics.exec_report.queries[0].final_status.code(),
            StatusCode::kUnavailable);
  for (size_t i = 1; i < metrics.exec_report.queries.size(); ++i) {
    EXPECT_EQ(metrics.exec_report.queries[i].attempts, 1);
  }
  EXPECT_GT(metrics.num_streams, 1u);
}

TEST(FaultToleranceTest, StrictModeFailsFastWithUnavailable) {
  auto db = MakeTwoTableDb();
  engine::FaultPolicy policy;
  engine::FaultRule rule;
  rule.fail = true;
  rule.query_index = 0;
  policy.rules.push_back(rule);

  PublishOptions options;
  options.strategy = PlanStrategy::kUnified;
  options.document_element = "doc";
  options.strict = true;
  auto outcome = PublishWithFaults(db.get(), policy, options);
  ASSERT_FALSE(outcome.result.ok());
  EXPECT_EQ(outcome.result.status().code(), StatusCode::kUnavailable);
  // Fail-fast means exactly one attempt, no degradation.
  EXPECT_EQ(outcome.fault_stats.executions, 1);
}

TEST(FaultToleranceTest, TruncatedStreamIsDetectedAndRetried) {
  auto db = MakeTwoTableDb();
  std::string reference = HealthyReference(db.get(), PlanStrategy::kUnified);

  engine::FaultPolicy policy;
  engine::FaultRule rule;
  rule.truncate_after_rows = 1;  // connection drops mid-stream, once
  rule.times = 1;
  policy.rules.push_back(rule);

  PublishOptions options;
  options.strategy = PlanStrategy::kUnified;
  options.document_element = "doc";
  auto outcome = PublishWithFaults(db.get(), policy, options);
  ASSERT_TRUE(outcome.result.ok()) << outcome.result.status();
  // Detection, not silent partial data: the truncated transfer surfaced as
  // a retryable error and the retry rebuilt the full document.
  EXPECT_EQ(outcome.xml, reference);
  EXPECT_EQ(outcome.fault_stats.truncated_streams, 1);
  EXPECT_EQ(outcome.result->metrics.retries, 1u);
}

TEST(FaultToleranceTest, TruncationIsNeverSilent) {
  auto db = MakeTwoTableDb();
  engine::FaultPolicy policy;
  engine::FaultRule rule;
  rule.truncate_after_rows = 1;  // every transfer drops mid-stream
  policy.rules.push_back(rule);

  PublishOptions options;
  options.strategy = PlanStrategy::kUnified;
  options.document_element = "doc";
  options.strict = true;
  auto outcome = PublishWithFaults(db.get(), policy, options);
  ASSERT_FALSE(outcome.result.ok());
  EXPECT_EQ(outcome.result.status().code(), StatusCode::kUnavailable);
  EXPECT_NE(outcome.result.status().message().find("truncated"),
            std::string::npos)
      << outcome.result.status();
}

TEST(FaultToleranceTest, RetryBudgetExhaustionReturnsResourceExhausted) {
  auto db = MakeTwoTableDb();
  engine::FaultPolicy policy;
  engine::FaultRule rule;
  rule.fail = true;  // every query, every time
  policy.rules.push_back(rule);

  PublishOptions options;
  options.strategy = PlanStrategy::kUnified;
  options.document_element = "doc";
  options.retry.max_attempts = 5;
  options.retry.retry_budget = 1;
  auto outcome = PublishWithFaults(db.get(), policy, options);
  ASSERT_FALSE(outcome.result.ok());
  EXPECT_EQ(outcome.result.status().code(), StatusCode::kResourceExhausted);
}

TEST(FaultToleranceTest, FailedLeafNodeIsSkippedBestEffort) {
  auto db = MakeTwoTableDb();
  // Only queries touching U fail — permanently. At the fully-partitioned
  // limit the U node cannot be recovered; the document is published
  // best-effort without its instances and the node is reported.
  engine::FaultPolicy policy;
  engine::FaultRule rule;
  rule.fail = true;
  rule.table = "U";
  policy.rules.push_back(rule);

  PublishOptions options;
  options.strategy = PlanStrategy::kFullyPartitioned;
  options.document_element = "doc";
  options.retry.max_attempts = 2;
  auto outcome = PublishWithFaults(db.get(), policy, options);
  ASSERT_TRUE(outcome.result.ok()) << outcome.result.status();
  const PlanMetrics& metrics = outcome.result->metrics;
  ASSERT_EQ(metrics.failed_nodes.size(), 1u);
  auto doc = xml::ParseXml(outcome.xml);
  ASSERT_TRUE(doc.ok()) << outcome.xml;
  auto ts = (*doc)->Children("t");
  ASSERT_EQ(ts.size(), 2u);
  for (const auto* t : ts) {
    EXPECT_EQ(t->Children("v").size(), 1u);
    EXPECT_TRUE(t->Children("u").empty());
  }
}

TEST(FaultToleranceTest, InjectedLatencyIsChargedDeterministically) {
  auto db = MakeTwoTableDb();
  engine::FaultPolicy policy;
  engine::FaultRule rule;
  rule.latency_ms = 3;
  rule.per_row_delay_ms = 1;  // trickling stream
  policy.rules.push_back(rule);

  engine::DatabaseExecutor db_executor(db.get());
  engine::FaultInjectingExecutor faulty(&db_executor, policy);
  double slept = 0;
  faulty.set_sleep_fn([&](double ms) { slept += ms; });
  auto rel = faulty.ExecuteSql("SELECT k FROM T ORDER BY k");
  ASSERT_TRUE(rel.ok()) << rel.status();
  EXPECT_EQ(rel->rows.size(), 2u);
  EXPECT_DOUBLE_EQ(slept, 3 + 2 * 1);  // fixed + per-row trickle
  EXPECT_DOUBLE_EQ(faulty.stats().injected_latency_ms, slept);
}

// ---------------------------------------------------------------------------
// Resilient-executor unit behaviour, against a scriptable fake source.

class FakeSource : public engine::SqlExecutor {
 public:
  explicit FakeSource(std::vector<Status> script)
      : script_(std::move(script)) {}

  Result<engine::Relation> ExecuteSql(std::string_view sql) override {
    ++calls_;
    if (script_.empty()) return engine::Relation{};
    Status next = script_.front();
    script_.erase(script_.begin());
    if (!next.ok()) return next;
    return engine::Relation{};
  }
  void set_timeout_ms(double) override {}
  int calls() const { return calls_; }

 private:
  std::vector<Status> script_;
  int calls_ = 0;
};

engine::RetryOptions FastRetry(int max_attempts, int budget) {
  engine::RetryOptions retry;
  retry.max_attempts = max_attempts;
  retry.retry_budget = budget;
  retry.sleep_fn = [](double) {};
  return retry;
}

TEST(ResilientExecutorTest, TimeoutIsRetriedExactlyOnce) {
  {
    // One timeout: the single permitted retry recovers.
    FakeSource source({Status::Timeout("t"), Status::OK()});
    engine::ResilientExecutor resilient(&source, FastRetry(5, 10));
    EXPECT_TRUE(resilient.ExecuteSql("SELECT 1").ok());
    EXPECT_EQ(source.calls(), 2);
  }
  {
    // Two timeouts: permanent despite attempts remaining — the query is
    // too heavy for the source and must be degraded, not re-run.
    FakeSource source(
        {Status::Timeout("t"), Status::Timeout("t"), Status::OK()});
    engine::ResilientExecutor resilient(&source, FastRetry(5, 10));
    auto result = resilient.ExecuteSql("SELECT 1");
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), StatusCode::kTimeout);
    EXPECT_EQ(source.calls(), 2);
  }
}

TEST(ResilientExecutorTest, PermanentErrorsAreNotRetried) {
  FakeSource source({Status::Internal("bug"), Status::OK()});
  engine::ResilientExecutor resilient(&source, FastRetry(5, 10));
  auto result = resilient.ExecuteSql("SELECT 1");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInternal);
  EXPECT_EQ(source.calls(), 1);
}

TEST(ResilientExecutorTest, BackoffIsSeededAndDeterministic) {
  auto run = [](uint64_t seed) {
    FakeSource source({Status::Unavailable("u"), Status::Unavailable("u"),
                       Status::OK()});
    engine::RetryOptions retry = FastRetry(5, 10);
    std::vector<double> sleeps;
    retry.jitter_seed = seed;
    retry.sleep_fn = [&](double ms) { sleeps.push_back(ms); };
    engine::ResilientExecutor resilient(&source, retry);
    EXPECT_TRUE(resilient.ExecuteSql("SELECT 1").ok());
    return sleeps;
  };
  auto a = run(7), b = run(7), c = run(8);
  ASSERT_EQ(a.size(), 2u);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  // Exponential growth with jitter in [0.5, 1.0]x of the nominal value.
  EXPECT_GE(a[0], 0.5 * 5.0);
  EXPECT_LE(a[0], 5.0);
  EXPECT_GE(a[1], 0.5 * 10.0);
  EXPECT_LE(a[1], 10.0);
}

TEST(ResilientExecutorTest, BudgetIsSharedAcrossQueries) {
  // Two flaky queries, budget 1: the first consumes the only retry, the
  // second is denied with kResourceExhausted.
  FakeSource source({Status::Unavailable("u"), Status::OK(),
                     Status::Unavailable("u"), Status::OK()});
  engine::ResilientExecutor resilient(&source, FastRetry(5, 1));
  EXPECT_TRUE(resilient.ExecuteSql("SELECT 1").ok());
  auto result = resilient.ExecuteSql("SELECT 2");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(resilient.report().queries.size(), 2u);
  EXPECT_EQ(resilient.budget_used(), 1);
}

TEST(ResilientExecutorTest, QueryDeadlineIsPerQueryNotPerExecutor) {
  // A reused QueryExecutor re-arms its deadline on every ExecuteSql call:
  // burning wall-clock between two queries must not charge the second one.
  Database db;
  ASSERT_TRUE(
      sql::ExecuteDdl("CREATE TABLE T (k INT PRIMARY KEY)", &db).ok());
  ASSERT_TRUE(db.Insert("T", Tuple{Value::Int64(1)}).ok());
  engine::QueryExecutor executor(&db);
  executor.set_timeout_ms(50);
  ASSERT_TRUE(executor.ExecuteSql("SELECT k FROM T").ok());
  Timer wait;
  while (wait.ElapsedMillis() < 80) {
  }
  EXPECT_TRUE(executor.ExecuteSql("SELECT k FROM T").ok());
}

TEST(ResilientExecutorTest, CancelInterruptsBackoffSleep) {
  // A shutdown must never wait out a long backoff: the CancelToken makes
  // the sleep interruptible and the executor returns the last error.
  FakeSource source(std::vector<Status>(8, Status::Unavailable("down")));
  engine::RetryOptions retry;
  retry.max_attempts = 5;
  retry.initial_backoff_ms = 60000;  // would stall a minute if uninterrupted
  CancelToken cancel;
  retry.cancel = &cancel;
  engine::ResilientExecutor resilient(&source, retry);

  Timer timer;
  Result<engine::Relation> result = Status::Internal("not run");
  std::thread worker(
      [&] { result = resilient.ExecuteSql("SELECT 1"); });
  // Whether this lands before the first attempt, between attempts, or
  // mid-backoff, the executor must return the last error promptly.
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  cancel.Cancel();
  worker.join();
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kUnavailable);
  EXPECT_EQ(source.calls(), 1);  // no second attempt after cancellation
  EXPECT_LT(timer.ElapsedMillis(), 30000);
}

TEST(ResilientExecutorTest, SharedBudgetMetersRetriesAcrossExecutors) {
  // Two executors (two concurrent component-query tasks) draw from one
  // plan-wide budget: once it is spent, the next needed retry anywhere
  // fails with kResourceExhausted after a single attempt.
  engine::RetryBudget budget(2);
  FakeSource first_source(std::vector<Status>(8, Status::Unavailable("u")));
  FakeSource second_source(std::vector<Status>(8, Status::Unavailable("u")));
  engine::RetryOptions retry = FastRetry(10, /*budget=*/0);
  retry.shared_budget = &budget;

  engine::ResilientExecutor first(&first_source, retry);
  auto a = first.ExecuteSql("SELECT 1");
  ASSERT_FALSE(a.ok());
  EXPECT_EQ(a.status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(first_source.calls(), 3);  // 1 attempt + the whole budget
  EXPECT_EQ(budget.remaining(), 0);

  engine::ResilientExecutor second(&second_source, retry);
  auto b = second.ExecuteSql("SELECT 2");
  ASSERT_FALSE(b.ok());
  EXPECT_EQ(b.status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(second_source.calls(), 1);  // denied before any retry
}

TEST(ResilientExecutorTest, ExpiredDeadlineFailsWithoutExecuting) {
  FakeSource source({Status::OK()});
  engine::RetryOptions retry = FastRetry(3, 10);
  retry.has_deadline = true;
  retry.deadline = std::chrono::steady_clock::now() -
                   std::chrono::milliseconds(1);
  engine::ResilientExecutor resilient(&source, retry);
  auto result = resilient.ExecuteSql("SELECT 1");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kTimeout);
  EXPECT_EQ(source.calls(), 0);
}

TEST(ResilientExecutorTest, BackoffCrossingDeadlineFailsImmediately) {
  // The retry would succeed, but its backoff sleep would overshoot the
  // end-to-end deadline: fail now with kTimeout instead of sleeping.
  FakeSource source({Status::Unavailable("u"), Status::OK()});
  engine::RetryOptions retry;
  retry.max_attempts = 3;
  retry.retry_budget = 10;
  retry.initial_backoff_ms = 60000;  // any jitter still crosses the deadline
  retry.has_deadline = true;
  retry.deadline = std::chrono::steady_clock::now() +
                   std::chrono::milliseconds(50);
  engine::ResilientExecutor resilient(&source, retry);
  Timer timer;
  auto result = resilient.ExecuteSql("SELECT 1");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kTimeout);
  EXPECT_EQ(source.calls(), 1);
  EXPECT_LT(timer.ElapsedMillis(), 30000);  // never slept the minute out
}

TEST(FaultInjectionTest, TableMatcherIsWordAndCaseInsensitive) {
  EXPECT_TRUE(engine::SqlReferencesTable("SELECT * FROM supplier", "SUPPLIER"));
  EXPECT_TRUE(engine::SqlReferencesTable("SELECT s.x FROM supplier s", "supplier"));
  EXPECT_FALSE(engine::SqlReferencesTable("SELECT * FROM suppliers", "supplier"));
  EXPECT_FALSE(engine::SqlReferencesTable("SELECT * FROM my_supplier", "supplier"));
  EXPECT_TRUE(engine::SqlReferencesTable("anything", ""));
}

}  // namespace
}  // namespace silkroute::core
