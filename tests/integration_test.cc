// End-to-end tests of the Publisher pipeline: every plan of the plan space
// must produce the same DTD-valid document, across both SQL-generation
// styles, with and without view-tree reduction — the core correctness
// claim behind the paper's plan-space exploration.
#include <gtest/gtest.h>

#include <functional>
#include <sstream>
#include <tuple>

#include "engine/executor.h"
#include "engine/tuple_stream.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "silkroute/partition.h"
#include "silkroute/publisher.h"
#include "silkroute/queries.h"
#include "silkroute/sqlgen.h"
#include "silkroute/tagger.h"
#include "sql/parser.h"
#include "tests/test_util.h"
#include "xml/dtd.h"
#include "xml/reader.h"

namespace silkroute::core {
namespace {

using testutil::MakeTinyTpch;

class PublisherEnv {
 public:
  PublisherEnv() : db_(MakeTinyTpch(0.001)), publisher_(db_.get()) {}

  Publisher& publisher() { return publisher_; }
  Database& db() { return *db_; }

 private:
  std::unique_ptr<Database> db_;
  Publisher publisher_;
};

PublisherEnv* env() {
  static PublisherEnv* instance = new PublisherEnv();
  return instance;
}

std::string Reference(const char* rxl) {
  PublishOptions opt;
  opt.strategy = PlanStrategy::kFullyPartitioned;
  opt.document_element = "suppliers";
  std::ostringstream out;
  auto result = env()->publisher().Publish(rxl, opt, &out);
  EXPECT_TRUE(result.ok()) << result.status();
  return out.str();
}

// ---------------------------------------------------------------------------
// Parameterized sweep: every plan mask x style x reduction for Query 1.
// ---------------------------------------------------------------------------

struct SweepParam {
  uint64_t mask;
  SqlGenStyle style;
  bool reduce;
};

class PlanSweepTest : public ::testing::TestWithParam<SweepParam> {};

TEST_P(PlanSweepTest, ProducesReferenceDocument) {
  const SweepParam& param = GetParam();
  auto tree = env()->publisher().BuildViewTree(Query1Rxl());
  ASSERT_TRUE(tree.ok()) << tree.status();
  PublishOptions opt;
  opt.style = param.style;
  opt.reduce = param.reduce;
  opt.document_element = "suppliers";
  std::ostringstream out;
  auto metrics = env()->publisher().ExecutePlan(*tree, param.mask, opt, &out);
  ASSERT_TRUE(metrics.ok()) << metrics.status();
  EXPECT_EQ(metrics->tagger.forced_ancestor_opens, 0u);
  static const std::string* const reference =
      new std::string(Reference(Query1Rxl().data()));
  EXPECT_EQ(out.str(), *reference) << "mask=" << param.mask;
}

std::vector<SweepParam> SweepParams() {
  std::vector<SweepParam> params;
  // A stratified sample of the 512 masks (all stream counts represented)
  // plus the canonical plans, crossed with style and reduction.
  std::vector<uint64_t> masks = {0,   1,   2,    4,    8,    16,  32,
                                 64,  128, 256,  3,    21,   73,  85,
                                 170, 255, 0x1E8, 311,  438,  511};
  for (uint64_t mask : masks) {
    for (auto style : {SqlGenStyle::kOuterJoin, SqlGenStyle::kOuterUnion}) {
      for (bool reduce : {false, true}) {
        params.push_back({mask, style, reduce});
      }
    }
  }
  return params;
}

INSTANTIATE_TEST_SUITE_P(AllPlans, PlanSweepTest,
                         ::testing::ValuesIn(SweepParams()),
                         [](const ::testing::TestParamInfo<SweepParam>& info) {
                           return "mask" + std::to_string(info.param.mask) +
                                  (info.param.style == SqlGenStyle::kOuterJoin
                                       ? "_oj"
                                       : "_ou") +
                                  (info.param.reduce ? "_red" : "_nored");
                         });

// ---------------------------------------------------------------------------
// Document-level checks.
// ---------------------------------------------------------------------------

/// Whether the executor materializes derived table `query` into a
/// Relation instead of inlining it into its parent's batch: anything but
/// one SELECT core with a FROM list, no ORDER BY, and only column and
/// literal items (DESIGN.md §10).
bool Materializes(const sql::Query& query) {
  if (query.cores.size() != 1 || !query.order_by.empty() ||
      query.cores[0].from.empty()) {
    return true;
  }
  for (const auto& item : query.cores[0].select_list) {
    const auto kind = item.expr->kind();
    if (kind != sql::Expr::Kind::kColumnRef &&
        kind != sql::Expr::Kind::kLiteral) {
      return true;
    }
  }
  return false;
}

uint64_t ResultCells(const Database& db, const sql::Query& query,
                     int* materialized);

/// The cells of every derived table inside `query` that materializes: its
/// result's cells plus, recursively, those of the derived tables inside
/// it. An inlined derived table builds no cell; the derived tables nested
/// in it still count. `materialized` counts the derived tables that
/// materialize.
uint64_t DerivedCells(const Database& db, const sql::Query& query,
                      int* materialized) {
  uint64_t cells = 0;
  std::function<void(const sql::Query&)> visit_from;
  std::function<void(const sql::TableRef&)> visit =
      [&](const sql::TableRef& ref) {
        if (ref.kind() == sql::TableRef::Kind::kDerivedTable) {
          const auto& derived =
              static_cast<const sql::DerivedTableRef&>(ref).query();
          if (Materializes(derived)) {
            ++*materialized;
            cells += ResultCells(db, derived, materialized);
          } else {
            visit_from(derived);
          }
        } else if (ref.kind() == sql::TableRef::Kind::kJoin) {
          const auto& join = static_cast<const sql::JoinRef&>(ref);
          visit(join.left());
          visit(join.right());
        }
      };
  visit_from = [&](const sql::Query& q) {
    for (const auto& core : q.cores) {
      for (const auto& ref : core.from) visit(*ref);
    }
  };
  visit_from(query);
  return cells;
}

/// Rows x width of `query`'s result, executed on its own, plus
/// DerivedCells.
uint64_t ResultCells(const Database& db, const sql::Query& query,
                     int* materialized) {
  engine::QueryExecutor exec(&db);
  auto result = exec.Execute(query);
  EXPECT_TRUE(result.ok()) << result.status();
  if (!result.ok()) return 0;
  return result->size() * result->schema().size() +
         DerivedCells(db, query, materialized);
}

// The executor builds each result cell at most once, and on the local
// publish path not at all. Asked for a Relation (ExecuteSql), its
// cells_materialized counter equals rows x width of the result plus the
// results of the derived tables that materialize. Handed over as Rows and
// bound (ExecuteRows + TupleStream, what ComponentStep::ExecuteAndBind
// runs), only the derived tables' cells are built. A derived table inlined
// into its parent's batch builds none, so Query 1's reduced plans build no
// cell at all.
TEST(PublisherTest, Query1BuildsEachResultCellOnce) {
  auto tree = env()->publisher().BuildViewTree(Query1Rxl());
  ASSERT_TRUE(tree.ok()) << tree.status();
  std::vector<std::string> sqls;
  for (const Partition& plan :
       {Partition::Unified(*tree), Partition::FullyPartitioned(*tree)}) {
    for (auto style : {SqlGenStyle::kOuterJoin, SqlGenStyle::kOuterUnion}) {
      for (bool reduce : {true, false}) {
        SqlGenerator gen(&*tree, style, reduce);
        auto specs = gen.GeneratePlan(plan);
        ASSERT_TRUE(specs.ok()) << specs.status();
        for (const StreamSpec& spec : *specs) sqls.push_back(spec.sql);
      }
    }
  }
  // Derived tables that still materialize: a UNION ALL inside an inlined
  // one, and one with an ORDER BY and a computed item.
  sqls.push_back(
      "select D.k, D.one, D.s from (select n.nationkey as k, 1 as one, "
      "U.s as s from Nation n, (select s.suppkey as s, s.nationkey as nk "
      "from Supplier s union all select s.suppkey as s, s.nationkey as nk "
      "from Supplier s) as U where n.nationkey = U.nk) as D left outer "
      "join (select c.custkey + 0 as ck, c.nationkey as nk from Customer c "
      "order by ck) as C on D.k = C.nk order by D.k, D.s");
  int with_derived = 0, materialized = 0;
  for (const std::string& sql : sqls) {
    auto query = sql::ParseQuery(sql);
    ASSERT_TRUE(query.ok()) << query.status();
    int unused = 0;
    const uint64_t derived = DerivedCells(env()->db(), **query, &unused);

    engine::QueryExecutor exec(&env()->db());
    auto result = exec.ExecuteSql(sql);
    ASSERT_TRUE(result.ok()) << result.status() << "\n" << sql;
    const uint64_t expected =
        ResultCells(env()->db(), **query, &materialized);
    EXPECT_GT(expected, derived) << sql;
    EXPECT_EQ(exec.stats().cells_materialized, expected) << sql;

    engine::QueryExecutor local(&env()->db());
    auto rows = local.ExecuteRows(sql, 0, nullptr);
    ASSERT_TRUE(rows.ok()) << rows.status() << "\n" << sql;
    const engine::TupleStream bound(std::move(rows).value());
    EXPECT_EQ(bound.num_tuples(), result->rows.size()) << sql;
    EXPECT_EQ(local.stats().cells_materialized, derived) << sql;
    with_derived += sql.find("from (select") != std::string::npos;
  }
  EXPECT_GT(with_derived, 1);
  // Besides the two above, the unreduced outer-join plans' `C` derived
  // tables materialize: each is a UNION ALL of a class's children.
  EXPECT_GT(materialized, 2);

  // A publish counts the same through the engine's metrics: nothing for
  // the reduced unified and greedy plans, only the `C` tables without
  // reduction.
  for (PlanStrategy strategy :
       {PlanStrategy::kUnified, PlanStrategy::kGreedy}) {
    for (bool reduce : {true, false}) {
      obs::MetricsRegistry registry;
      PublishOptions opt;
      opt.strategy = strategy;
      opt.reduce = reduce;
      opt.metrics_registry = &registry;
      std::ostringstream out;
      auto published = env()->publisher().Publish(Query1Rxl(), opt, &out);
      ASSERT_TRUE(published.ok()) << published.status();
      uint64_t expected = 0;
      for (const std::string& sql : published->metrics.sql) {
        auto query = sql::ParseQuery(sql);
        ASSERT_TRUE(query.ok()) << query.status();
        int unused = 0;
        expected += DerivedCells(env()->db(), **query, &unused);
      }
      if (reduce) {
        EXPECT_EQ(expected, 0u);
      } else if (strategy == PlanStrategy::kUnified) {
        EXPECT_GT(expected, 0u);
      }
      EXPECT_EQ(
          registry.counter("silkroute_engine_cells_materialized_total")
              ->value(),
          expected)
          << "reduce=" << reduce;
    }
  }
}

// Sec. 3.3 sorts every component query on its Skolem keys. genPlan lists
// them root first, TPC-H tables are stored in key order, scans keep that
// order and hash joins emit probe order, then ascending build row: so each
// of Query 1's ORDER BYs meets its rows already in order, and the engine
// runs no sort (DESIGN.md §10). A join or SQL-generation change that
// breaks the order fails here rather than slowing publishes down.
TEST(PublisherTest, Query1OrderBysMeetTheirRowsInOrder) {
  for (PlanStrategy strategy :
       {PlanStrategy::kUnified, PlanStrategy::kGreedy,
        PlanStrategy::kFullyPartitioned}) {
    obs::CollectingSink sink;
    obs::Tracer tracer(&sink);
    PublishOptions opt;
    opt.strategy = strategy;
    opt.reduce = true;
    opt.tracer = &tracer;
    std::ostringstream out;
    auto published = env()->publisher().Publish(Query1Rxl(), opt, &out);
    ASSERT_TRUE(published.ok()) << published.status();
    size_t attempts = 0;
    for (const obs::Span& span : sink.spans()) {
      if (span.name != "attempt") continue;
      ++attempts;
      std::string in_order, rows;
      for (const obs::Annotation& a : span.annotations) {
        if (a.key == "sorts_in_order") in_order = a.value;
        if (a.key == "result_rows") rows = a.value;
      }
      EXPECT_EQ(in_order, "1") << "strategy " << static_cast<int>(strategy)
                               << ", a component of " << rows << " rows";
    }
    ASSERT_GT(attempts, 0u);
    ASSERT_EQ(attempts, published->metrics.sql.size());
    for (const std::string& sql : published->metrics.sql) {
      EXPECT_NE(sql.find("order by"), std::string::npos) << sql;
    }
  }
}

// Query 1's Skolem keys are integers, so the tagger merges every plan on
// key words: no range of the unified, greedy or partitioned plan moves onto
// the codec bytes, whether the document is one range or four.
TEST(PublisherTest, Query1TagsOnKeyWords) {
  for (PlanStrategy strategy :
       {PlanStrategy::kUnified, PlanStrategy::kGreedy,
        PlanStrategy::kFullyPartitioned}) {
    SCOPED_TRACE(testing::Message() << "strategy "
                                    << static_cast<int>(strategy));
    obs::CollectingSink sink;
    obs::Tracer tracer(&sink);
    PublishOptions opt;
    opt.strategy = strategy;
    opt.document_element = "suppliers";
    opt.tracer = &tracer;
    std::ostringstream out;
    auto published = env()->publisher().Publish(Query1Rxl(), opt, &out);
    ASSERT_TRUE(published.ok()) << published.status();
    EXPECT_EQ(published->metrics.tagger.byte_key_ranges, 0u);
    size_t tag_spans = 0;
    for (const obs::Span& span : sink.spans()) {
      if (span.name != "phase:tag") continue;
      ++tag_spans;
      for (const obs::Annotation& a : span.annotations) {
        if (a.key == "byte_key_ranges") {
          EXPECT_EQ(a.value, "0");
        }
      }
    }
    EXPECT_EQ(tag_spans, 1u);

    opt.tracer = nullptr;
    auto plan = env()->publisher().Prepare(Query1Rxl(), opt);
    ASSERT_TRUE(plan.ok()) << plan.status();
    std::vector<std::unique_ptr<engine::TupleStream>> streams;
    for (const StreamSpec& spec : (*plan)->specs) {
      engine::QueryExecutor exec(&env()->db());
      auto rows = exec.ExecuteSql(spec.sql);
      ASSERT_TRUE(rows.ok()) << rows.status();
      streams.push_back(
          std::make_unique<engine::TupleStream>(std::move(rows).value()));
    }
    for (size_t ranges : {size_t{1}, size_t{4}}) {
      std::vector<Tagger::StreamInput> inputs;
      for (size_t i = 0; i < streams.size(); ++i) {
        streams[i]->Rewind();
        inputs.push_back({&(*plan)->specs[i], streams[i].get()});
      }
      std::ostringstream tagged;
      xml::XmlWriter writer(&tagged);
      Tagger::Options options;
      options.document_element = "suppliers";
      options.ranges = ranges;
      Tagger tagger((*plan)->tree.get(), &writer, options);
      ASSERT_TRUE(tagger.Run(std::move(inputs)).ok());
      ASSERT_TRUE(writer.Finish().ok());
      EXPECT_EQ(tagger.stats().ranges, ranges);
      EXPECT_EQ(tagger.stats().byte_key_ranges, 0u);
      EXPECT_TRUE(tagged.str() == out.str()) << ranges << " ranges";
    }
  }
}

TEST(PublisherTest, Query1DocumentValidatesAgainstPaperDtd) {
  std::string xml = Reference(Query1Rxl().data());
  auto doc = xml::ParseXml(xml);
  ASSERT_TRUE(doc.ok()) << doc.status();
  auto dtd = xml::ParseDtd(SuppliersDocumentDtd());
  ASSERT_TRUE(dtd.ok()) << dtd.status();
  Status valid = dtd->Validate(**doc);
  EXPECT_TRUE(valid.ok()) << valid;
}

TEST(PublisherTest, Query2AllStrategiesAgree) {
  std::string reference;
  for (PlanStrategy strategy :
       {PlanStrategy::kFullyPartitioned, PlanStrategy::kUnified,
        PlanStrategy::kGreedy}) {
    PublishOptions opt;
    opt.strategy = strategy;
    opt.document_element = "suppliers";
    std::ostringstream out;
    auto result = env()->publisher().Publish(Query2Rxl(), opt, &out);
    ASSERT_TRUE(result.ok()) << result.status();
    if (reference.empty()) {
      reference = out.str();
    } else {
      EXPECT_EQ(out.str(), reference);
    }
  }
}

TEST(PublisherTest, GreedyStrategyReportsPlan) {
  PublishOptions opt;
  opt.strategy = PlanStrategy::kGreedy;
  opt.document_element = "suppliers";
  std::ostringstream out;
  auto result = env()->publisher().Publish(Query1Rxl(), opt, &out);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_GT(result->greedy_plan.mandatory_edges.size() +
                result->greedy_plan.optional_edges.size(),
            0u);
  EXPECT_GT(result->greedy_plan.oracle_requests, 0u);
  EXPECT_EQ(result->metrics.mask, result->greedy_plan.FullMask());
}

TEST(PublisherTest, MetricsAreConsistent) {
  PublishOptions opt;
  opt.strategy = PlanStrategy::kExplicitMask;
  opt.explicit_mask = 0x1E8;
  opt.document_element = "suppliers";
  std::ostringstream out;
  auto result = env()->publisher().Publish(Query1Rxl(), opt, &out);
  ASSERT_TRUE(result.ok()) << result.status();
  const PlanMetrics& m = result->metrics;
  EXPECT_EQ(m.num_streams, 5u);
  EXPECT_EQ(m.sql.size(), 5u);
  EXPECT_GT(m.rows, 0u);
  EXPECT_GT(m.wire_bytes, 0u);
  EXPECT_EQ(m.xml_bytes, out.str().size());
  EXPECT_GE(m.total_ms(), m.query_ms);
}

TEST(PublisherTest, FragmentQueryMatchesFig4) {
  auto tree = env()->publisher().BuildViewTree(QueryFragmentRxl());
  ASSERT_TRUE(tree.ok()) << tree.status();
  EXPECT_EQ(tree->num_nodes(), 3u);  // supplier, nation, part
  EXPECT_EQ(tree->num_edges(), 2u);  // Fig. 5: 4 possible plans
  EXPECT_EQ(NumPlans(*tree), 4u);
}

TEST(PublisherTest, FragmentAllFourPlansAgree) {
  auto tree = env()->publisher().BuildViewTree(QueryFragmentRxl());
  ASSERT_TRUE(tree.ok());
  std::string reference;
  for (uint64_t mask = 0; mask < 4; ++mask) {
    PublishOptions opt;
    opt.document_element = "suppliers";
    std::ostringstream out;
    auto metrics = env()->publisher().ExecutePlan(*tree, mask, opt, &out);
    ASSERT_TRUE(metrics.ok()) << metrics.status();
    if (mask == 0) {
      reference = out.str();
    } else {
      EXPECT_EQ(out.str(), reference) << mask;
    }
  }
}

TEST(PublisherTest, SuppliersWithoutPartsAppearInDocument) {
  // The left-outer-join requirement of the paper's Sec. 2: suppliers with
  // no parts must still appear.
  std::string xml = Reference(Query1Rxl().data());
  auto doc = xml::ParseXml(xml);
  ASSERT_TRUE(doc.ok());
  size_t without_parts = 0;
  for (const auto* s : (*doc)->Children("supplier")) {
    if (s->Children("part").empty()) ++without_parts;
  }
  EXPECT_GT(without_parts, 0u);
}

TEST(PublisherTest, ExplicitSkolemGroupsElements) {
  // Group parts by their supplier's nation: explicit Skolem terms control
  // fusion, so each nation element appears once per nation, not per
  // supplier.
  const char* rxl = R"(
    from Nation $n construct
    <nationParts ID=NP($n.nationkey)>
      <nation>$n.name</nation>
      { from Supplier $s, PartSupp $ps, Part $p
        where $s.nationkey = $n.nationkey, $s.suppkey = $ps.suppkey,
              $ps.partkey = $p.partkey
        construct <part ID=PP($n.nationkey, $p.partkey)>$p.name</part> }
    </nationParts>
  )";
  PublishOptions opt;
  opt.document_element = "doc";
  std::ostringstream out;
  auto result = env()->publisher().Publish(rxl, opt, &out);
  ASSERT_TRUE(result.ok()) << result.status();
  auto doc = xml::ParseXml(out.str());
  ASSERT_TRUE(doc.ok()) << doc.status();
  auto nations = (*doc)->Children("nationParts");
  EXPECT_EQ(nations.size(), 25u);
}

TEST(PublisherTest, PrettyOutputStillParses) {
  PublishOptions opt;
  opt.pretty = true;
  opt.document_element = "suppliers";
  std::ostringstream out;
  auto result = env()->publisher().Publish(Query1Rxl(), opt, &out);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_NE(out.str().find('\n'), std::string::npos);
  EXPECT_TRUE(xml::ParseXml(out.str()).ok());
}

// ---------------------------------------------------------------------------
// Prepared-plan cache (DESIGN.md §8 "Prepared plans").
// ---------------------------------------------------------------------------

struct Published {
  std::string xml;
  PublishResult result;
};

Published MustPublish(Publisher* publisher, std::string_view rxl,
                      const PublishOptions& options) {
  Published published;
  std::ostringstream out;
  auto result = publisher->Publish(rxl, options, &out);
  EXPECT_TRUE(result.ok()) << result.status();
  if (result.ok()) published.result = std::move(result).value();
  published.xml = out.str();
  return published;
}

TEST(PreparedPlanTest, MissAndHitMatchAFreshPublisher) {
  Publisher cached(&env()->db());
  const SourceDescription no_outer_join{false, true};
  const SourceDescription no_union{true, false};
  for (PlanStrategy strategy :
       {PlanStrategy::kGreedy, PlanStrategy::kUnified,
        PlanStrategy::kFullyPartitioned, PlanStrategy::kExplicitMask}) {
    for (SqlGenStyle style :
         {SqlGenStyle::kOuterJoin, SqlGenStyle::kOuterUnion}) {
      for (bool reduce : {true, false}) {
        for (const SourceDescription& source :
             {SourceDescription{}, no_outer_join, no_union}) {
          PublishOptions options;
          options.strategy = strategy;
          options.explicit_mask = 0x1E8;
          options.style = style;
          options.reduce = reduce;
          options.source = source;
          options.document_element = "suppliers";
          std::string where = std::to_string(static_cast<int>(strategy)) +
                              "/" + SqlGenStyleToString(style) + "/" +
                              (reduce ? "reduce" : "full") + "/" +
                              (source.supports_outer_join ? "oj" : "no-oj") +
                              (source.supports_union ? "+union" : "-union");
          Publisher fresh(&env()->db());
          Published expected = MustPublish(&fresh, Query1Rxl(), options);
          Published miss = MustPublish(&cached, Query1Rxl(), options);
          Published hit = MustPublish(&cached, Query1Rxl(), options);
          EXPECT_FALSE(miss.result.metrics.plan_cached) << where;
          EXPECT_TRUE(hit.result.metrics.plan_cached) << where;
          EXPECT_FALSE(expected.xml.empty()) << where;
          EXPECT_EQ(miss.xml, expected.xml) << where;
          EXPECT_EQ(hit.xml, expected.xml) << where;
          EXPECT_EQ(hit.result.metrics.mask, expected.result.metrics.mask)
              << where;
          EXPECT_EQ(hit.result.metrics.sql, expected.result.metrics.sql)
              << where;
        }
      }
    }
  }
  EXPECT_EQ(cached.prepared_plans(), 4u * 2u * 2u * 3u);
}

/// What a plan-shaping option decides: the mask, the SQL and the greedy
/// edge split.
auto PlanShape(const PublishResult& result) {
  return std::make_tuple(result.metrics.mask, result.metrics.sql,
                         result.greedy_plan.mandatory_edges,
                         result.greedy_plan.optional_edges);
}

TEST(PreparedPlanTest, EveryPlanShapingOptionIsInTheKey) {
  // Each case changes exactly one plan-shaping field of `base`. The second
  // publish on the shared publisher must plan what the field implies; a
  // field missing from the key would serve the base's stored plan.
  using Edit = std::function<void(PublishOptions*)>;
  struct Case {
    const char* field;
    PlanStrategy strategy;
    Edit edit;
    SqlGenStyle style = SqlGenStyle::kOuterJoin;
  };
  const std::vector<Case> cases = {
      {"strategy", PlanStrategy::kGreedy,
       [](PublishOptions* o) {
         o->strategy = PlanStrategy::kFullyPartitioned;
       }},
      {"explicit_mask", PlanStrategy::kExplicitMask,
       [](PublishOptions* o) { o->explicit_mask = 0x0F0; }},
      {"style", PlanStrategy::kUnified,
       [](PublishOptions* o) { o->style = SqlGenStyle::kOuterUnion; }},
      {"reduce", PlanStrategy::kUnified,
       [](PublishOptions* o) { o->reduce = false; }},
      {"distinct_selects", PlanStrategy::kUnified,
       [](PublishOptions* o) { o->distinct_selects = true; }},
      {"source.supports_outer_join", PlanStrategy::kUnified,
       [](PublishOptions* o) { o->source.supports_outer_join = false; }},
      // Reduced outer-join plans of Query 1 need no UNION; outer-union ones
      // do.
      {"source.supports_union", PlanStrategy::kUnified,
       [](PublishOptions* o) { o->source.supports_union = false; },
       SqlGenStyle::kOuterUnion},
      {"greedy.a", PlanStrategy::kGreedy,
       [](PublishOptions* o) { o->greedy.a = 0; }},
      {"greedy.b", PlanStrategy::kGreedy,
       [](PublishOptions* o) { o->greedy.b = 1e6; }},
      {"greedy.t1", PlanStrategy::kGreedy,
       [](PublishOptions* o) { o->greedy.t1 = 1e30; }},
      {"greedy.t2", PlanStrategy::kGreedy,
       [](PublishOptions* o) { o->greedy.t2 = -1e30; }},
  };
  for (const Case& c : cases) {
    PublishOptions base;
    base.strategy = c.strategy;
    base.style = c.style;
    base.explicit_mask = 0x1E8;
    base.document_element = "suppliers";
    PublishOptions variant = base;
    c.edit(&variant);

    Publisher fresh_base(&env()->db());
    Publisher fresh_variant(&env()->db());
    Published base_plan = MustPublish(&fresh_base, Query1Rxl(), base);
    Published expected = MustPublish(&fresh_variant, Query1Rxl(), variant);
    // The field matters here: its change alone changes the plan.
    ASSERT_NE(PlanShape(expected.result), PlanShape(base_plan.result))
        << c.field;

    Publisher cached(&env()->db());
    MustPublish(&cached, Query1Rxl(), base);
    Published second = MustPublish(&cached, Query1Rxl(), variant);
    EXPECT_FALSE(second.result.metrics.plan_cached) << c.field;
    EXPECT_EQ(PlanShape(second.result), PlanShape(expected.result))
        << c.field;
    EXPECT_EQ(second.xml, expected.xml) << c.field;
  }
}

TEST(PreparedPlanTest, CacheIsBoundedAndEvictsOldestFirst) {
  // cap + k distinct one-nation views: the cache holds at most cap plans,
  // the oldest are re-planned on return, and every document matches one
  // from a publisher that planned it afresh.
  constexpr size_t kExtra = 4;
  const size_t views = Publisher::kMaxPreparedPlans + kExtra;
  auto view = [](size_t i) {
    return "from Nation $n where $n.nationkey = " + std::to_string(i % 25) +
           ", $n.regionkey < " + std::to_string(100 + i) +
           " construct <nation>$n.name</nation>";
  };
  PublishOptions options;
  options.strategy = PlanStrategy::kUnified;
  options.document_element = "doc";
  Publisher cached(&env()->db());
  Publisher reference(&env()->db());
  for (size_t i = 0; i < views; ++i) {
    Published got = MustPublish(&cached, view(i), options);
    Published want = MustPublish(&reference, view(i), options);
    EXPECT_FALSE(got.result.metrics.plan_cached) << i;
    EXPECT_NE(got.xml.find("<nation>"), std::string::npos) << i;
    EXPECT_EQ(got.xml, want.xml) << i;
    EXPECT_LE(cached.prepared_plans(), Publisher::kMaxPreparedPlans) << i;
  }
  EXPECT_EQ(cached.prepared_plans(), Publisher::kMaxPreparedPlans);

  Published newest = MustPublish(&cached, view(views - 1), options);
  EXPECT_TRUE(newest.result.metrics.plan_cached);
  Published evicted = MustPublish(&cached, view(0), options);
  EXPECT_FALSE(evicted.result.metrics.plan_cached);
  EXPECT_EQ(evicted.xml, MustPublish(&reference, view(0), options).xml);
  EXPECT_EQ(cached.prepared_plans(), Publisher::kMaxPreparedPlans);
}

TEST(PublisherTest, InvalidRxlSurfacesParseError) {
  PublishOptions opt;
  std::ostringstream out;
  auto result = env()->publisher().Publish("from construct", opt, &out);
  EXPECT_FALSE(result.ok());
  // Errors are not stored as prepared plans.
  Publisher fresh(&env()->db());
  EXPECT_FALSE(fresh.Publish("from construct", opt, &out).ok());
  EXPECT_EQ(fresh.prepared_plans(), 0u);
}

}  // namespace
}  // namespace silkroute::core
