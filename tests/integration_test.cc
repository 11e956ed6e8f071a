// End-to-end tests of the Publisher pipeline: every plan of the plan space
// must produce the same DTD-valid document, across both SQL-generation
// styles, with and without view-tree reduction — the core correctness
// claim behind the paper's plan-space exploration.
#include <gtest/gtest.h>

#include <functional>
#include <sstream>

#include "engine/executor.h"
#include "silkroute/partition.h"
#include "silkroute/publisher.h"
#include "silkroute/queries.h"
#include "silkroute/sqlgen.h"
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

/// Sum of rows x width over `query`'s result and the result of every
/// derived table inside it, each executed on its own.
uint64_t ResultCells(const Database& db, const sql::Query& query) {
  engine::QueryExecutor exec(&db);
  auto result = exec.Execute(query);
  EXPECT_TRUE(result.ok()) << result.status();
  if (!result.ok()) return 0;
  uint64_t cells = result->rows.size() * result->schema.size();
  std::function<void(const sql::TableRef&)> visit =
      [&](const sql::TableRef& ref) {
        if (ref.kind() == sql::TableRef::Kind::kDerivedTable) {
          cells += ResultCells(
              db, static_cast<const sql::DerivedTableRef&>(ref).query());
        } else if (ref.kind() == sql::TableRef::Kind::kJoin) {
          const auto& join = static_cast<const sql::JoinRef&>(ref);
          visit(join.left());
          visit(join.right());
        }
      };
  for (const auto& core : query.cores) {
    for (const auto& ref : core.from) visit(*ref);
  }
  return cells;
}

// The executor builds each result cell exactly once: its
// cells_materialized counter equals rows x width summed over the results
// it returns, derived tables' results included — no intermediate copies.
TEST(PublisherTest, Query1BuildsEachResultCellOnce) {
  auto tree = env()->publisher().BuildViewTree(Query1Rxl());
  ASSERT_TRUE(tree.ok()) << tree.status();
  for (const Partition& plan :
       {Partition::Unified(*tree), Partition::FullyPartitioned(*tree)}) {
    for (auto style : {SqlGenStyle::kOuterJoin, SqlGenStyle::kOuterUnion}) {
      SqlGenerator gen(&*tree, style, /*reduce=*/true);
      auto specs = gen.GeneratePlan(plan);
      ASSERT_TRUE(specs.ok()) << specs.status();
      for (const StreamSpec& spec : *specs) {
        engine::QueryExecutor exec(&env()->db());
        auto result = exec.ExecuteSql(spec.sql);
        ASSERT_TRUE(result.ok()) << result.status();
        auto query = sql::ParseQuery(spec.sql);
        ASSERT_TRUE(query.ok()) << query.status();
        const uint64_t expected = ResultCells(env()->db(), **query);
        EXPECT_GT(expected, 0u) << spec.sql;
        EXPECT_EQ(exec.stats().cells_materialized, expected) << spec.sql;
      }
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
  auto plans = NumPlans(*tree);
  ASSERT_TRUE(plans.ok());
  EXPECT_EQ(*plans, 4u);
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

TEST(PublisherTest, InvalidRxlSurfacesParseError) {
  PublishOptions opt;
  std::ostringstream out;
  auto result = env()->publisher().Publish("from construct", opt, &out);
  EXPECT_FALSE(result.ok());
}

}  // namespace
}  // namespace silkroute::core
