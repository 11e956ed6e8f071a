#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "engine/estimator.h"
#include "engine/executor.h"
#include "engine/stats.h"
#include "rxl/parser.h"
#include "silkroute/greedy.h"
#include "silkroute/partition.h"
#include "silkroute/queries.h"
#include "silkroute/sqlgen.h"
#include "silkroute/view_tree.h"
#include "tpch/generator.h"

namespace silkroute::engine {
namespace {

class StatsEstimatorTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    db_ = new Database();
    tpch::TpchConfig config;
    config.scale_factor = 0.005;
    ASSERT_TRUE(tpch::GenerateTpch(config, db_).ok());
    stats_ = new DatabaseStats(DatabaseStats::Collect(*db_));
  }
  static void TearDownTestSuite() {
    delete stats_;
    delete db_;
    stats_ = nullptr;
    db_ = nullptr;
  }

  QueryEstimate Estimate(const std::string& sql) {
    CostEstimator est(&db_->catalog(), stats_);
    auto result = est.EstimateSql(sql);
    EXPECT_TRUE(result.ok()) << sql << ": " << result.status();
    return result.ok() ? *result : QueryEstimate{};
  }

  static Database* db_;
  static DatabaseStats* stats_;
};

Database* StatsEstimatorTest::db_ = nullptr;
DatabaseStats* StatsEstimatorTest::stats_ = nullptr;

TEST_F(StatsEstimatorTest, RowCountsMatchTables) {
  auto t = db_->GetTable("Supplier");
  ASSERT_TRUE(t.ok());
  EXPECT_DOUBLE_EQ(stats_->RowCount("Supplier"),
                   static_cast<double>((*t)->num_rows()));
  EXPECT_DOUBLE_EQ(stats_->RowCount("Missing"), 0.0);
}

TEST_F(StatsEstimatorTest, DistinctCountOfKeyEqualsRowCount) {
  EXPECT_DOUBLE_EQ(stats_->DistinctCount("Supplier", "suppkey"),
                   stats_->RowCount("Supplier"));
}

TEST_F(StatsEstimatorTest, DistinctCountOfNationKeyInSupplierIsSmall) {
  EXPECT_LE(stats_->DistinctCount("Supplier", "nationkey"), 25.0);
}

TEST_F(StatsEstimatorTest, ColumnStatsExposeWidths) {
  const ColumnStats* cs = stats_->GetColumn("Supplier", "name");
  ASSERT_NE(cs, nullptr);
  EXPECT_GT(cs->avg_width_bytes, 8.0);  // strings wider than ints
  EXPECT_EQ(stats_->GetColumn("Supplier", "zzz"), nullptr);
  EXPECT_EQ(stats_->GetColumn("Zzz", "name"), nullptr);
}

TEST_F(StatsEstimatorTest, ScanEstimateMatchesTableCardinality) {
  QueryEstimate e = Estimate("select * from Supplier");
  EXPECT_DOUBLE_EQ(e.rows, stats_->RowCount("Supplier"));
  EXPECT_GT(e.width_bytes, 0);
}

TEST_F(StatsEstimatorTest, FilterReducesCardinality) {
  QueryEstimate all = Estimate("select * from Supplier s");
  QueryEstimate filtered =
      Estimate("select * from Supplier s where s.suppkey = 1");
  EXPECT_LT(filtered.rows, all.rows);
  EXPECT_LE(filtered.rows, 2.0);  // key equality: ~1 row
}

TEST_F(StatsEstimatorTest, KeyFkJoinEstimatesChildCardinality) {
  // Supplier x Nation on nationkey: one nation per supplier.
  QueryEstimate e = Estimate(
      "select * from Supplier s, Nation n "
      "where s.nationkey = n.nationkey");
  double suppliers = stats_->RowCount("Supplier");
  EXPECT_GT(e.rows, suppliers * 0.5);
  EXPECT_LT(e.rows, suppliers * 2.0);
}

TEST_F(StatsEstimatorTest, JoinCostExceedsScanCost) {
  QueryEstimate scan = Estimate("select * from PartSupp");
  QueryEstimate join = Estimate(
      "select * from PartSupp ps, Part p where ps.partkey = p.partkey");
  EXPECT_GT(join.cost, scan.cost);
}

TEST_F(StatsEstimatorTest, OrderByAddsCost) {
  QueryEstimate plain = Estimate("select * from PartSupp");
  QueryEstimate sorted =
      Estimate("select * from PartSupp ps order by ps.partkey");
  EXPECT_GT(sorted.cost, plain.cost);
}

TEST_F(StatsEstimatorTest, UnionAddsRowsAndCosts) {
  QueryEstimate single = Estimate("select suppkey as k from Supplier");
  QueryEstimate both = Estimate(
      "(select suppkey as k from Supplier) union all "
      "(select partkey as k from Part)");
  EXPECT_GT(both.rows, single.rows);
  EXPECT_GT(both.cost, single.cost);
}

TEST_F(StatsEstimatorTest, LeftOuterJoinKeepsLeftCardinality) {
  QueryEstimate e = Estimate(
      "select * from Supplier s left outer join PartSupp ps "
      "on s.suppkey = ps.suppkey and ps.availqty = 123456");
  EXPECT_GE(e.rows, stats_->RowCount("Supplier") * 0.99);
}

TEST_F(StatsEstimatorTest, ProjectionNarrowsWidth) {
  QueryEstimate star = Estimate("select * from Supplier s");
  QueryEstimate narrow = Estimate("select s.suppkey from Supplier s");
  EXPECT_LT(narrow.width_bytes, star.width_bytes);
}

TEST_F(StatsEstimatorTest, DerivedTableEstimated) {
  QueryEstimate e = Estimate(
      "select D.k from (select s.suppkey as k from Supplier s) as D");
  EXPECT_DOUBLE_EQ(e.rows, stats_->RowCount("Supplier"));
}

TEST_F(StatsEstimatorTest, RequestCounterIncrements) {
  CostEstimator est(&db_->catalog(), stats_);
  EXPECT_EQ(est.num_requests(), 0u);
  ASSERT_TRUE(est.EstimateSql("select * from Supplier").ok());
  ASSERT_TRUE(est.EstimateSql("select * from Part").ok());
  EXPECT_EQ(est.num_requests(), 2u);
  est.ResetRequestCount();
  EXPECT_EQ(est.num_requests(), 0u);
}

TEST_F(StatsEstimatorTest, DataSizeIsRowsTimesWidth) {
  QueryEstimate e = Estimate("select * from Supplier");
  EXPECT_DOUBLE_EQ(e.data_size(), e.rows * e.width_bytes);
}

TEST_F(StatsEstimatorTest, DistinctCapsCardinality) {
  QueryEstimate all = Estimate("select s.nationkey from Supplier s");
  QueryEstimate distinct =
      Estimate("select distinct s.nationkey from Supplier s");
  EXPECT_LT(distinct.rows, all.rows);
  EXPECT_LE(distinct.rows, 25.0);  // at most one row per nation
}

TEST_F(StatsEstimatorTest, DisjunctiveOnSelectivityIsSumOfBranches) {
  QueryEstimate one = Estimate(
      "select * from Supplier s left outer join Nation n "
      "on s.nationkey = n.nationkey");
  QueryEstimate two = Estimate(
      "select * from Supplier s left outer join Nation n "
      "on (s.nationkey = n.nationkey) or (s.suppkey = n.nationkey)");
  EXPECT_GE(two.rows, one.rows);
}

TEST_F(StatsEstimatorTest, CompositeKeyJoinEstimatesChildCardinality) {
  // (partkey, suppkey) is PartSupp's key: every LineItem row meets one
  // PartSupp row, not 1/V(partkey) * 1/V(suppkey) of them.
  QueryEstimate e = Estimate(
      "select * from PartSupp ps, LineItem l "
      "where ps.partkey = l.partkey and ps.suppkey = l.suppkey");
  double lineitems = stats_->RowCount("LineItem");
  EXPECT_GT(e.rows, lineitems * 0.9);
  EXPECT_LT(e.rows, lineitems * 1.1);
}

TEST_F(StatsEstimatorTest, ConstantColumnEqualityIsAllOrNothing) {
  const std::string labeled =
      "select D.k from (select 4 as L, s.suppkey as k from Supplier s) as D";
  QueryEstimate all = Estimate(labeled);
  QueryEstimate same = Estimate(labeled + " where D.L = 4");
  QueryEstimate other = Estimate(labeled + " where D.L = 5");
  EXPECT_DOUBLE_EQ(same.rows, all.rows);  // selectivity 1
  EXPECT_DOUBLE_EQ(other.rows, 1.0);      // selectivity 0, floored at a row
  // A constant column has one distinct value.
  QueryEstimate distinct = Estimate(
      "select distinct D.L from (select 4 as L from Supplier s) as D");
  EXPECT_DOUBLE_EQ(distinct.rows, 1.0);
}

TEST_F(StatsEstimatorTest, KeyedParentOuterJoinChildEstimatesChildRows) {
  // The parent is unique on the join column, so each child row meets one
  // parent row and the outer join returns about one row per child.
  QueryEstimate e = Estimate(
      "select * from (select 1 as L1, s.suppkey as k from Supplier s) as P "
      "left outer join (select 1 as L1, 4 as L2, ps.suppkey as k, "
      "ps.partkey as pk from PartSupp ps) as C "
      "on C.L2 = 4 and P.k = C.k");
  double partsupps = stats_->RowCount("PartSupp");
  EXPECT_GT(e.rows, partsupps * 0.9);
  EXPECT_LT(e.rows, partsupps * 1.1);
}

TEST_F(StatsEstimatorTest, KeysSurviveDerivedTablesButNotUnion) {
  // Through a derived table the parent stays unique on k ...
  QueryEstimate keyed = Estimate(
      "select * from (select s.suppkey as k from Supplier s) as P, "
      "PartSupp ps where P.k = ps.suppkey");
  EXPECT_DOUBLE_EQ(keyed.rows, stats_->RowCount("PartSupp"));
  // ... but a two-core UNION may repeat k, so the join falls back to the
  // per-column distinct counts.
  QueryEstimate unioned = Estimate(
      "select * from ((select s.suppkey as k from Supplier s) union all "
      "(select s.suppkey as k from Supplier s)) as P, "
      "PartSupp ps where P.k = ps.suppkey");
  EXPECT_DOUBLE_EQ(unioned.rows, 2 * stats_->RowCount("PartSupp"));
}

TEST_F(StatsEstimatorTest, QueryComponentsEstimatedWithinTwoxOfTheirRows) {
  // The oracle genPlan reads: every component of the unified, greedy and
  // fully partitioned plans of Query 1 and Query 2 (reduced, outer-join
  // style) is estimated within 2x of the rows it returns.
  QueryExecutor executor(db_);
  for (std::string_view rxl : {core::Query1Rxl(), core::Query2Rxl()}) {
    auto view = rxl::ParseRxl(rxl);
    ASSERT_TRUE(view.ok()) << view.status();
    auto tree = core::ViewTree::Build(*view, db_->catalog());
    ASSERT_TRUE(tree.ok()) << tree.status();
    CostEstimator oracle(&db_->catalog(), stats_);
    auto plan = core::GeneratePlanGreedy(*tree, &oracle, core::GreedyParams{});
    ASSERT_TRUE(plan.ok()) << plan.status();
    std::vector<uint64_t> masks = plan->PlanMasks();
    masks.push_back(core::Partition::Unified(*tree).mask());
    masks.push_back(core::Partition::FullyPartitioned(*tree).mask());
    core::SqlGenerator gen(&*tree, core::SqlGenStyle::kOuterJoin,
                           /*reduce=*/true);
    for (uint64_t mask : masks) {
      auto partition = core::Partition::FromMask(*tree, mask);
      ASSERT_TRUE(partition.ok()) << partition.status();
      auto specs = gen.GeneratePlan(*partition);
      ASSERT_TRUE(specs.ok()) << specs.status();
      for (const auto& spec : *specs) {
        QueryEstimate e = Estimate(spec.sql);
        auto rows = executor.ExecuteRows(spec.sql, 0, nullptr);
        ASSERT_TRUE(rows.ok()) << rows.status();
        double actual = std::max<double>(rows->size(), 1.0);
        EXPECT_LE(std::max(e.rows / actual, actual / e.rows), 2.0)
            << "mask " << mask << ": estimated " << e.rows << ", returned "
            << actual << "\n" << spec.sql;
      }
    }
  }
}

TEST_F(StatsEstimatorTest, UnknownTableIsError) {
  CostEstimator est(&db_->catalog(), stats_);
  EXPECT_FALSE(est.EstimateSql("select * from Nope").ok());
}

}  // namespace
}  // namespace silkroute::engine
