#include "silkroute/greedy.h"

#include <gtest/gtest.h>

#include <string>

#include "engine/estimator.h"
#include "engine/stats.h"
#include "rxl/parser.h"
#include "silkroute/publisher.h"
#include "silkroute/queries.h"
#include "silkroute/subview.h"
#include "tests/test_util.h"

namespace silkroute::core {
namespace {

using testutil::MakeTinyTpch;
using testutil::MustBuildTree;
using testutil::NodeByName;

class GreedyTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    db_ = MakeTinyTpch(0.01).release();
    stats_ = new engine::DatabaseStats(engine::DatabaseStats::Collect(*db_));
    tree_ = new ViewTree(MustBuildTree(Query1Rxl(), db_->catalog()));
  }
  static void TearDownTestSuite() {
    delete tree_;
    delete stats_;
    delete db_;
    tree_ = nullptr;
    stats_ = nullptr;
    db_ = nullptr;
  }

  GreedyPlan Run(const GreedyParams& params) {
    engine::CostEstimator oracle(&db_->catalog(), stats_);
    auto plan = GeneratePlanGreedy(*tree_, &oracle, params);
    EXPECT_TRUE(plan.ok()) << plan.status();
    return plan.ok() ? std::move(plan).value() : GreedyPlan{};
  }

  static Database* db_;
  static engine::DatabaseStats* stats_;
  static ViewTree* tree_;
};

Database* GreedyTest::db_ = nullptr;
engine::DatabaseStats* GreedyTest::stats_ = nullptr;
ViewTree* GreedyTest::tree_ = nullptr;

TEST_F(GreedyTest, DefaultsPlanFamilyForQuery1) {
  // Paper Fig. 18(b) keeps the whole part/order spine mandatory. With
  // key-aware cardinalities the oracle prices the order component at its
  // real size, and genPlan splits the supplier->part and part->order edges
  // instead (EXPERIMENTS.md E5): the order subtree and the part name stay
  // mandatory, and the shallow name/nation/region edges stay optional.
  GreedyPlan plan = Run(GreedyParams{});
  EXPECT_EQ(plan.mandatory_edges.size(), 4u);
  EXPECT_EQ(plan.optional_edges.size(), 3u);
  EXPECT_EQ(plan.PlanMasks().size(), 8u);

  auto edges = tree_->Edges();
  int root = NodeByName(*tree_, "S1");
  int part = NodeByName(*tree_, "S1.4");
  int order = NodeByName(*tree_, "S1.4.2");
  auto listed = [](const std::vector<size_t>& list, size_t e) {
    return std::find(list.begin(), list.end(), e) != list.end();
  };
  for (size_t e = 0; e < edges.size(); ++e) {
    auto [parent, child] = edges[e];
    bool split = child == part || child == order;
    bool optional = parent == root && !split;
    EXPECT_EQ(listed(plan.optional_edges, e), optional) << "edge " << e;
    EXPECT_EQ(listed(plan.mandatory_edges, e), !optional && !split)
        << "edge " << e;
  }
}

TEST_F(GreedyTest, ThresholdsPartitionEdges) {
  // Very permissive t1: everything mandatory.
  GreedyParams all;
  all.t1 = 1e18;
  GreedyPlan plan = Run(all);
  EXPECT_EQ(plan.mandatory_edges.size(), tree_->num_edges());
  EXPECT_TRUE(plan.optional_edges.empty());
  EXPECT_EQ(plan.FullMask(), Partition::Unified(*tree_).mask());

  // Impossible thresholds: nothing merges.
  GreedyParams none;
  none.t1 = -1e18;
  none.t2 = -1e18;
  plan = Run(none);
  EXPECT_TRUE(plan.mandatory_edges.empty());
  EXPECT_TRUE(plan.optional_edges.empty());
  EXPECT_EQ(plan.PlanMasks(), (std::vector<uint64_t>{0}));
}

TEST_F(GreedyTest, PlanMasksEnumerateOptionalSubsets) {
  GreedyPlan plan;
  plan.mandatory_edges = {0, 2};
  plan.optional_edges = {4, 7};
  auto masks = plan.PlanMasks();
  ASSERT_EQ(masks.size(), 4u);
  uint64_t base = (1u << 0) | (1u << 2);
  EXPECT_EQ(masks[0], base);
  EXPECT_EQ(masks[3], base | (1u << 4) | (1u << 7));
  EXPECT_EQ(plan.FullMask(), masks[3]);
}

TEST_F(GreedyTest, OracleRequestsFarBelowQuadraticBound) {
  // Paper Sec. 5.1: far fewer than |E|^2 = 81 requests thanks to caching.
  GreedyPlan plan = Run(GreedyParams{});
  EXPECT_GT(plan.oracle_requests, 0u);
  EXPECT_LT(plan.oracle_requests, 81u);
}

TEST_F(GreedyTest, ReducedAndNonReducedBothProducePlans) {
  GreedyParams nored;
  nored.reduce = false;
  GreedyPlan plan = Run(nored);
  EXPECT_GT(plan.mandatory_edges.size() + plan.optional_edges.size(), 0u);
}

TEST_F(GreedyTest, OuterUnionStyleSupported) {
  GreedyParams params;
  params.style = SqlGenStyle::kOuterUnion;
  GreedyPlan plan = Run(params);
  EXPECT_GT(plan.mandatory_edges.size() + plan.optional_edges.size(), 0u);
}

TEST_F(GreedyTest, DeepestEdgesMergeFirst) {
  // The relative-cost ranking merges the most beneficial (deepest) edges
  // first; with a threshold that admits only the single best edge class,
  // only order-subtree edges appear.
  GreedyParams params;
  params.t1 = -3e6;
  params.t2 = -3e6;
  GreedyPlan plan = Run(params);
  ASSERT_FALSE(plan.mandatory_edges.empty());
  auto edges = tree_->Edges();
  int order = NodeByName(*tree_, "S1.4.2");
  for (size_t e : plan.mandatory_edges) {
    EXPECT_EQ(edges[e].first, order);
  }
}

TEST_F(GreedyTest, ToStringRendersEdges) {
  GreedyPlan plan = Run(GreedyParams{});
  std::string s = plan.ToString(*tree_);
  EXPECT_NE(s.find("mandatory"), std::string::npos);
  EXPECT_NE(s.find("S1.4.2-S1.4.2.1"), std::string::npos);
}

TEST_F(GreedyTest, NodeSetMemoKeepsPlansAndRequestCounts) {
  // genPlan memoizes costs by node set before the SQL-keyed oracle cache;
  // the plans and the distinct-request counts are pinned to the values
  // the SQL-only memo produced on this database.
  auto view = rxl::ParseRxl(Query1Rxl());
  ASSERT_TRUE(view.ok()) << view.status();
  auto nation = ComposeSubview(*view, "/supplier[nation='FRANCE']");
  ASSERT_TRUE(nation.ok()) << nation.status();
  struct Pin {
    std::string rxl;
    std::vector<size_t> mandatory;
    std::vector<size_t> optional;
    size_t requests;
  };
  const std::vector<Pin> pins = {
      {std::string(Query1Rxl()), {4, 6, 7, 8}, {0, 1, 2}, 30},
      {std::string(Query2Rxl()), {5, 6, 7, 8}, {0, 1, 2}, 33},
      {nation->ToString(), {5, 6, 7, 8}, {0, 1, 2, 3, 4}, 32},
  };
  for (const Pin& pin : pins) {
    ViewTree tree = MustBuildTree(pin.rxl, db_->catalog());
    engine::CostEstimator oracle(&db_->catalog(), stats_);
    auto plan = GeneratePlanGreedy(tree, &oracle, GreedyParams{});
    ASSERT_TRUE(plan.ok()) << plan.status();
    EXPECT_EQ(plan->mandatory_edges, pin.mandatory);
    EXPECT_EQ(plan->optional_edges, pin.optional);
    EXPECT_EQ(plan->oracle_requests, pin.requests);
  }
}

TEST_F(GreedyTest, Query2PlansParallelStarEdges) {
  ViewTree tree2 = MustBuildTree(Query2Rxl(), db_->catalog());
  engine::CostEstimator oracle(&db_->catalog(), stats_);
  auto plan = GeneratePlanGreedy(tree2, &oracle, GreedyParams{});
  ASSERT_TRUE(plan.ok()) << plan.status();
  // The order subtree (under the supplier) merges mandatorily here too.
  EXPECT_GE(plan->mandatory_edges.size(), 3u);
  EXPECT_GE(plan->PlanMasks().size(), 1u);
  EXPECT_LT(plan->oracle_requests, 81u);
}

}  // namespace
}  // namespace silkroute::core
