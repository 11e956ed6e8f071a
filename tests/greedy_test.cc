#include "silkroute/greedy.h"

#include <gtest/gtest.h>

#include <set>
#include <sstream>
#include <string>

#include "engine/estimator.h"
#include "engine/measured_oracle.h"
#include "engine/stats.h"
#include "obs/profile.h"
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

/// CostOracle shim that records the normalized text of every SQL the
/// greedy search probes, so a test can "run the workload" the plan implies.
class CapturingOracle : public engine::CostOracle {
 public:
  explicit CapturingOracle(engine::CostOracle* inner) : inner_(inner) {}
  Result<engine::QueryEstimate> EstimateSql(std::string_view sql) override {
    seen.insert(obs::NormalizeSql(sql));
    return inner_->EstimateSql(sql);
  }
  std::set<std::string> seen;

 private:
  engine::CostOracle* const inner_;
};

TEST_F(GreedyTest, ObservedProfileOverlayChangesThePlan) {
  // Synthetic baseline: the estimator's plan, which leaves some edges
  // split or optional (DefaultsPlanFamilyForQuery1).
  GreedyPlan synthetic_plan = Run(GreedyParams{});
  ASSERT_LT(synthetic_plan.mandatory_edges.size(), tree_->num_edges());

  // An observed workload the synthetic model disagrees with: every
  // component query costs a flat 100 ms regardless of shape (per-query
  // overhead dominates — common when the RDBMS round-trip is the cost).
  // Then merging any two queries saves a whole round-trip: relative cost
  // ~ a*(C - 2C) = -1e7, far below t1 = -3e5, so the measured overlay
  // must promote every edge to mandatory. The profile reaches the merged
  // candidates by fixpoint: re-plan, record every SQL the search probed
  // at the observed cost, repeat until no new text appears.
  obs::WorkloadProfile profile;
  engine::CostEstimator synthetic(&db_->catalog(), stats_);
  std::set<std::string> known;
  GreedyPlan measured_plan;
  uint64_t final_overlay_hits = 0;
  for (int round = 0; round < 16; ++round) {
    engine::MeasuredCostOracle overlay(&synthetic, &profile);
    CapturingOracle capture(&overlay);
    auto plan = GeneratePlanGreedy(*tree_, &capture, GreedyParams{});
    ASSERT_TRUE(plan.ok()) << plan.status();
    measured_plan = std::move(plan).value();
    final_overlay_hits = overlay.overlay_hits();
    size_t before = known.size();
    for (const auto& sql : capture.seen) {
      if (known.insert(sql).second) profile.RecordQuery(sql, 100.0, 1, 1);
    }
    if (known.size() == before) break;  // fixpoint: profile covers the search
  }
  EXPECT_GT(final_overlay_hits, 0u);
  EXPECT_EQ(measured_plan.mandatory_edges.size(), tree_->num_edges());
  EXPECT_TRUE(measured_plan.optional_edges.empty());
  // The chosen plan demonstrably changed: one fully-unified query set
  // instead of the synthetic family.
  EXPECT_NE(measured_plan.PlanMasks(), synthetic_plan.PlanMasks());

  // Different plan, same document: the mask only re-partitions the view
  // into SQL components, so both plans' XML must match byte for byte.
  Publisher publisher(db_);
  PublishOptions options;
  std::ostringstream synthetic_xml;
  std::ostringstream measured_xml;
  auto a = publisher.ExecutePlan(*tree_, synthetic_plan.PlanMasks().front(),
                                 options, &synthetic_xml);
  ASSERT_TRUE(a.ok()) << a.status();
  auto b = publisher.ExecutePlan(*tree_, measured_plan.FullMask(), options,
                                 &measured_xml);
  ASSERT_TRUE(b.ok()) << b.status();
  EXPECT_EQ(synthetic_xml.str(), measured_xml.str());
  EXPECT_FALSE(synthetic_xml.str().empty());
}

TEST_F(GreedyTest, PlanOracleBypassesThePreparedPlanCache) {
  // The overlay loop above, through one Publisher that first stored the
  // synthetic plan of the same text: every overlay publish must plan
  // afresh (a measured oracle drifts as its profile records), and the
  // stored synthetic plan must survive the overlay publishes untouched.
  Publisher publisher(db_);
  PublishOptions options;
  options.document_element = "suppliers";
  std::ostringstream synthetic_xml;
  auto synthetic = publisher.Publish(Query1Rxl(), options, &synthetic_xml);
  ASSERT_TRUE(synthetic.ok()) << synthetic.status();
  GreedyPlan expected = Run(GreedyParams{});
  ASSERT_EQ(synthetic->greedy_plan.mandatory_edges, expected.mandatory_edges);
  ASSERT_EQ(synthetic->greedy_plan.optional_edges, expected.optional_edges);
  ASSERT_LT(expected.mandatory_edges.size(), tree_->num_edges());

  obs::WorkloadProfile profile;
  std::set<std::string> known;
  GreedyPlan measured_plan;
  for (int round = 0; round < 16; ++round) {
    engine::MeasuredCostOracle overlay(publisher.estimator(), &profile);
    CapturingOracle capture(&overlay);
    PublishOptions overlaid = options;
    overlaid.plan_oracle = &capture;
    std::ostringstream xml;
    auto result = publisher.Publish(Query1Rxl(), overlaid, &xml);
    ASSERT_TRUE(result.ok()) << result.status();
    EXPECT_FALSE(result->metrics.plan_cached) << "round " << round;
    EXPECT_EQ(xml.str(), synthetic_xml.str());
    measured_plan = result->greedy_plan;
    size_t before = known.size();
    for (const auto& sql : capture.seen) {
      if (known.insert(sql).second) profile.RecordQuery(sql, 100.0, 1, 1);
    }
    if (known.size() == before) break;
  }
  EXPECT_EQ(measured_plan.mandatory_edges.size(), tree_->num_edges());
  EXPECT_TRUE(measured_plan.optional_edges.empty());
  EXPECT_EQ(publisher.prepared_plans(), 1u);

  std::ostringstream again_xml;
  auto again = publisher.Publish(Query1Rxl(), options, &again_xml);
  ASSERT_TRUE(again.ok()) << again.status();
  EXPECT_TRUE(again->metrics.plan_cached);
  EXPECT_EQ(again->greedy_plan.mandatory_edges,
            synthetic->greedy_plan.mandatory_edges);
  EXPECT_EQ(again->greedy_plan.optional_edges,
            synthetic->greedy_plan.optional_edges);
  EXPECT_EQ(again_xml.str(), synthetic_xml.str());
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
