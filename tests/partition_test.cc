#include "silkroute/partition.h"

#include <gtest/gtest.h>

#include "silkroute/queries.h"
#include "tests/test_util.h"

namespace silkroute::core {
namespace {

using testutil::MakeTinyTpch;
using testutil::MustBuildTree;
using testutil::NodeByName;

class PartitionTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    db_ = MakeTinyTpch().release();
    tree_ = new ViewTree(MustBuildTree(Query1Rxl(), db_->catalog()));
  }
  static void TearDownTestSuite() {
    delete tree_;
    delete db_;
    tree_ = nullptr;
    db_ = nullptr;
  }
  static Database* db_;
  static ViewTree* tree_;
};

Database* PartitionTest::db_ = nullptr;
ViewTree* PartitionTest::tree_ = nullptr;

TEST_F(PartitionTest, NumPlansIsTwoToTheEdges) {
  EXPECT_EQ(NumPlans(*tree_), 512u);  // paper Sec. 2: 2^9 plans
}

TEST_F(PartitionTest, FullyPartitionedHasOneStreamPerNode) {
  Partition p = Partition::FullyPartitioned(*tree_);
  EXPECT_EQ(p.num_streams(), tree_->num_nodes());
  for (const auto& c : p.components()) {
    EXPECT_EQ(c.nodes.size(), 1u);
    EXPECT_EQ(c.root, c.nodes[0]);
  }
}

TEST_F(PartitionTest, UnifiedHasOneStream) {
  Partition p = Partition::Unified(*tree_);
  ASSERT_EQ(p.num_streams(), 1u);
  EXPECT_EQ(p.components()[0].nodes.size(), tree_->num_nodes());
  EXPECT_EQ(p.components()[0].root, 0);
}

TEST_F(PartitionTest, MaskOutOfRangeRejected) {
  EXPECT_FALSE(Partition::FromMask(*tree_, uint64_t{1} << 9).ok());
}

TEST_F(PartitionTest, SingleEdgeMerges) {
  // Keep only the first edge (S1 - S1.1).
  auto p = Partition::FromMask(*tree_, 1);
  ASSERT_TRUE(p.ok());
  EXPECT_EQ(p->num_streams(), tree_->num_nodes() - 1);
  EXPECT_TRUE(p->EdgeKept(0));
  EXPECT_FALSE(p->EdgeKept(1));
  EXPECT_EQ(p->components()[0].nodes.size(), 2u);
}

TEST_F(PartitionTest, StreamCountEqualsNodesMinusKeptEdges) {
  // Spanning-forest property: components = nodes - kept edges.
  for (uint64_t mask = 0; mask < 512; mask += 7) {
    auto p = Partition::FromMask(*tree_, mask);
    ASSERT_TRUE(p.ok());
    EXPECT_EQ(p->num_streams(),
              tree_->num_nodes() - static_cast<size_t>(__builtin_popcountll(mask)))
        << mask;
  }
}

TEST_F(PartitionTest, ComponentsContainParentsOfMembers) {
  // Every non-root member's parent is also a member (connected subtree).
  for (uint64_t mask : {uint64_t{0x1E8}, uint64_t{0x21}, uint64_t{0x1FF}}) {
    auto p = Partition::FromMask(*tree_, mask);
    ASSERT_TRUE(p.ok());
    for (const auto& c : p->components()) {
      for (int id : c.nodes) {
        if (id == c.root) continue;
        int parent = tree_->node(id).parent;
        bool parent_in =
            std::find(c.nodes.begin(), c.nodes.end(), parent) != c.nodes.end();
        bool edge_kept = false;
        auto edges = tree_->Edges();
        for (size_t e = 0; e < edges.size(); ++e) {
          if (edges[e].second == id && p->EdgeKept(e)) edge_kept = true;
        }
        EXPECT_EQ(parent_in, edge_kept);
      }
    }
  }
}

TEST_F(PartitionTest, ToStringListsAllComponents) {
  Partition p = Partition::FullyPartitioned(*tree_);
  std::string s = p.ToString();
  EXPECT_NE(s.find("{S1}"), std::string::npos);
  EXPECT_NE(s.find("{S1.4.2.3}"), std::string::npos);
}

TEST_F(PartitionTest, ExecClassesWithoutReductionAreSingletons) {
  Partition p = Partition::Unified(*tree_);
  auto exec = BuildExecComponent(*tree_, p.components()[0], /*reduce=*/false);
  ASSERT_TRUE(exec.ok());
  EXPECT_EQ(exec->nodes.size(), tree_->num_nodes());
  for (const auto& cls : exec->nodes) {
    EXPECT_EQ(cls.covered.size(), 1u);
  }
}

TEST_F(PartitionTest, ReductionCollapsesOneEdgesUnified) {
  // Query 1 unified + reduction: classes {S1,S1.1,S1.2,S1.3},
  // {S1.4,S1.4.1}, {S1.4.2,S1.4.2.1,S1.4.2.2,S1.4.2.3} — the Fig. 11
  // pattern.
  Partition p = Partition::Unified(*tree_);
  auto exec = BuildExecComponent(*tree_, p.components()[0], /*reduce=*/true);
  ASSERT_TRUE(exec.ok());
  ASSERT_EQ(exec->nodes.size(), 3u);
  EXPECT_EQ(exec->nodes[0].covered.size(), 4u);
  EXPECT_EQ(exec->nodes[0].head, 0);
  EXPECT_EQ(exec->nodes[1].covered.size(), 2u);
  EXPECT_EQ(exec->nodes[1].head, NodeByName(*tree_, "S1.4"));
  EXPECT_EQ(exec->nodes[2].covered.size(), 4u);
  EXPECT_EQ(exec->nodes[2].head, NodeByName(*tree_, "S1.4.2"));
  // Class tree: part-class under supplier-class, order-class under part.
  EXPECT_EQ(exec->nodes[0].parent, -1);
  EXPECT_EQ(exec->nodes[1].parent, 0);
  EXPECT_EQ(exec->nodes[2].parent, 1);
  EXPECT_EQ(exec->nodes[0].children, (std::vector<int>{1}));
}

TEST_F(PartitionTest, ReductionOnlyCollapsesKeptEdges) {
  // Cut the S1-S1.1 edge (edge 0): S1.1 is its own component and the root
  // class covers only {S1, S1.2, S1.3}.
  uint64_t all = (uint64_t{1} << 9) - 1;
  auto p = Partition::FromMask(*tree_, all & ~uint64_t{1});
  ASSERT_TRUE(p.ok());
  ASSERT_EQ(p->num_streams(), 2u);
  auto exec0 = BuildExecComponent(*tree_, p->components()[0], true);
  ASSERT_TRUE(exec0.ok());
  EXPECT_EQ(exec0->nodes[0].covered.size(), 3u);
  auto exec1 = BuildExecComponent(*tree_, p->components()[1], true);
  ASSERT_TRUE(exec1.ok());
  EXPECT_EQ(exec1->nodes.size(), 1u);  // the lone name node
}

TEST_F(PartitionTest, StarEdgesNeverCollapse) {
  Partition p = Partition::Unified(*tree_);
  auto exec = BuildExecComponent(*tree_, p.components()[0], true);
  ASSERT_TRUE(exec.ok());
  int part = NodeByName(*tree_, "S1.4");
  int order = NodeByName(*tree_, "S1.4.2");
  for (const auto& cls : exec->nodes) {
    bool has_supplier =
        std::find(cls.covered.begin(), cls.covered.end(), 0) != cls.covered.end();
    bool has_part =
        std::find(cls.covered.begin(), cls.covered.end(), part) != cls.covered.end();
    bool has_order =
        std::find(cls.covered.begin(), cls.covered.end(), order) != cls.covered.end();
    EXPECT_LE(has_supplier + has_part + has_order, 1);
  }
}

}  // namespace
}  // namespace silkroute::core
