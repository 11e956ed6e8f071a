#include <gtest/gtest.h>

#include <set>

#include "engine/executor.h"
#include "tpch/generator.h"
#include "tpch/schema.h"

namespace silkroute::tpch {
namespace {

class TpchTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    db_ = new Database();
    TpchConfig config;
    config.scale_factor = 0.005;
    ASSERT_TRUE(GenerateTpch(config, db_).ok());
  }
  static void TearDownTestSuite() {
    delete db_;
    db_ = nullptr;
  }

  size_t Rows(const std::string& table) {
    auto t = db_->GetTable(table);
    EXPECT_TRUE(t.ok());
    return t.ok() ? (*t)->num_rows() : 0;
  }

  static Database* db_;
};

Database* TpchTest::db_ = nullptr;

TEST_F(TpchTest, SchemaHasAllEightTables) {
  for (const char* name : {"Region", "Nation", "Supplier", "Part", "PartSupp",
                           "Customer", "Orders", "LineItem"}) {
    EXPECT_TRUE(db_->catalog().HasTable(name)) << name;
  }
}

TEST_F(TpchTest, RowCountsFollowScale) {
  TpchRowCounts counts = CountsForScale(0.005);
  EXPECT_EQ(Rows("Region"), counts.region);
  EXPECT_EQ(Rows("Nation"), counts.nation);
  EXPECT_EQ(Rows("Supplier"), counts.supplier);
  EXPECT_EQ(Rows("Part"), counts.part);
  EXPECT_EQ(Rows("PartSupp"), counts.partsupp);
  EXPECT_EQ(Rows("Customer"), counts.customer);
  EXPECT_EQ(Rows("Orders"), counts.orders);
  EXPECT_GT(Rows("LineItem"), Rows("Orders"));  // >= 1 item per order
}

TEST_F(TpchTest, CountsForScaleHasFloors) {
  TpchRowCounts tiny = CountsForScale(1e-9);
  EXPECT_GE(tiny.supplier, 10u);
  EXPECT_GE(tiny.part, 40u);
  EXPECT_EQ(tiny.nation, 25u);
}

TEST_F(TpchTest, GenerationIsDeterministic) {
  Database db1, db2;
  TpchConfig config;
  config.scale_factor = 0.002;
  ASSERT_TRUE(GenerateTpch(config, &db1).ok());
  ASSERT_TRUE(GenerateTpch(config, &db2).ok());
  for (const char* name : {"Supplier", "LineItem", "Orders"}) {
    auto t1 = db1.GetTable(name);
    auto t2 = db2.GetTable(name);
    ASSERT_TRUE(t1.ok() && t2.ok());
    ASSERT_EQ((*t1)->num_rows(), (*t2)->num_rows()) << name;
    for (size_t i = 0; i < (*t1)->num_rows(); ++i) {
      ASSERT_EQ((*t1)->Row(i), (*t2)->Row(i)) << name << " row " << i;
    }
  }
}

TEST_F(TpchTest, DifferentSeedsProduceDifferentData) {
  Database db1, db2;
  TpchConfig c1, c2;
  c1.scale_factor = c2.scale_factor = 0.002;
  c2.seed = c1.seed + 1;
  ASSERT_TRUE(GenerateTpch(c1, &db1).ok());
  ASSERT_TRUE(GenerateTpch(c2, &db2).ok());
  auto t1 = db1.GetTable("Supplier");
  auto t2 = db2.GetTable("Supplier");
  bool any_diff = false;
  for (size_t i = 0; i < (*t1)->num_rows() && i < (*t2)->num_rows(); ++i) {
    if (!((*t1)->Row(i) == (*t2)->Row(i))) any_diff = true;
  }
  EXPECT_TRUE(any_diff);
}

TEST_F(TpchTest, PrimaryKeysAreUnique) {
  // Property: re-inserting all generated rows through the validating path
  // must succeed (types, nullability, PK uniqueness).
  Database fresh;
  ASSERT_TRUE(CreateTpchSchema(&fresh).ok());
  for (const char* name : {"Region", "Nation", "Supplier", "Part", "PartSupp",
                           "Customer", "Orders", "LineItem"}) {
    auto src = db_->GetTable(name);
    ASSERT_TRUE(src.ok());
    for (size_t i = 0; i < (*src)->num_rows(); ++i) {
      ASSERT_TRUE(fresh.Insert(name, (*src)->Row(i)).ok()) << name;
    }
  }
}

TEST_F(TpchTest, ForeignKeysResolve) {
  // Every declared FK value must exist in the target table (checked with
  // the engine itself: anti-join must be empty).
  engine::QueryExecutor exec(db_);
  struct Check {
    const char* sql;
  } checks[] = {
      {"select s.suppkey from Supplier s left outer join Nation n on "
       "s.nationkey = n.nationkey where n.nationkey is null"},
      {"select o.orderkey from Orders o left outer join Customer c on "
       "o.custkey = c.custkey where c.custkey is null"},
      {"select l.orderkey from LineItem l left outer join Orders o on "
       "l.orderkey = o.orderkey where o.orderkey is null"},
      {"select ps.partkey from PartSupp ps left outer join Part p on "
       "ps.partkey = p.partkey where p.partkey is null"},
      {"select ps.partkey from PartSupp ps left outer join Supplier s on "
       "ps.suppkey = s.suppkey where s.suppkey is null"},
      {"select n.nationkey from Nation n left outer join Region r on "
       "n.regionkey = r.regionkey where r.regionkey is null"},
  };
  for (const auto& check : checks) {
    auto r = exec.ExecuteSql(check.sql);
    ASSERT_TRUE(r.ok()) << check.sql << ": " << r.status();
    EXPECT_EQ(r->rows.size(), 0u) << check.sql;
  }
}

TEST_F(TpchTest, LineItemPairsComeFromPartSupp) {
  engine::QueryExecutor exec(db_);
  auto r = exec.ExecuteSql(
      "select l.orderkey from LineItem l left outer join PartSupp ps on "
      "l.partkey = ps.partkey and l.suppkey = ps.suppkey "
      "where ps.partkey is null");
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_EQ(r->rows.size(), 0u);
}

TEST_F(TpchTest, SomeSuppliersHaveNoParts) {
  engine::QueryExecutor exec(db_);
  auto r = exec.ExecuteSql(
      "select s.suppkey from Supplier s left outer join PartSupp ps on "
      "s.suppkey = ps.suppkey where ps.suppkey is null");
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_GT(r->rows.size(), 0u);  // outer joins must have unmatched parents
}

TEST_F(TpchTest, SuppliersDistinctWithinOrder) {
  // The generator guarantees distinct suppliers per order, so the paper's
  // views never create duplicate <order> instances.
  auto li = db_->GetTable("LineItem");
  ASSERT_TRUE(li.ok());
  std::map<int64_t, std::set<int64_t>> suppliers_by_order;
  for (size_t i = 0; i < (*li)->num_rows(); ++i) {
    const Tuple row = (*li)->Row(i);
    int64_t orderkey = row[0].AsInt64();
    int64_t suppkey = row[2].AsInt64();
    EXPECT_TRUE(suppliers_by_order[orderkey].insert(suppkey).second)
        << "order " << orderkey << " repeats supplier " << suppkey;
  }
}

TEST_F(TpchTest, QueryTimeoutAborts) {
  engine::QueryExecutor exec(db_);
  exec.set_timeout_ms(1e-6);  // already expired at the first check
  auto r = exec.ExecuteSql(
      "select l.orderkey from LineItem l, Orders o "
      "where l.orderkey = o.orderkey");
  EXPECT_EQ(r.status().code(), StatusCode::kTimeout);
}

TEST_F(TpchTest, GenerousTimeoutSucceeds) {
  engine::QueryExecutor exec(db_);
  exec.set_timeout_ms(60000);
  auto r = exec.ExecuteSql(
      "select l.orderkey from LineItem l, Orders o "
      "where l.orderkey = o.orderkey");
  EXPECT_TRUE(r.ok()) << r.status();
}

TEST_F(TpchTest, TimeoutPropagatesIntoDerivedTables) {
  engine::QueryExecutor exec(db_);
  exec.set_timeout_ms(1e-6);
  auto r = exec.ExecuteSql(
      "select D.k from (select l.orderkey as k from LineItem l, Orders o "
      "where l.orderkey = o.orderkey) as D");
  EXPECT_EQ(r.status().code(), StatusCode::kTimeout);
}

TEST_F(TpchTest, DatabaseSizeScalesRoughlyLinearly) {
  Database small, large;
  TpchConfig cs, cl;
  cs.scale_factor = 0.002;
  cl.scale_factor = 0.008;
  ASSERT_TRUE(GenerateTpch(cs, &small).ok());
  ASSERT_TRUE(GenerateTpch(cl, &large).ok());
  double ratio = static_cast<double>(large.TotalByteSize()) /
                 static_cast<double>(small.TotalByteSize());
  EXPECT_GT(ratio, 2.0);
  EXPECT_LT(ratio, 8.0);
}

}  // namespace
}  // namespace silkroute::tpch
