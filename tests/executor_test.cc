#include <gtest/gtest.h>

#include <algorithm>

#include "engine/executor.h"
#include "sql/parser.h"

namespace silkroute::engine {
namespace {

/// A small two-table fixture mirroring the paper's running example:
///   Supplier(suppkey*, name, nationkey)  -- supplier 3 has no parts
///   Part(partkey*, suppkey, pname)
///   Nation(nationkey*, nname)
class ExecutorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    TableSchema supplier("Supplier", {{"suppkey", DataType::kInt64, false},
                                      {"name", DataType::kString, false},
                                      {"nationkey", DataType::kInt64, false}});
    ASSERT_TRUE(supplier.SetPrimaryKey({"suppkey"}).ok());
    ASSERT_TRUE(db_.CreateTable(supplier).ok());
    TableSchema part("Part", {{"partkey", DataType::kInt64, false},
                              {"suppkey", DataType::kInt64, false},
                              {"pname", DataType::kString, false}});
    ASSERT_TRUE(part.SetPrimaryKey({"partkey"}).ok());
    ASSERT_TRUE(db_.CreateTable(part).ok());
    TableSchema nation("Nation", {{"nationkey", DataType::kInt64, false},
                                  {"nname", DataType::kString, false}});
    ASSERT_TRUE(nation.SetPrimaryKey({"nationkey"}).ok());
    ASSERT_TRUE(db_.CreateTable(nation).ok());

    Insert("Supplier", {Value::Int64(1), Value::String("s1"), Value::Int64(10)});
    Insert("Supplier", {Value::Int64(2), Value::String("s2"), Value::Int64(11)});
    Insert("Supplier", {Value::Int64(3), Value::String("s3"), Value::Int64(10)});
    Insert("Part", {Value::Int64(100), Value::Int64(1), Value::String("brass")});
    Insert("Part", {Value::Int64(101), Value::Int64(1), Value::String("steel")});
    Insert("Part", {Value::Int64(102), Value::Int64(2), Value::String("nickel")});
    Insert("Nation", {Value::Int64(10), Value::String("USA")});
    Insert("Nation", {Value::Int64(11), Value::String("Spain")});
  }

  void Insert(const std::string& table, Tuple row) {
    ASSERT_TRUE(db_.Insert(table, std::move(row)).ok());
  }

  Relation Run(const std::string& sql) {
    QueryExecutor exec(&db_);
    auto result = exec.ExecuteSql(sql);
    EXPECT_TRUE(result.ok()) << sql << "\n" << result.status();
    last_stats_ = exec.stats();
    return result.ok() ? std::move(result).value() : Relation{};
  }

  Status RunError(const std::string& sql) {
    QueryExecutor exec(&db_);
    auto result = exec.ExecuteSql(sql);
    EXPECT_FALSE(result.ok()) << sql;
    return result.status();
  }

  Database db_;
  ExecStats last_stats_;
};

TEST_F(ExecutorTest, FullScan) {
  Relation r = Run("select * from Supplier");
  EXPECT_EQ(r.rows.size(), 3u);
  EXPECT_EQ(r.schema.size(), 3u);
  EXPECT_EQ(r.schema.column(0).FullName(), "Supplier.suppkey");
}

TEST_F(ExecutorTest, AliasQualifiesColumns) {
  Relation r = Run("select s.name from Supplier s");
  ASSERT_EQ(r.rows.size(), 3u);
  EXPECT_EQ(r.rows[0][0].AsString(), "s1");
}

TEST_F(ExecutorTest, FilterPushdown) {
  Relation r = Run("select * from Supplier s where s.suppkey = 2");
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.rows[0][1].AsString(), "s2");
}

TEST_F(ExecutorTest, ProjectionWithLiteralsAndArithmetic) {
  Relation r = Run("select 1 as one, s.suppkey + 10 as k from Supplier s "
                   "where s.suppkey = 1");
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.rows[0][0].AsInt64(), 1);
  EXPECT_EQ(r.rows[0][1].AsInt64(), 11);
}

TEST_F(ExecutorTest, CommaJoinUsesHashJoin) {
  Relation r = Run(
      "select s.name, p.pname from Supplier s, Part p "
      "where s.suppkey = p.suppkey");
  EXPECT_EQ(r.rows.size(), 3u);
  EXPECT_GE(last_stats_.hash_joins, 1u);
  EXPECT_EQ(last_stats_.nested_loop_joins, 0u);
}

TEST_F(ExecutorTest, ThreeWayChainJoin) {
  Relation r = Run(
      "select s.name, p.pname, n.nname from Supplier s, Part p, Nation n "
      "where s.suppkey = p.suppkey and s.nationkey = n.nationkey");
  EXPECT_EQ(r.rows.size(), 3u);
  for (const auto& row : r.rows) {
    EXPECT_FALSE(row[2].is_null());
  }
}

TEST_F(ExecutorTest, CrossProductWhenNoPredicate) {
  Relation r = Run("select * from Supplier s, Nation n");
  EXPECT_EQ(r.rows.size(), 6u);  // 3 x 2
}

TEST_F(ExecutorTest, ExplicitInnerJoin) {
  Relation r = Run(
      "select s.name, n.nname from Supplier s join Nation n "
      "on s.nationkey = n.nationkey where s.suppkey = 1");
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.rows[0][1].AsString(), "USA");
}

TEST_F(ExecutorTest, LeftOuterJoinKeepsUnmatched) {
  Relation r = Run(
      "select s.suppkey, p.pname from Supplier s "
      "left outer join Part p on s.suppkey = p.suppkey "
      "order by s.suppkey, p.pname");
  // s1 x 2 parts, s2 x 1 part, s3 padded.
  ASSERT_EQ(r.rows.size(), 4u);
  EXPECT_EQ(r.rows[3][0].AsInt64(), 3);
  EXPECT_TRUE(r.rows[3][1].is_null());
}

TEST_F(ExecutorTest, LeftOuterJoinWithResidualOnCondition) {
  // The ON-condition filter keeps the left row with padding when no match
  // passes the residual (standard LOJ semantics).
  Relation r = Run(
      "select s.suppkey, p.pname from Supplier s "
      "left outer join Part p on s.suppkey = p.suppkey and p.pname = 'brass' "
      "order by s.suppkey");
  ASSERT_EQ(r.rows.size(), 3u);
  EXPECT_EQ(r.rows[0][1].AsString(), "brass");
  EXPECT_TRUE(r.rows[1][1].is_null());
  EXPECT_TRUE(r.rows[2][1].is_null());
}

TEST_F(ExecutorTest, DisjunctiveOuterJoin) {
  // The unified outer-join shape: OR of branch conditions with literal tags.
  Relation r = Run(
      "select s.suppkey, Q.L2, Q.v from Supplier s left outer join "
      "((select 1 as L2, n.nationkey as k, n.nname as v from Nation n) union "
      " (select 2 as L2, p.suppkey as k, p.pname as v from Part p)) as Q "
      "on (Q.L2 = 1 and s.nationkey = Q.k) or (Q.L2 = 2 and s.suppkey = Q.k) "
      "order by s.suppkey, Q.L2, Q.v");
  // s1: nation + 2 parts; s2: nation + 1 part; s3: nation only.
  ASSERT_EQ(r.rows.size(), 6u);
  EXPECT_EQ(last_stats_.nested_loop_joins, 0u);  // decomposed, not fallback
  EXPECT_EQ(r.rows[0][1].AsInt64(), 1);          // s1 nation row first
  EXPECT_EQ(r.rows[1][2].AsString(), "brass");
  EXPECT_EQ(r.rows[5][1].AsInt64(), 1);          // s3 has only the nation row
}

TEST_F(ExecutorTest, NestedLoopFallbackForInequalityJoin) {
  Relation r = Run(
      "select s.suppkey, n.nationkey from Supplier s join Nation n "
      "on s.nationkey < n.nationkey");
  EXPECT_EQ(r.rows.size(), 2u);  // suppliers with nationkey 10 match nation 11
  EXPECT_GE(last_stats_.nested_loop_joins, 1u);
}

TEST_F(ExecutorTest, NullsNeverMatchInHashJoin) {
  TableSchema t("WithNulls", {{"k", DataType::kInt64, true}});
  ASSERT_TRUE(db_.CreateTable(t).ok());
  Insert("WithNulls", {Value::Null()});
  Insert("WithNulls", {Value::Int64(1)});
  Relation r = Run(
      "select * from WithNulls a join WithNulls b on a.k = b.k");
  EXPECT_EQ(r.rows.size(), 1u);
}

TEST_F(ExecutorTest, UnionAllConcatenates) {
  Relation r = Run(
      "(select s.suppkey as k from Supplier s) union all "
      "(select p.partkey as k from Part p)");
  EXPECT_EQ(r.rows.size(), 6u);
}

TEST_F(ExecutorTest, UnionArityMismatchIsError) {
  Status s = RunError(
      "(select suppkey, name from Supplier) union (select partkey from Part)");
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
}

TEST_F(ExecutorTest, OrderByAscendingAndDescending) {
  Relation r = Run("select s.suppkey as k from Supplier s order by k desc");
  ASSERT_EQ(r.rows.size(), 3u);
  EXPECT_EQ(r.rows[0][0].AsInt64(), 3);
  EXPECT_EQ(r.rows[2][0].AsInt64(), 1);
}

TEST_F(ExecutorTest, OrderByNonProjectedColumn) {
  // The paper's generated queries sort by columns of the pre-projection
  // relation (e.g. `order by s.suppkey` with a different select list).
  Relation r = Run(
      "select s.name from Supplier s order by s.nationkey desc, s.suppkey");
  ASSERT_EQ(r.rows.size(), 3u);
  EXPECT_EQ(r.rows[0][0].AsString(), "s2");  // nationkey 11 first
}

TEST_F(ExecutorTest, OrderByNullsFirst) {
  Relation r = Run(
      "select s.suppkey, p.pname from Supplier s "
      "left outer join Part p on s.suppkey = p.suppkey "
      "order by p.pname, s.suppkey");
  ASSERT_EQ(r.rows.size(), 4u);
  EXPECT_TRUE(r.rows[0][1].is_null());  // padded row sorts first
}

TEST_F(ExecutorTest, OrderByOnUnionOutput) {
  Relation r = Run(
      "(select s.suppkey as k from Supplier s) union all "
      "(select p.partkey as k from Part p) order by k desc");
  ASSERT_EQ(r.rows.size(), 6u);
  EXPECT_EQ(r.rows[0][0].AsInt64(), 102);
}

TEST_F(ExecutorTest, DerivedTableExecutesSubquery) {
  Relation r = Run(
      "select D.k from (select s.suppkey as k from Supplier s "
      "where s.nationkey = 10) as D order by D.k");
  ASSERT_EQ(r.rows.size(), 2u);
  EXPECT_EQ(r.rows[0][0].AsInt64(), 1);
  EXPECT_EQ(r.rows[1][0].AsInt64(), 3);
}

TEST_F(ExecutorTest, DerivedTableJoinsWithBase) {
  Relation r = Run(
      "select s.name, D.pname from Supplier s, "
      "(select p.suppkey as sk, p.pname as pname from Part p) as D "
      "where s.suppkey = D.sk order by D.pname");
  EXPECT_EQ(r.rows.size(), 3u);
}

TEST_F(ExecutorTest, SelectNoFromYieldsOneRow) {
  Relation r = Run("select 1 as a, 'x' as b");
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.rows[0][1].AsString(), "x");
}

TEST_F(ExecutorTest, UnknownTableIsError) {
  EXPECT_EQ(RunError("select * from Nope").code(), StatusCode::kNotFound);
}

TEST_F(ExecutorTest, UnknownColumnIsError) {
  EXPECT_EQ(RunError("select s.nope from Supplier s").code(),
            StatusCode::kNotFound);
}

TEST_F(ExecutorTest, StatsCountScannedRows) {
  Run("select * from Supplier s, Part p where s.suppkey = p.suppkey");
  EXPECT_EQ(last_stats_.rows_scanned, 6u);  // 3 suppliers + 3 parts
}

TEST_F(ExecutorTest, ResidualCrossItemPredicate) {
  // A non-equi predicate across FROM items must survive as a residual
  // filter after the greedy joins.
  Relation r = Run(
      "select s.suppkey, p.partkey from Supplier s, Part p "
      "where s.suppkey = p.suppkey and p.partkey > s.suppkey + 99");
  EXPECT_EQ(r.rows.size(), 2u);  // (1,101) and (2,102); (1,100) fails 100>100
}

TEST_F(ExecutorTest, DistinctRemovesDuplicateRows) {
  Relation r = Run("select distinct p.suppkey from Part p order by suppkey");
  ASSERT_EQ(r.rows.size(), 2u);  // parts belong to suppliers 1 and 2
  EXPECT_EQ(r.rows[0][0].AsInt64(), 1);
  EXPECT_EQ(r.rows[1][0].AsInt64(), 2);
}

TEST_F(ExecutorTest, DistinctKeepsDistinctRows) {
  Relation r = Run("select distinct p.partkey, p.suppkey from Part p");
  EXPECT_EQ(r.rows.size(), 3u);
}

TEST_F(ExecutorTest, DistinctTreatsNullsAsEqual) {
  TableSchema t("D", {{"k", DataType::kInt64, true}});
  ASSERT_TRUE(db_.CreateTable(t).ok());
  Insert("D", {Value::Null()});
  Insert("D", {Value::Null()});
  Insert("D", {Value::Int64(1)});
  Relation r = Run("select distinct d.k from D d");
  EXPECT_EQ(r.rows.size(), 2u);
}

TEST_F(ExecutorTest, DistinctRoundTripsThroughSqlText) {
  auto q = sql::ParseQuery("select distinct a from T");
  ASSERT_TRUE(q.ok());
  EXPECT_EQ((*q)->ToSql(), "select distinct a from T");
}

TEST_F(ExecutorTest, SelfJoinWithDistinctAliases) {
  Relation r = Run(
      "select a.suppkey, b.suppkey from Supplier a, Supplier b "
      "where a.nationkey = b.nationkey and a.suppkey < b.suppkey");
  ASSERT_EQ(r.rows.size(), 1u);  // (1, 3) share nationkey 10
  EXPECT_EQ(r.rows[0][0].AsInt64(), 1);
  EXPECT_EQ(r.rows[0][1].AsInt64(), 3);
}

TEST(ExecutorTimeoutTest, CrossProductStopsAtTheDeadline) {
  // Two 100k-row tables and no join predicate: the 10^10-row cross product
  // must end in kTimeout, not in an up-front allocation sized for it.
  Database db;
  for (const char* name : {"a", "b"}) {
    ASSERT_TRUE(
        db.CreateTable(TableSchema(name, {{"k", DataType::kInt64, false}}))
            .ok());
    Table* table = *db.GetTable(name);
    table->Reserve(100000);
    for (int64_t i = 0; i < 100000; ++i) {
      ASSERT_TRUE(table->Insert(Tuple{Value::Int64(i)}).ok());
    }
  }
  QueryExecutor exec(&db);
  exec.set_timeout_ms(50);
  auto result = exec.ExecuteSql("select a.k, b.k from a, b");
  EXPECT_EQ(result.status().code(), StatusCode::kTimeout) << result.status();
}

}  // namespace
}  // namespace silkroute::engine
