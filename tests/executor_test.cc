#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <optional>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

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

TEST_F(ExecutorTest, ArithmeticOnAStringIsAnError) {
  // Every place an expression is evaluated: a computed item, a constant
  // item, a WHERE filter, a hash join's residual, a nested-loop join and a
  // computed ORDER BY key over a UNION whose second core is a string.
  for (const char* sql :
       {"select s.name + 0 as x from Supplier s",
        "select 'a' * 2 as x from Supplier s",
        "select s.suppkey from Supplier s where s.name - 1 > 0",
        "select s.suppkey from Supplier s, Part p "
        "where s.suppkey = p.suppkey and s.name + p.partkey > 0",
        "select s.suppkey from Supplier s left outer join Part p "
        "on s.name * p.partkey = 1",
        "select s.suppkey as k from Supplier s union all "
        "select p.pname as k from Part p order by k + 0"}) {
    const Status status = RunError(sql);
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument)
        << sql << ": " << status;
    EXPECT_NE(status.message().find("non-numeric"), std::string::npos)
        << status;
  }
  // The batch hand-over evaluates computed items only when it is bound,
  // so the query itself must already refuse them.
  QueryExecutor exec(&db_);
  auto rows = exec.ExecuteRows("select s.name + 0 as x from Supplier s", 0,
                               nullptr);
  EXPECT_EQ(rows.status().code(), StatusCode::kInvalidArgument);
  // Numbers and NULLs are unaffected.
  Relation r = Run(
      "select s.suppkey * 2 + 0.5 as x, null + 1 as y from Supplier s "
      "order by x");
  ASSERT_EQ(r.rows.size(), 3u);
  EXPECT_EQ(r.rows[0][0], Value::Double(2.5));
  EXPECT_TRUE(r.rows[0][1].is_null());
}

TEST_F(ExecutorTest, Int64OverflowYieldsTheDoubleResult) {
  const int64_t max = std::numeric_limits<int64_t>::max();
  Insert("Supplier",
         {Value::Int64(max), Value::String("big"), Value::Int64(10)});
  Relation r = Run(
      "select s.suppkey + 1 as a, s.suppkey * 2 as b, 0 - s.suppkey - 2 as c, "
      "s.suppkey - 1 as d from Supplier s where s.suppkey > 3");
  ASSERT_EQ(r.rows.size(), 1u);
  const double big = static_cast<double>(max);
  EXPECT_EQ(r.rows[0][0], Value::Double(big + 1));
  EXPECT_EQ(r.rows[0][1], Value::Double(big * 2));
  EXPECT_EQ(r.rows[0][2], Value::Double(-big - 2));
  ASSERT_TRUE(r.rows[0][3].is_int64());  // no overflow: exact
  EXPECT_EQ(r.rows[0][3].AsInt64(), max - 1);
}

// ---------------------------------------------------------------------------
// Join equality matrix: every hash-join kernel against nested loops
// ---------------------------------------------------------------------------

constexpr int64_t kExact = int64_t{1} << 53;  // the codec's tiebreaker limit

/// Join-key equality by nested loops: Value::SqlEquals (NULL never
/// matches, 3 == 3.0, -0.0 == 0.0), refined at the one point the key codec
/// documents (key_codec.h): an int64 and a double whose image reaches
/// 2^53 are equal only when the double is exactly that integer.
bool JoinEquals(const Value& a, const Value& b) {
  if (!a.SqlEquals(b)) return false;
  if (a.is_int64() == b.is_int64() || a.is_string() || b.is_string()) {
    return true;
  }
  const int64_t i = a.is_int64() ? a.AsInt64() : b.AsInt64();
  const double d = a.is_int64() ? b.AsDouble() : a.AsDouble();
  if (std::fabs(d) < static_cast<double>(kExact)) return true;
  return d >= -9223372036854775808.0 && d < 9223372036854775808.0 &&
         static_cast<int64_t>(d) == i;
}

/// One side of a join: its numeric-or-NULL cells, then its string cells.
struct KeySide {
  std::vector<Value> numeric;
  std::vector<Value> strings;
  std::vector<Value> All() const {
    std::vector<Value> all = numeric;
    all.insert(all.end(), strings.begin(), strings.end());
    return all;
  }
};

/// key_codec_test's corpus, cut down to the join-equality edge cases.
KeySide ProbeCorpus() {
  return {{Value::Null(), Value::Int64(3), Value::Double(3.0),
           Value::Double(-0.0), Value::Double(0.0), Value::Int64(kExact - 1),
           Value::Int64(-(kExact - 1)), Value::Int64(kExact),
           Value::Int64(-kExact), Value::Int64(kExact + 1),
           Value::Double(static_cast<double>(kExact)), Value::Double(1e300),
           Value::Double(-2.5), Value::Int64(0)},
          {Value::String(""), Value::String(std::string("\0", 1)),
           Value::String(std::string("a\0b", 3)), Value::String("a"),
           Value::String("3"), Value::String("")}};
}

/// The build side: the same cells in another order, some repeated, so a
/// key's chain holds several rows.
KeySide BuildCorpus() {
  KeySide side = ProbeCorpus();
  std::reverse(side.numeric.begin(), side.numeric.end());
  std::reverse(side.strings.begin(), side.strings.end());
  side.numeric.push_back(Value::Int64(kExact + 1));
  side.numeric.push_back(Value::Double(3.0));
  side.numeric.push_back(Value::Int64(kExact));
  side.numeric.push_back(Value::Null());
  side.strings.push_back(Value::String(std::string("\0", 1)));
  side.strings.push_back(Value::String("3"));
  return side;
}

using Pair = std::pair<int64_t, std::optional<int64_t>>;

class JoinEqualityTest : public ::testing::Test {
 protected:
  /// Tables <name>N(id, v DOUBLE) and <name>S(id, v STRING) holding the
  /// side's cells; ids number the cells of All() from `first_id`.
  void AddSide(const std::string& name, const KeySide& side,
               int64_t first_id) {
    int64_t id = first_id;
    for (const auto& [suffix, type, cells] :
         {std::tuple{"N", DataType::kDouble, &side.numeric},
          std::tuple{"S", DataType::kString, &side.strings}}) {
      const std::string table = name + suffix;
      ASSERT_TRUE(db_.CreateTable(TableSchema(table,
                                              {{"id", DataType::kInt64, false},
                                               {"v", type, true}}))
                      .ok());
      for (const Value& v : *cells) {
        ASSERT_TRUE(db_.Insert(table, Tuple{Value::Int64(id++), v}).ok());
      }
    }
  }

  std::vector<Pair> Run(const std::string& sql) {
    QueryExecutor exec(&db_);
    auto result = exec.ExecuteSql(sql);
    EXPECT_TRUE(result.ok()) << sql << "\n" << result.status();
    stats_ = exec.stats();
    std::vector<Pair> pairs;
    if (!result.ok()) return pairs;
    for (const Tuple& row : result->rows) {
      pairs.emplace_back(row[0].AsInt64(),
                         row[1].is_null() ? std::nullopt
                                          : std::optional(row[1].AsInt64()));
    }
    return pairs;
  }

  /// Nested loops: probe order, then ascending build row; `outer` pads an
  /// unmatched probe row, `match` decides each pair by position.
  template <typename Match>
  static std::vector<Pair> Expected(size_t probe_rows, int64_t probe_id,
                                    size_t build_rows, int64_t build_id,
                                    bool outer, const Match& match) {
    std::vector<Pair> pairs;
    for (size_t l = 0; l < probe_rows; ++l) {
      bool matched = false;
      for (size_t r = 0; r < build_rows; ++r) {
        if (!match(l, r)) continue;
        matched = true;
        pairs.emplace_back(probe_id + static_cast<int64_t>(l),
                           build_id + static_cast<int64_t>(r));
      }
      if (!matched && outer) {
        pairs.emplace_back(probe_id + static_cast<int64_t>(l), std::nullopt);
      }
    }
    return pairs;
  }

  Database db_;
  ExecStats stats_;
};

TEST_F(JoinEqualityTest, EveryKernelMatchesNestedLoopsOverTheCorpus) {
  const KeySide probe = ProbeCorpus(), build = BuildCorpus();
  AddSide("L", probe, 0);
  AddSide("R", build, 0);
  // A UNION ALL derived table materializes, so its one column holds
  // numerics and strings side by side as Values; a base table's column is
  // read from its typed arrays.
  const std::string a =
      "(select id, v from LN union all select id, v from LS) as a";
  const std::string b =
      "(select id, v from RN union all select id, v from RS) as b";
  struct Source {
    std::string a, b;
    std::vector<Value> probe, build;
    int64_t probe_id, build_id;
  };
  const int64_t strings_at = static_cast<int64_t>(probe.numeric.size());
  const int64_t build_strings_at = static_cast<int64_t>(build.numeric.size());
  const std::vector<Source> sources = {
      {a, b, probe.All(), build.All(), 0, 0},
      {"LN a", "RN b", probe.numeric, build.numeric, 0, 0},
      {"LS a", "RS b", probe.strings, build.strings, strings_at,
       build_strings_at},
  };
  for (const Source& src : sources) {
    const auto equal = [&](size_t l, size_t r) {
      return JoinEquals(src.probe[l], src.build[r]);
    };
    const auto expected = [&](bool outer, const auto& match) {
      return Expected(src.probe.size(), src.probe_id, src.build.size(),
                      src.build_id, outer, match);
    };
    const std::string select = "select a.id, b.id from ";
    EXPECT_EQ(Run(select + src.a + ", " + src.b + " where a.v = b.v"),
              expected(false, equal))
        << src.a;
    EXPECT_EQ(Run(select + src.a + " join " + src.b + " on a.v = b.v"),
              expected(false, equal))
        << src.a;
    EXPECT_EQ(
        Run(select + src.a + " left outer join " + src.b + " on a.v = b.v"),
        expected(true, equal))
        << src.a;
    // Two disjuncts: equal keys, or equal ids.
    EXPECT_EQ(Run(select + src.a + " left outer join " + src.b +
                  " on a.v = b.v or a.id = b.id"),
              expected(true, [&](size_t l, size_t r) {
                return equal(l, r) ||
                       src.probe_id + static_cast<int64_t>(l) ==
                           src.build_id + static_cast<int64_t>(r);
              }))
        << src.a;
    EXPECT_EQ(stats_.nested_loop_joins, 0u);  // the disjunctive hash join
  }
}

TEST_F(JoinEqualityTest, TwoColumnKeyMixesAStringAndAnInt) {
  const std::vector<std::pair<std::string, int64_t>> probe = {
      {"a", 1}, {"a", kExact}, {"", kExact + 1}, {"b", 1}, {"a", 2}};
  const std::vector<std::pair<std::string, int64_t>> build = {
      {"a", kExact + 1}, {"a", 1}, {"", kExact}, {"a", kExact},
      {"", kExact + 1},  {"a", 1}, {"b", 2}};
  for (const auto& [name, rows] : {std::pair{"L2", &probe},
                                   std::pair{"R2", &build}}) {
    ASSERT_TRUE(db_.CreateTable(TableSchema(name,
                                            {{"id", DataType::kInt64, false},
                                             {"s", DataType::kString, false},
                                             {"i", DataType::kInt64, false}}))
                    .ok());
    int64_t id = 0;
    for (const auto& [str, i] : *rows) {
      ASSERT_TRUE(db_.Insert(name, Tuple{Value::Int64(id++), Value::String(str),
                                         Value::Int64(i)})
                      .ok());
    }
  }
  const auto equal = [&](size_t l, size_t r) {
    return probe[l].first == build[r].first && probe[l].second == build[r].second;
  };
  EXPECT_EQ(Run("select a.id, b.id from L2 a join R2 b "
                "on a.s = b.s and a.i = b.i"),
            Expected(probe.size(), 0, build.size(), 0, false, equal));
  EXPECT_GT(stats_.keys_verified, 0u);  // a string column is never exact
  EXPECT_EQ(Run("select a.id, b.id from L2 a left outer join R2 b "
                "on a.i = b.i and a.s = b.s"),
            Expected(probe.size(), 0, build.size(), 0, true, equal));
}

TEST_F(JoinEqualityTest, WordTiesAreSettledByTheCodecSegment) {
  // Past 2^53 the word is the double image alone, which int64 2^53 and
  // 2^53 + 1 share: the verify step must tell them apart, and must still
  // match int64 2^53 with the double 2^53.
  for (const char* name : {"I", "J"}) {
    ASSERT_TRUE(db_.CreateTable(TableSchema(name,
                                            {{"id", DataType::kInt64, false},
                                             {"v", DataType::kDouble, false}}))
                    .ok());
  }
  ASSERT_TRUE(db_.Insert("I", Tuple{Value::Int64(0), Value::Int64(kExact)}).ok());
  ASSERT_TRUE(
      db_.Insert("J", Tuple{Value::Int64(0), Value::Int64(kExact + 1)}).ok());
  ASSERT_TRUE(db_.Insert("J", Tuple{Value::Int64(1),
                                    Value::Double(static_cast<double>(kExact))})
                  .ok());
  EXPECT_EQ(Run("select I.id, J.id from I, J where I.v = J.v"),
            (std::vector<Pair>{{0, 1}}));
  EXPECT_EQ(stats_.keys_verified, 2u);  // both candidates share the word

  // Below 2^53 a word match is final: nothing is verified.
  EXPECT_EQ(Run("select a.id, b.id from J a, J b where a.id = b.id"),
            (std::vector<Pair>{{0, 0}, {1, 1}}));
  EXPECT_EQ(stats_.keys_verified, 0u);
}

// ---------------------------------------------------------------------------
// ORDER BY: the in-order check, the word sort and the byte sort
// ---------------------------------------------------------------------------

/// K(id, a INT64, d DOUBLE, s STRING), all but id nullable, whose rows a
/// test loads in the order it wants ORDER BY to meet them: a scan hands
/// them over in that order. The reference is the loaded rows stably sorted
/// under Value::Compare, so equal keys keep their load order; the test
/// compares ids, so 3 and 3.0 (or -0.0 and 0.0) are told apart.
class OrderByTest : public ::testing::Test {
 protected:
  struct Key {
    size_t col;  // 1 = a, 2 = d, 3 = s
    bool ascending;
  };

  void Load(const std::vector<Tuple>& rows) {
    ASSERT_TRUE(db_.CreateTable(TableSchema("K",
                                            {{"id", DataType::kInt64, false},
                                             {"a", DataType::kInt64, true},
                                             {"d", DataType::kDouble, true},
                                             {"s", DataType::kString, true}}))
                    .ok());
    int64_t id = 0;
    for (const Tuple& row : rows) {
      Tuple full{Value::Int64(id++)};
      for (const Value& v : row.values()) full.Append(v);
      ASSERT_TRUE(db_.Insert("K", full).ok());
      rows_.push_back(std::move(full));
    }
  }

  std::vector<int64_t> Expected(const std::vector<Key>& keys) const {
    std::vector<Tuple> rows = rows_;
    std::stable_sort(rows.begin(), rows.end(),
                     [&](const Tuple& x, const Tuple& y) {
                       for (const Key& k : keys) {
                         const int c = x[k.col].Compare(y[k.col]);
                         if (c != 0) return k.ascending ? c < 0 : c > 0;
                       }
                       return false;
                     });
    return Ids(rows);
  }

  /// The ids `sql` returns, its counters in stats_.
  std::vector<int64_t> Run(const std::string& sql) {
    QueryExecutor exec(&db_);
    auto result = exec.ExecuteSql(sql);
    EXPECT_TRUE(result.ok()) << sql << "\n" << result.status();
    stats_ = exec.stats();
    return result.ok() ? Ids(result->rows) : std::vector<int64_t>{};
  }

  /// Runs `select * from K order by <keys>` and checks it against the
  /// reference; `in_order` and `bytes` are the path it must take.
  void ExpectSorted(const std::vector<Key>& keys, bool in_order, bool bytes) {
    static const char* const kNames[] = {"id", "a", "d", "s"};
    std::string sql = "select * from K order by ";
    for (size_t i = 0; i < keys.size(); ++i) {
      sql += std::string(i > 0 ? ", " : "") + kNames[keys[i].col] +
             (keys[i].ascending ? "" : " desc");
    }
    EXPECT_EQ(Run(sql), Expected(keys)) << sql;
    EXPECT_EQ(stats_.sorts_in_order, in_order ? 1u : 0u) << sql;
    EXPECT_EQ(stats_.sorts_on_bytes, bytes ? 1u : 0u) << sql;
    EXPECT_EQ(stats_.rows_sorted, rows_.size()) << sql;
    EXPECT_EQ(stats_.keys_encoded, rows_.size()) << sql;
  }

  static std::vector<int64_t> Ids(const std::vector<Tuple>& rows) {
    std::vector<int64_t> ids;
    for (const Tuple& row : rows) ids.push_back(row[0].AsInt64());
    return ids;
  }

  Database db_;
  std::vector<Tuple> rows_;
  ExecStats stats_;
};

constexpr int64_t kBig = int64_t{1} << 53;  // past it a word is not exact

Tuple Row(Value a, Value d = Value::Null(), Value s = Value::Null()) {
  return Tuple{std::move(a), std::move(d), std::move(s)};
}

/// 40 rows whose (a, d) pairs ascend, ties on a included, in layout
/// `layout`: 0 as they are, 1 reversed, 2 with rows 30 and 31 (equal on a)
/// swapped.
std::vector<Tuple> PairsInLayout(int layout) {
  std::vector<Tuple> rows;
  for (int64_t i = 0; i < 40; ++i) {
    rows.push_back(Row(Value::Int64(i / 3), Value::Double(0.5 * (i % 3))));
  }
  if (layout == 1) std::reverse(rows.begin(), rows.end());
  if (layout == 2) std::swap(rows[30], rows[31]);
  return rows;
}

TEST_F(OrderByTest, InputAlreadyInOrderRunsNoSort) {
  Load(PairsInLayout(0));
  ExpectSorted({{1, true}, {2, true}}, true, false);
  ExpectSorted({{1, true}}, true, false);
  // Three words: the third is read from the word array on two-word ties.
  ExpectSorted({{1, true}, {1, false}, {2, true}}, true, false);
  ExpectSorted({{1, false}, {2, false}}, false, false);
  ExpectSorted({{1, false}, {1, true}, {2, false}}, false, false);
}

TEST_F(OrderByTest, ReversedInputIsSorted) {
  Load(PairsInLayout(1));
  ExpectSorted({{1, true}, {2, true}}, false, false);
  ExpectSorted({{1, true}}, false, false);
  ExpectSorted({{1, true}, {1, false}, {2, true}}, false, false);
  ExpectSorted({{1, false}, {2, false}}, true, false);
}

TEST_F(OrderByTest, NearlyInOrderInputIsSorted) {
  Load(PairsInLayout(2));
  ExpectSorted({{1, true}, {2, true}}, false, false);
  ExpectSorted({{1, true}}, true, false);  // the swapped rows tie on a
  ExpectSorted({{1, true}, {1, false}, {2, true}}, false, false);
  ExpectSorted({{1, false}, {2, false}}, false, false);
}

TEST_F(OrderByTest, NullKeysSortFirstAscendingAndLastDescending) {
  Load({Row(Value::Int64(2)), Row(Value::Null()), Row(Value::Int64(-1)),
        Row(Value::Null(), Value::Double(1.5)), Row(Value::Int64(0))});
  ExpectSorted({{1, true}}, false, false);
  ExpectSorted({{1, false}}, false, false);
  ExpectSorted({{1, true}, {2, false}}, false, false);
  ExpectSorted({{2, true}, {1, true}}, false, false);
  EXPECT_EQ(Run("select * from K order by a").front(), 1);  // a NULL first
  EXPECT_EQ(Run("select * from K order by a desc").back(), 3);
}

TEST_F(OrderByTest, CrossTypeTiesKeepInputOrder) {
  // 3 and 3.0 tie, as do -0.0, 0.0 and 0: input order decides, on input
  // that is already in order and on input that needs the sort.
  Load({Row(Value::Int64(1), Value::Double(-0.0)),
        Row(Value::Int64(1), Value::Double(0.0)),
        Row(Value::Int64(1), Value::Int64(0)),
        Row(Value::Int64(1), Value::Double(3.0)),
        Row(Value::Int64(1), Value::Int64(3)),
        Row(Value::Int64(0), Value::Int64(0)),
        Row(Value::Int64(0), Value::Double(-0.0)),
        Row(Value::Int64(0), Value::Int64(3)),
        Row(Value::Int64(0), Value::Double(3.0))});
  ExpectSorted({{2, true}}, false, false);
  ExpectSorted({{2, false}}, false, false);
  ExpectSorted({{1, false}, {2, true}}, true, false);
  ExpectSorted({{1, true}, {2, true}}, false, false);
  EXPECT_EQ(Run("select * from K where a = 1 order by d"),
            (std::vector<int64_t>{0, 1, 2, 3, 4}));
  EXPECT_EQ(stats_.sorts_in_order, 1u);
}

TEST_F(OrderByTest, GiantAndStringKeysTakeTheByteSort) {
  // 2^53 + 1 and 2^53 share a word (the image 2^53), so the words alone
  // would keep them in input order: the byte sort's tiebreaker puts 2^53
  // first. A string key, and a double past 2^53, take the byte sort too.
  Load({Row(Value::Int64(kBig + 1), Value::Double(1e300), Value::String("b")),
        Row(Value::Int64(kBig), Value::Double(-1e300), Value::String("")),
        Row(Value::Int64(-kBig), Value::Int64(kBig + 2), Value::Null()),
        Row(Value::Null(), Value::Double(static_cast<double>(kBig)),
            Value::String("a")),
        Row(Value::Int64(7), Value::Double(2.5), Value::String("a"))});
  ExpectSorted({{1, true}}, false, true);
  ExpectSorted({{1, false}}, false, true);
  ExpectSorted({{2, true}}, false, true);
  ExpectSorted({{3, true}, {1, true}}, false, true);
  ExpectSorted({{3, false}, {2, false}}, false, true);
  EXPECT_EQ(Run("select * from K where a < 9 order by s"),
            (std::vector<int64_t>{2, 4}));  // a NULL string, then "a"
  EXPECT_EQ(stats_.sorts_in_order, 1u);
  EXPECT_EQ(stats_.sorts_on_bytes, 1u);
}

TEST_F(OrderByTest, NoNumericWordCollidesWithNull) {
  // The all-ones NaN's image is 0, NULL's word: such a key takes the byte
  // sort, where NULL's tag sorts below every numeric.
  uint64_t bits = ~uint64_t{0};
  double nan = 0;
  std::memcpy(&nan, &bits, sizeof(nan));
  Load({Row(Value::Int64(1), Value::Double(nan)), Row(Value::Int64(2)),
        Row(Value::Int64(3), Value::Double(nan))});
  EXPECT_EQ(Run("select * from K order by d"),
            (std::vector<int64_t>{1, 0, 2}));
  EXPECT_EQ(stats_.sorts_on_bytes, 1u);
  EXPECT_EQ(Run("select * from K order by d desc"),
            (std::vector<int64_t>{0, 2, 1}));
}

TEST_F(OrderByTest, UnionAllAndComputedKeys) {
  Load({Row(Value::Int64(5)), Row(Value::Int64(1)), Row(Value::Null()),
        Row(Value::Int64(9)), Row(Value::Int64(1))});
  // Rows are numbered core by core: in order only across both cores.
  EXPECT_EQ(Run("(select id, a from K where a >= 5) union all "
                "(select id, a from K where a < 5) order by a"),
            (std::vector<int64_t>{1, 4, 0, 3}));
  EXPECT_EQ(stats_.sorts_in_order, 0u);
  EXPECT_EQ(stats_.sorts_on_bytes, 0u);
  EXPECT_EQ(Run("(select id, a from K where a < 5) union all "
                "(select id, a from K where a >= 5) order by a"),
            (std::vector<int64_t>{1, 4, 0, 3}));
  EXPECT_EQ(stats_.sorts_in_order, 1u);
  // Each core's literal is a key of its own rows, as the outer-union
  // plans' `L1` is: the literal orders the cores, then a within each.
  EXPECT_EQ(Run("(select id, 2 as L, a from K where a >= 5) union all "
                "(select id, 1 as L, a from K where a < 5 or a is null) "
                "order by L, a desc"),
            (std::vector<int64_t>{1, 4, 2, 3, 0}));
  EXPECT_EQ(stats_.sorts_in_order, 0u);
  EXPECT_EQ(stats_.sorts_on_bytes, 0u);
  EXPECT_EQ(Run("(select id, 1 as L, a from K where a < 5) union all "
                "(select id, 2 as L, a from K where a >= 5) order by L"),
            (std::vector<int64_t>{1, 4, 0, 3}));
  EXPECT_EQ(stats_.sorts_in_order, 1u);
  // A computed key takes the byte sort, in either direction.
  ExpectSorted({{1, true}}, false, false);
  EXPECT_EQ(Run("select * from K order by a + 0"), Expected({{1, true}}));
  EXPECT_EQ(stats_.sorts_on_bytes, 1u);
  EXPECT_EQ(Run("select * from K order by a + 0 desc"),
            Expected({{1, false}}));
  EXPECT_EQ(stats_.sorts_on_bytes, 1u);
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

TEST(ExecutorTimeoutTest, SkewedJoinStopsAtTheDeadline) {
  // 250 probe rows x 40,000 build rows, every key equal: 10^7 output rows
  // from fewer probe rows than one deadline-check interval. The deadline
  // must be checked on emitted rows, not only per probe row.
  Database db;
  const std::pair<const char*, int> tables[] = {{"a", 250}, {"b", 40000}};
  for (const auto& [name, rows] : tables) {
    ASSERT_TRUE(db.CreateTable(TableSchema(name,
                                           {{"k", DataType::kInt64, false},
                                            {"v", DataType::kInt64, false}}))
                    .ok());
    Table* table = *db.GetTable(name);
    table->Reserve(rows);
    for (int64_t i = 0; i < rows; ++i) {
      ASSERT_TRUE(table->Insert(Tuple{Value::Int64(7), Value::Int64(i)}).ok());
    }
  }
  for (const char* sql :
       {"select a.v, b.v from a, b where a.k = b.k",
        "select a.v, b.v from a left outer join b on a.k = b.k",
        "select a.v, b.v from a, b where a.k = b.k order by b.v, a.v"}) {
    QueryExecutor exec(&db);
    exec.set_timeout_ms(50);
    auto result = exec.ExecuteSql(sql);
    EXPECT_EQ(result.status().code(), StatusCode::kTimeout)
        << sql << ": " << result.status();
  }
}

}  // namespace
}  // namespace silkroute::engine
