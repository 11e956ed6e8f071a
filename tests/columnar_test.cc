// Tests for the columnar base storage (DESIGN.md §16):
//
//  - ColumnVector round-trips: null bitmap + exact Value identity for
//    every value type a column can hold, including int64 cells inside a
//    kDouble column, -0.0 vs 0.0 bit patterns, and the ±2^53 tiebreaker
//    magnitudes;
//  - string-pool stability under interleaved Reserve/append growth;
//  - Table's single representation: every column holds one cell per row
//    and Row(i) reproduces the i-th inserted tuple exactly;
//  - version()/RowsAppendedSince semantics — the result cache's freshness
//    key must go conservatively stale on every commit, never wrongly
//    fresh;
//  - shape-checked inserts: a row the columns cannot represent is refused
//    by both insert paths with no trace left in the table;
//  - a seeded mutation-interleaved republish harness (mirror of
//    result_cache_test.cc): warm cached publishes must stay byte-identical
//    to fresh uncached ones while a writer appends rows between publishes.
#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "engine/executor.h"
#include "engine/result_cache.h"
#include "relational/columnar.h"
#include "relational/database.h"
#include "relational/schema.h"
#include "relational/table.h"
#include "relational/value.h"
#include "silkroute/publisher.h"
#include "silkroute/queries.h"
#include "tests/test_util.h"

namespace silkroute {
namespace {

/// Exact representation identity (the differential harness's notion):
/// Int64(3) != Double(3.0), -0.0 != 0.0 bitwise.
bool ValueIdentical(const Value& a, const Value& b) {
  if (a.is_null() || b.is_null()) return a.is_null() && b.is_null();
  if (a.is_int64() != b.is_int64() || a.is_double() != b.is_double() ||
      a.is_string() != b.is_string()) {
    return false;
  }
  if (a.is_int64()) return a.AsInt64() == b.AsInt64();
  if (a.is_double()) {
    const double x = a.AsDouble();
    const double y = b.AsDouble();
    return std::memcmp(&x, &y, sizeof(x)) == 0;
  }
  return a.AsString() == b.AsString();
}

TEST(ColumnVectorTest, NullBitmapRoundTripsEveryValueType) {
  // kInt64 column: int64s and NULLs.
  {
    ColumnVector cv(DataType::kInt64);
    const std::vector<Value> corpus = {
        Value::Int64(0), Value::Null(), Value::Int64(-1),
        Value::Int64(INT64_MIN), Value::Int64(INT64_MAX), Value::Null(),
        Value::Int64((int64_t{1} << 53) + 1),
        Value::Int64(-(int64_t{1} << 53) - 1)};
    for (const Value& v : corpus) cv.Append(v);
    ASSERT_EQ(cv.size(), corpus.size());
    for (size_t i = 0; i < corpus.size(); ++i) {
      EXPECT_EQ(cv.IsNull(i), corpus[i].is_null()) << "cell " << i;
      EXPECT_TRUE(ValueIdentical(cv.ValueAt(i), corpus[i])) << "cell " << i;
      if (!corpus[i].is_null()) {
        EXPECT_TRUE(cv.CellIsInt64(i)) << "cell " << i;
        EXPECT_EQ(cv.Int64At(i), corpus[i].AsInt64()) << "cell " << i;
      }
    }
  }
  // kDouble column: doubles, *int64s* (legal per Table::Insert's widened
  // type check), and NULLs. The exact subtype must survive.
  {
    ColumnVector cv(DataType::kDouble);
    const std::vector<Value> corpus = {
        Value::Double(-0.0), Value::Double(0.0), Value::Null(),
        Value::Double(-1e300), Value::Double(9007199254740994.0),
        Value::Int64(3), Value::Double(3.0), Value::Null(),
        Value::Int64((int64_t{1} << 53) + 1)};
    for (const Value& v : corpus) cv.Append(v);
    ASSERT_EQ(cv.size(), corpus.size());
    for (size_t i = 0; i < corpus.size(); ++i) {
      EXPECT_EQ(cv.IsNull(i), corpus[i].is_null()) << "cell " << i;
      EXPECT_TRUE(ValueIdentical(cv.ValueAt(i), corpus[i])) << "cell " << i;
      if (!corpus[i].is_null()) {
        EXPECT_EQ(cv.CellIsInt64(i), corpus[i].is_int64()) << "cell " << i;
      }
    }
    // -0.0 and 0.0 are distinct bit patterns in storage.
    const double neg = cv.DoubleAt(0);
    const double pos = cv.DoubleAt(1);
    EXPECT_NE(std::memcmp(&neg, &pos, sizeof(neg)), 0);
  }
  // kString column: strings (embedded NULs included) and NULLs. A NULL
  // string cell and an empty string cell must stay distinguishable.
  {
    ColumnVector cv(DataType::kString);
    const std::vector<Value> corpus = {
        Value::String(""), Value::Null(), Value::String("abc"),
        Value::String(std::string("a\0b", 3)), Value::Null(),
        Value::String(std::string(1000, 'x'))};
    for (const Value& v : corpus) cv.Append(v);
    ASSERT_EQ(cv.size(), corpus.size());
    for (size_t i = 0; i < corpus.size(); ++i) {
      EXPECT_EQ(cv.IsNull(i), corpus[i].is_null()) << "cell " << i;
      EXPECT_TRUE(ValueIdentical(cv.ValueAt(i), corpus[i])) << "cell " << i;
    }
    EXPECT_FALSE(cv.IsNull(0));  // empty string is not NULL
    EXPECT_TRUE(cv.IsNull(1));
  }
}

TEST(ColumnVectorTest, StringPoolStableUnderReserveAndAppendGrowth) {
  ColumnVector cv(DataType::kString);
  std::vector<std::string> expected;
  for (int round = 0; round < 4; ++round) {
    // Interleave Reserve with appends whose sizes force repeated pool
    // reallocation; earlier cells must keep reading back exactly.
    cv.Reserve(100);
    for (int i = 0; i < 100; ++i) {
      std::string s = "r" + std::to_string(round) + ":" + std::to_string(i) +
                      std::string(static_cast<size_t>(i % 37), 'p');
      expected.push_back(s);
      cv.Append(Value::String(std::move(s)));
    }
    for (size_t i = 0; i < expected.size(); ++i) {
      ASSERT_EQ(cv.StringAt(i), expected[i]) << "cell " << i << " after round "
                                             << round;
    }
  }
}

/// A mixed-type table plus the test's own copy of the inserted rows.
struct MixedTable {
  std::unique_ptr<Table> table;
  std::vector<Tuple> rows;
};

MixedTable MakeMixedTable(size_t rows) {
  TableSchema schema("t", {{"k", DataType::kInt64, /*nullable=*/true},
                           {"d", DataType::kDouble, true},
                           {"s", DataType::kString, true}});
  MixedTable mixed{std::make_unique<Table>(std::move(schema)), {}};
  std::mt19937 rng(7u);
  for (size_t r = 0; r < rows; ++r) {
    mixed.rows.push_back(Tuple{
        rng() % 5 == 0 ? Value::Null()
                       : Value::Int64(static_cast<int64_t>(rng() % 10)),
        rng() % 4 == 0
            ? Value::Null()
            : (rng() % 2 ? Value::Int64(static_cast<int64_t>(rng() % 7))
                         : Value::Double(static_cast<double>(rng() % 7) - 0.5)),
        rng() % 3 == 0 ? Value::Null()
                       : Value::String("s" + std::to_string(rng() % 9)),
    });
    EXPECT_TRUE(mixed.table->Insert(mixed.rows.back()).ok());
  }
  return mixed;
}

TEST(ColumnTableTest, ColumnsHoldEveryRowExactly) {
  const MixedTable mixed = MakeMixedTable(300);
  const Table& table = *mixed.table;
  ASSERT_EQ(table.num_rows(), mixed.rows.size());
  for (size_t c = 0; c < table.schema().num_columns(); ++c) {
    EXPECT_EQ(table.column(c).size(), table.num_rows()) << "col " << c;
  }
  for (size_t r = 0; r < mixed.rows.size(); ++r) {
    const Tuple& expected = mixed.rows[r];
    const Tuple row = table.Row(r);
    ASSERT_EQ(row.size(), expected.size());
    for (size_t c = 0; c < expected.size(); ++c) {
      EXPECT_TRUE(ValueIdentical(row.values()[c], expected.values()[c]))
          << "row " << r << " col " << c;
      EXPECT_TRUE(
          ValueIdentical(table.column(c).ValueAt(r), expected.values()[c]))
          << "row " << r << " col " << c;
    }
  }
}

TEST(ColumnTableTest, VersionAndDeltaSemantics) {
  const MixedTable mixed = MakeMixedTable(50);
  Table& table = *mixed.table;
  const uint64_t v0 = table.version();
  EXPECT_EQ(v0, 50u);  // one bump per committed row
  EXPECT_EQ(table.RowsAppendedSince(v0), 0u);

  // Every commit path (validated and unchecked) must move the version, so
  // a cache key snapshotted before the write can only go stale — never
  // wrongly fresh.
  ASSERT_TRUE(table.InsertUnchecked(mixed.rows[0]).ok());
  EXPECT_EQ(table.version(), v0 + 1);
  EXPECT_EQ(table.RowsAppendedSince(v0), 1u);
  ASSERT_TRUE(table
                  .Insert(Tuple{Value::Int64(1), Value::Double(2.0),
                                Value::String("x")})
                  .ok());
  EXPECT_EQ(table.version(), v0 + 2);
  EXPECT_EQ(table.RowsAppendedSince(v0), 2u);
  // A snapshot at or past the current high-water mark reads an empty
  // delta; one from any earlier point reads every later row.
  EXPECT_EQ(table.RowsAppendedSince(table.version()), 0u);
  EXPECT_EQ(table.RowsAppendedSince(0), table.num_rows());
}

TEST(ColumnTableTest, UnrepresentableRowsAreRefusedWithoutATrace) {
  TableSchema schema("t", {{"a", DataType::kInt64, /*nullable=*/false},
                           {"b", DataType::kString, true}});
  ASSERT_TRUE(schema.SetPrimaryKey({"a"}).ok());
  Database db;
  ASSERT_TRUE(db.CreateTable(std::move(schema)).ok());
  Table* table = *db.GetTable("t");
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(table
                    ->Insert(Tuple{Value::Int64(i),
                                   Value::String("v" + std::to_string(i))})
                    .ok());
  }

  // Wrong arity, a string smuggled into the INT64 key, an int64 smuggled
  // into the STRING column, and a NULL key: each insert path must refuse
  // every one with a clean Status and leave no trace.
  const std::vector<Tuple> bad = {
      Tuple{Value::Int64(99)},
      Tuple{Value::Int64(98), Value::String("x"), Value::Int64(1)},
      Tuple{Value::String("not an int"), Value::String("x")},
      Tuple{Value::Int64(97), Value::Int64(7)},
      Tuple{Value::Null(), Value::String("x")},
  };
  for (const Tuple& row : bad) {
    for (bool unchecked : {false, true}) {
      const Status status =
          unchecked ? table->InsertUnchecked(row) : table->Insert(row);
      EXPECT_FALSE(status.ok()) << row << " unchecked=" << unchecked;
      EXPECT_EQ(table->version(), 20u) << row;
      EXPECT_EQ(table->num_rows(), 20u) << row;
      for (size_t c = 0; c < 2; ++c) EXPECT_EQ(table->column(c).size(), 20u);
    }
  }

  // The key set is unchanged too: the refused rows' keys are free, and an
  // existing key is still taken.
  for (int64_t key : {99, 98, 97}) {
    EXPECT_TRUE(
        table->Insert(Tuple{Value::Int64(key), Value::String("ok")}).ok())
        << key;
  }
  EXPECT_FALSE(table->Insert(Tuple{Value::Int64(3), Value::Null()}).ok());
  EXPECT_EQ(table->num_rows(), 23u);

  engine::QueryExecutor executor(&db);
  auto result = executor.ExecuteSql("SELECT t.b FROM t WHERE t.a >= 97");
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->rows.size(), 3u);
}

}  // namespace
}  // namespace silkroute

// ---------------------------------------------------------------------------
// End to end: seeded mutation-interleaved republish (mirror of
// result_cache_test.cc's harness, storage edition: every publish reads
// through the column scan/join paths).
// ---------------------------------------------------------------------------

namespace silkroute::core {
namespace {

using testutil::MakeTinyTpch;

TEST(ColumnarE2ETest, MutationInterleavedRepublishStaysByteIdentical) {
  auto db = MakeTinyTpch(0.001);
  Publisher publisher(db.get());

  engine::ResultCache cache(engine::ResultCache::Options{8 << 20, 4, nullptr});
  PublishOptions base;
  base.strategy = PlanStrategy::kFullyPartitioned;
  base.document_element = "suppliers";
  PublishOptions cached = base;
  cached.result_cache = &cache;

  auto publish = [&](const PublishOptions& opt) {
    std::ostringstream out;
    auto result = publisher.Publish(Query1Rxl(), opt, &out);
    EXPECT_TRUE(result.ok()) << result.status();
    return out.str();
  };

  std::vector<std::string> tables = db->catalog().TableNames();
  ASSERT_FALSE(tables.empty());
  std::mt19937 rng(0xC01A7);
  size_t mutations = 0;
  for (int i = 0; i < 25; ++i) {
    if (rng() % 2 == 0) {
      const std::string& victim = tables[rng() % tables.size()];
      auto table = db->GetTable(victim);
      ASSERT_TRUE(table.ok());
      if ((*table)->num_rows() > 0) {
        Tuple row = (*table)->Row(rng() % (*table)->num_rows());
        ASSERT_TRUE((*table)->InsertUnchecked(row).ok());
        ++mutations;
      }
    }
    const std::string warm = publish(cached);
    const std::string reference = publish(base);
    ASSERT_EQ(warm, reference) << "iteration " << i;
  }
  ASSERT_GT(mutations, 0u);
  auto stats = cache.stats();
  EXPECT_GT(stats.hits, 0u);
}

}  // namespace
}  // namespace silkroute::core
