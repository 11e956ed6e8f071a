#include <gtest/gtest.h>

#include "relational/catalog.h"
#include "relational/database.h"
#include "relational/schema.h"
#include "relational/table.h"

namespace silkroute {
namespace {

TableSchema MakeSupplier() {
  TableSchema s("Supplier", {
                                {"suppkey", DataType::kInt64, false},
                                {"name", DataType::kString, false},
                                {"nationkey", DataType::kInt64, false},
                            });
  EXPECT_TRUE(s.SetPrimaryKey({"suppkey"}).ok());
  EXPECT_TRUE(
      s.AddForeignKey({{"nationkey"}, "Nation", {"nationkey"}}).ok());
  return s;
}

TableSchema MakeNation() {
  TableSchema s("Nation", {
                              {"nationkey", DataType::kInt64, false},
                              {"name", DataType::kString, false},
                          });
  EXPECT_TRUE(s.SetPrimaryKey({"nationkey"}).ok());
  return s;
}

TEST(TableSchemaTest, ColumnLookup) {
  TableSchema s = MakeSupplier();
  EXPECT_EQ(s.num_columns(), 3u);
  EXPECT_TRUE(s.HasColumn("name"));
  EXPECT_FALSE(s.HasColumn("addr"));
  auto idx = s.ColumnIndex("nationkey");
  ASSERT_TRUE(idx.ok());
  EXPECT_EQ(*idx, 2u);
  EXPECT_EQ(s.ColumnIndex("missing").status().code(), StatusCode::kNotFound);
}

TEST(TableSchemaTest, PrimaryKeyValidation) {
  TableSchema s("T", {{"a", DataType::kInt64, false}});
  EXPECT_EQ(s.SetPrimaryKey({"b"}).code(), StatusCode::kInvalidArgument);
  EXPECT_TRUE(s.SetPrimaryKey({"a"}).ok());
  EXPECT_TRUE(s.has_primary_key());
}

TEST(TableSchemaTest, ForeignKeyValidation) {
  TableSchema s = MakeSupplier();
  EXPECT_EQ(s.AddForeignKey({{"missing"}, "Nation", {"nationkey"}}).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(
      s.AddForeignKey({{"nationkey"}, "Nation", {"a", "b"}}).code(),
      StatusCode::kInvalidArgument);
}

TEST(TableSchemaTest, IsSuperkey) {
  TableSchema s = MakeSupplier();
  EXPECT_TRUE(s.IsSuperkey({"suppkey"}));
  EXPECT_TRUE(s.IsSuperkey({"name", "suppkey"}));
  EXPECT_FALSE(s.IsSuperkey({"name"}));
  TableSchema keyless("K", {{"a", DataType::kInt64, false}});
  EXPECT_FALSE(keyless.IsSuperkey({"a"}));
}

TEST(TableSchemaTest, DatalogRendering) {
  EXPECT_EQ(MakeSupplier().ToString(),
            "Supplier(*suppkey, name, nationkey)");
}

TEST(CatalogTest, AddAndLookup) {
  Catalog c;
  EXPECT_TRUE(c.AddTable(MakeSupplier()).ok());
  EXPECT_TRUE(c.HasTable("Supplier"));
  EXPECT_FALSE(c.HasTable("Nope"));
  EXPECT_EQ(c.AddTable(MakeSupplier()).code(), StatusCode::kAlreadyExists);
  auto t = c.GetTable("Supplier");
  ASSERT_TRUE(t.ok());
  EXPECT_EQ((*t)->name(), "Supplier");
}

TEST(CatalogTest, InclusionDependencyRequiresDeclaredFk) {
  Catalog c;
  ASSERT_TRUE(c.AddTable(MakeSupplier()).ok());
  ASSERT_TRUE(c.AddTable(MakeNation()).ok());
  EXPECT_TRUE(c.HasInclusionDependency("Supplier", {"nationkey"}, "Nation"));
  EXPECT_FALSE(c.HasInclusionDependency("Supplier", {"name"}, "Nation"));
  EXPECT_FALSE(c.HasInclusionDependency("Nation", {"nationkey"}, "Supplier"));
}

TEST(CatalogTest, FindForeignKeyIsOrderInsensitive) {
  Catalog c;
  TableSchema li("LineItem", {
                                 {"partkey", DataType::kInt64, false},
                                 {"suppkey", DataType::kInt64, false},
                             });
  ASSERT_TRUE(
      li.AddForeignKey({{"partkey", "suppkey"}, "PartSupp",
                        {"partkey", "suppkey"}})
          .ok());
  ASSERT_TRUE(c.AddTable(std::move(li)).ok());
  EXPECT_NE(c.FindForeignKey("LineItem", {"suppkey", "partkey"}), nullptr);
  EXPECT_EQ(c.FindForeignKey("LineItem", {"partkey"}), nullptr);
}

TEST(TableTest, InsertValidRow) {
  Table t(MakeSupplier());
  EXPECT_TRUE(
      t.Insert(Tuple{Value::Int64(1), Value::String("a"), Value::Int64(2)})
          .ok());
  EXPECT_EQ(t.num_rows(), 1u);
}

TEST(TableTest, RejectsArityMismatch) {
  Table t(MakeSupplier());
  EXPECT_EQ(t.Insert(Tuple{Value::Int64(1)}).code(),
            StatusCode::kInvalidArgument);
}

TEST(TableTest, RejectsTypeMismatch) {
  Table t(MakeSupplier());
  EXPECT_EQ(t.Insert(Tuple{Value::String("x"), Value::String("a"),
                           Value::Int64(2)})
                .code(),
            StatusCode::kTypeError);
}

TEST(TableTest, RejectsNullInNonNullable) {
  Table t(MakeSupplier());
  EXPECT_EQ(
      t.Insert(Tuple{Value::Int64(1), Value::Null(), Value::Int64(2)}).code(),
      StatusCode::kConstraintViolation);
}

TEST(TableTest, AllowsNullInNullableColumn) {
  TableSchema s("T", {{"a", DataType::kInt64, false},
                      {"b", DataType::kString, true}});
  ASSERT_TRUE(s.SetPrimaryKey({"a"}).ok());
  Table t(s);
  EXPECT_TRUE(t.Insert(Tuple{Value::Int64(1), Value::Null()}).ok());
}

TEST(TableTest, IntAcceptedForDoubleColumn) {
  TableSchema s("T", {{"d", DataType::kDouble, false}});
  Table t(s);
  EXPECT_TRUE(t.Insert(Tuple{Value::Int64(3)}).ok());
}

TEST(TableTest, RejectsDuplicatePrimaryKey) {
  Table t(MakeSupplier());
  ASSERT_TRUE(
      t.Insert(Tuple{Value::Int64(1), Value::String("a"), Value::Int64(2)})
          .ok());
  EXPECT_EQ(
      t.Insert(Tuple{Value::Int64(1), Value::String("b"), Value::Int64(3)})
          .code(),
      StatusCode::kConstraintViolation);
}

TEST(TableTest, CompositeKeyUniqueness) {
  TableSchema s("PS", {{"p", DataType::kInt64, false},
                       {"s", DataType::kInt64, false}});
  ASSERT_TRUE(s.SetPrimaryKey({"p", "s"}).ok());
  Table t(s);
  EXPECT_TRUE(t.Insert(Tuple{Value::Int64(1), Value::Int64(1)}).ok());
  EXPECT_TRUE(t.Insert(Tuple{Value::Int64(1), Value::Int64(2)}).ok());
  EXPECT_EQ(t.Insert(Tuple{Value::Int64(1), Value::Int64(1)}).code(),
            StatusCode::kConstraintViolation);
}

TEST(TableTest, DataByteSize) {
  Table t(MakeSupplier());
  ASSERT_TRUE(
      t.Insert(Tuple{Value::Int64(1), Value::String("abcd"), Value::Int64(2)})
          .ok());
  EXPECT_EQ(t.DataByteSize(), 8u + 8u + 8u);

  // Value::ByteSize's rule per cell: 1 byte per NULL in any column type,
  // 8 per numeric cell (an int64 in a DOUBLE column included), and length
  // + 4 per string (the empty string too).
  Table mixed(TableSchema("M", {{"i", DataType::kInt64, true},
                                {"d", DataType::kDouble, true},
                                {"s", DataType::kString, true}}));
  ASSERT_TRUE(mixed
                  .Insert(Tuple{Value::Null(), Value::Double(2.5),
                                Value::String("")})
                  .ok());
  ASSERT_TRUE(
      mixed.Insert(Tuple{Value::Int64(7), Value::Null(), Value::Null()}).ok());
  ASSERT_TRUE(mixed
                  .Insert(Tuple{Value::Null(), Value::Int64(3),
                                Value::String("hello")})
                  .ok());
  EXPECT_EQ(mixed.DataByteSize(), (1u + 8u + 4u) + (8u + 1u + 1u) +
                                      (1u + 8u + 9u));
  size_t rowwise = 0;
  for (size_t i = 0; i < mixed.num_rows(); ++i) {
    rowwise += mixed.Row(i).ByteSize();
  }
  EXPECT_EQ(mixed.DataByteSize(), rowwise);
}

TEST(DatabaseTest, CreateAndInsert) {
  Database db;
  ASSERT_TRUE(db.CreateTable(MakeSupplier()).ok());
  EXPECT_EQ(db.CreateTable(MakeSupplier()).code(),
            StatusCode::kAlreadyExists);
  EXPECT_TRUE(
      db.Insert("Supplier",
                Tuple{Value::Int64(1), Value::String("a"), Value::Int64(2)})
          .ok());
  EXPECT_EQ(db.Insert("Missing", Tuple{}).code(), StatusCode::kNotFound);
  auto t = db.GetTable("Supplier");
  ASSERT_TRUE(t.ok());
  EXPECT_EQ((*t)->num_rows(), 1u);
  EXPECT_GT(db.TotalByteSize(), 0u);
}

TEST(DatabaseTest, CatalogReflectsTables) {
  Database db;
  ASSERT_TRUE(db.CreateTable(MakeNation()).ok());
  EXPECT_TRUE(db.catalog().HasTable("Nation"));
  EXPECT_EQ(db.catalog().TableNames(),
            (std::vector<std::string>{"Nation"}));
}

}  // namespace
}  // namespace silkroute
