#include <gtest/gtest.h>

#include <sstream>

#include "relational/csv.h"
#include "sql/ddl.h"

namespace silkroute {
namespace {

constexpr const char* kSchema = R"(
CREATE TABLE Nation (
  nationkey BIGINT PRIMARY KEY,
  name      VARCHAR(25)
);
CREATE TABLE Supplier (
  suppkey   BIGINT,
  name      VARCHAR(25) NOT NULL,
  balance   DECIMAL(12, 2),
  comment   TEXT NULL,
  nationkey BIGINT,
  PRIMARY KEY (suppkey),
  FOREIGN KEY (nationkey) REFERENCES Nation(nationkey)
);
)";

TEST(DdlTest, CreatesTablesWithTypes) {
  Database db;
  auto created = sql::ExecuteDdl(kSchema, &db);
  ASSERT_TRUE(created.ok()) << created.status();
  EXPECT_EQ(*created, 2u);

  auto supplier = db.catalog().GetTable("Supplier");
  ASSERT_TRUE(supplier.ok());
  EXPECT_EQ((*supplier)->num_columns(), 5u);
  EXPECT_EQ((*supplier)->column(0).type, DataType::kInt64);
  EXPECT_EQ((*supplier)->column(1).type, DataType::kString);
  EXPECT_EQ((*supplier)->column(2).type, DataType::kDouble);
  EXPECT_FALSE((*supplier)->column(1).nullable);
  EXPECT_TRUE((*supplier)->column(3).nullable);
}

TEST(DdlTest, KeysAndForeignKeys) {
  Database db;
  ASSERT_TRUE(sql::ExecuteDdl(kSchema, &db).ok());
  auto supplier = db.catalog().GetTable("Supplier");
  ASSERT_TRUE(supplier.ok());
  EXPECT_EQ((*supplier)->primary_key(),
            (std::vector<std::string>{"suppkey"}));
  EXPECT_TRUE(db.catalog().HasInclusionDependency("Supplier", {"nationkey"},
                                                  "Nation"));
}

TEST(DdlTest, InlinePrimaryKey) {
  Database db;
  auto created = sql::ExecuteDdl(
      "create table T (a int primary key, b text)", &db);
  ASSERT_TRUE(created.ok()) << created.status();
  auto t = db.catalog().GetTable("T");
  ASSERT_TRUE(t.ok());
  EXPECT_EQ((*t)->primary_key(), (std::vector<std::string>{"a"}));
}

TEST(DdlTest, CompositeKeys) {
  Database db;
  auto created = sql::ExecuteDdl(
      "CREATE TABLE PS (p INT, s INT, q INT, PRIMARY KEY (p, s), "
      "FOREIGN KEY (p, s) REFERENCES Other(p, s))",
      &db);
  ASSERT_TRUE(created.ok()) << created.status();
  auto t = db.catalog().GetTable("PS");
  EXPECT_EQ((*t)->primary_key(), (std::vector<std::string>{"p", "s"}));
}

TEST(DdlTest, CaseInsensitiveKeywords) {
  Database db;
  EXPECT_TRUE(sql::ExecuteDdl(
                  "Create Table x (a Int Primary Key, b Varchar(10))", &db)
                  .ok());
}

TEST(DdlTest, Errors) {
  Database db;
  EXPECT_FALSE(sql::ExecuteDdl("CREATE TABLE", &db).ok());
  EXPECT_FALSE(sql::ExecuteDdl("CREATE TABLE T (a WEIRDTYPE)", &db).ok());
  EXPECT_FALSE(sql::ExecuteDdl("CREATE TABLE T (a int", &db).ok());
  EXPECT_FALSE(sql::ExecuteDdl(
                   "CREATE TABLE T (a int, PRIMARY KEY (zzz))", &db)
                   .ok());
  // Duplicate table.
  ASSERT_TRUE(sql::ExecuteDdl("CREATE TABLE D (a int)", &db).ok());
  EXPECT_FALSE(sql::ExecuteDdl("CREATE TABLE D (a int)", &db).ok());
}

TEST(CsvTest, ParsesPlainRecord) {
  EXPECT_EQ(ParseCsvRecord("a,b,c"),
            (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(ParseCsvRecord(""), (std::vector<std::string>{""}));
  EXPECT_EQ(ParseCsvRecord("a,,c"),
            (std::vector<std::string>{"a", "", "c"}));
}

TEST(CsvTest, ParsesQuotedFields) {
  EXPECT_EQ(ParseCsvRecord("\"a,b\",c"),
            (std::vector<std::string>{"a,b", "c"}));
  EXPECT_EQ(ParseCsvRecord("\"he said \"\"hi\"\"\",x"),
            (std::vector<std::string>{"he said \"hi\"", "x"}));
}

TEST(CsvTest, StripsTrailingCarriageReturn) {
  EXPECT_EQ(ParseCsvRecord("a,b\r"), (std::vector<std::string>{"a", "b"}));
}

TEST(CsvTest, LoadsTypedRows) {
  Database db;
  ASSERT_TRUE(sql::ExecuteDdl(kSchema, &db).ok());
  std::istringstream nations("nationkey,name\n0,FRANCE\n1,SPAIN\n");
  auto loaded = LoadCsv(&nations, CsvLoadOptions{}, "Nation", &db);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(*loaded, 2u);
  std::istringstream suppliers(
      "suppkey,name,balance,comment,nationkey\n"
      "1,\"Acme, Inc\",12.5,,0\n"
      "2,Widgets,-3.25,fast shipper,1\n");
  loaded = LoadCsv(&suppliers, CsvLoadOptions{}, "Supplier", &db);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  auto table = db.GetTable("Supplier");
  ASSERT_TRUE(table.ok());
  ASSERT_EQ((*table)->num_rows(), 2u);
  const Tuple first = (*table)->Row(0);
  EXPECT_EQ(first[1].AsString(), "Acme, Inc");
  EXPECT_TRUE(first[3].is_null());  // empty nullable column
  EXPECT_DOUBLE_EQ((*table)->Row(1)[2].AsDouble(), -3.25);
}

TEST(CsvTest, NoHeaderOption) {
  Database db;
  ASSERT_TRUE(sql::ExecuteDdl("CREATE TABLE T (a int)", &db).ok());
  std::istringstream data("1\n2\n3\n");
  CsvLoadOptions options;
  options.has_header = false;
  auto loaded = LoadCsv(&data, options, "T", &db);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(*loaded, 3u);
}

TEST(CsvTest, ReportsErrorsWithLineNumbers) {
  Database db;
  ASSERT_TRUE(sql::ExecuteDdl(kSchema, &db).ok());
  std::istringstream bad_arity("nationkey,name\n0\n");
  auto r = LoadCsv(&bad_arity, CsvLoadOptions{}, "Nation", &db);
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("line 2"), std::string::npos);

  std::istringstream bad_type("nationkey,name\nxyz,FRANCE\n");
  auto r2 = LoadCsv(&bad_type, CsvLoadOptions{}, "Nation", &db);
  EXPECT_EQ(r2.status().code(), StatusCode::kTypeError);
}

TEST(CsvTest, EmptyFieldSemantics) {
  Database db;
  ASSERT_TRUE(sql::ExecuteDdl(kSchema, &db).ok());
  // Empty field in a non-nullable STRING column: loads as "".
  std::istringstream strings("nationkey,name\n0,\n");
  auto r = LoadCsv(&strings, CsvLoadOptions{}, "Nation", &db);
  ASSERT_TRUE(r.ok()) << r.status();
  auto nation = db.GetTable("Nation");
  EXPECT_EQ((*nation)->Row(0)[1].AsString(), "");
  // Empty field in a non-nullable INT column: type error.
  std::istringstream ints("nationkey,name\n,FRANCE\n");
  auto r2 = LoadCsv(&ints, CsvLoadOptions{}, "Nation", &db);
  EXPECT_EQ(r2.status().code(), StatusCode::kTypeError);
}

TEST(CsvTest, RejectsDuplicateKey) {
  Database db;
  ASSERT_TRUE(sql::ExecuteDdl(kSchema, &db).ok());
  std::istringstream data("nationkey,name\n0,FRANCE\n0,SPAIN\n");
  auto r = LoadCsv(&data, CsvLoadOptions{}, "Nation", &db);
  EXPECT_EQ(r.status().code(), StatusCode::kConstraintViolation);
}

TEST(CsvTest, MissingFileIsNotFound) {
  Database db;
  ASSERT_TRUE(sql::ExecuteDdl("CREATE TABLE T (a int)", &db).ok());
  EXPECT_EQ(LoadCsvFile("/nonexistent/t.csv", CsvLoadOptions{}, "T", &db)
                .status()
                .code(),
            StatusCode::kNotFound);
}

}  // namespace
}  // namespace silkroute
