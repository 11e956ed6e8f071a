// Robustness tests: every parser in the system must reject arbitrary and
// mutated input with a Status — never crash, hang, or accept garbage that
// later trips an internal invariant.
#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "common/random.h"
#include "engine/tuple_stream.h"
#include "net/wire.h"
#include "relational/csv.h"
#include "relational/database.h"
#include "rxl/parser.h"
#include "silkroute/queries.h"
#include "silkroute/subview.h"
#include "sql/parser.h"
#include "xml/dtd.h"
#include "xml/reader.h"

namespace silkroute {
namespace {

std::string RandomBytes(Random* rng, size_t max_len) {
  std::string s;
  size_t len = static_cast<size_t>(rng->Uniform(0, static_cast<int64_t>(max_len)));
  s.reserve(len);
  for (size_t i = 0; i < len; ++i) {
    s.push_back(static_cast<char>(rng->Uniform(1, 255)));
  }
  return s;
}

/// Characters that steer the input toward "interesting" parser states.
std::string RandomStructured(Random* rng, size_t max_len) {
  static const char kAlphabet[] =
      "<>/='\"() {},.$*|?+-#! \n\tselectfromwherecontructELEMENTabc0123";
  std::string s;
  size_t len = static_cast<size_t>(rng->Uniform(1, static_cast<int64_t>(max_len)));
  s.reserve(len);
  for (size_t i = 0; i < len; ++i) {
    s.push_back(kAlphabet[rng->Uniform(0, sizeof(kAlphabet) - 2)]);
  }
  return s;
}

std::string Mutate(Random* rng, std::string_view base) {
  std::string s(base);
  int edits = static_cast<int>(rng->Uniform(1, 8));
  for (int i = 0; i < edits && !s.empty(); ++i) {
    size_t pos = static_cast<size_t>(
        rng->Uniform(0, static_cast<int64_t>(s.size()) - 1));
    switch (rng->Uniform(0, 2)) {
      case 0:
        s[pos] = static_cast<char>(rng->Uniform(32, 126));
        break;
      case 1:
        s.erase(pos, 1);
        break;
      default:
        s.insert(pos, 1, static_cast<char>(rng->Uniform(32, 126)));
    }
  }
  return s;
}

template <typename Parser>
void FuzzParser(uint64_t seed, Parser parse, std::string_view valid_base) {
  Random rng(seed);
  for (int i = 0; i < 2000; ++i) {
    parse(RandomBytes(&rng, 200));
    parse(RandomStructured(&rng, 200));
    parse(Mutate(&rng, valid_base));
  }
}

TEST(FuzzTest, SqlParserNeverCrashes) {
  FuzzParser(101, [](const std::string& s) { (void)sql::ParseQuery(s); },
             "select 1 as L1, s.suppkey as v1_1 from Supplier s left outer "
             "join (select 2 as x from T) as Q on s.a = Q.x where s.b = 'q' "
             "order by L1 desc");
}

TEST(FuzzTest, SqlExpressionParserNeverCrashes) {
  FuzzParser(102,
             [](const std::string& s) { (void)sql::ParseExpression(s); },
             "a = 1 and (b <> 'x' or c.d <= 2.5) and e is not null");
}

TEST(FuzzTest, RxlParserNeverCrashes) {
  FuzzParser(103, [](const std::string& s) { (void)rxl::ParseRxl(s); },
             core::Query1Rxl());
}

TEST(FuzzTest, XmlReaderNeverCrashes) {
  FuzzParser(104, [](const std::string& s) { (void)xml::ParseXml(s); },
             "<?xml version=\"1.0\"?><a x=\"1\"><b>t&amp;t</b><c/></a>");
}

TEST(FuzzTest, DtdParserNeverCrashes) {
  FuzzParser(105, [](const std::string& s) { (void)xml::ParseDtd(s); },
             core::SupplierDtd());
}

TEST(FuzzTest, SubviewPathParserNeverCrashes) {
  FuzzParser(106,
             [](const std::string& s) { (void)core::ParseSubviewPath(s); },
             "/supplier[nation='FRANCE'][x=42]/part/order[orderkey=7]");
}

// --- Binary decoders (the wire protocol's hostile-input surface) ----------
// These see bytes straight off a network socket, so unlike the text parsers
// above they are fuzzed with binary corruption of *valid* encodings: every
// truncation, and seeded byte flips — the exact damage FlakyProxy inflicts.

std::string MutateBinary(Random* rng, std::string_view base) {
  std::string s(base);
  int edits = static_cast<int>(rng->Uniform(1, 8));
  for (int i = 0; i < edits && !s.empty(); ++i) {
    size_t pos = static_cast<size_t>(
        rng->Uniform(0, static_cast<int64_t>(s.size()) - 1));
    switch (rng->Uniform(0, 2)) {
      case 0:
        s[pos] = static_cast<char>(rng->Next() & 0xFF);
        break;
      case 1:
        s.erase(pos, 1);
        break;
      default:
        s.insert(pos, 1, static_cast<char>(rng->Next() & 0xFF));
    }
  }
  return s;
}

template <typename Decoder>
void FuzzBinaryDecoder(uint64_t seed, Decoder decode,
                       const std::string& valid) {
  // Every prefix truncation of a valid encoding must fail cleanly.
  for (size_t cut = 0; cut < valid.size(); ++cut) {
    decode(valid.substr(0, cut));
  }
  Random rng(seed);
  for (int i = 0; i < 2000; ++i) {
    decode(RandomBytes(&rng, 256));
    decode(MutateBinary(&rng, valid));
  }
  decode(valid);  // and the pristine encoding still decodes after all that
}

TEST(FuzzTest, WireFrameHeaderDecoderNeverCrashes) {
  net::FrameHeader header;
  header.type = net::FrameType::kRequest;
  header.request_id = 7;
  header.budget_us = 1234567;
  header.payload_len = 42;
  std::string valid;
  net::EncodeFrameHeader(header, &valid);
  FuzzBinaryDecoder(
      201, [](const std::string& s) { (void)net::DecodeFrameHeader(s); },
      valid);
}

TEST(FuzzTest, WireRelationDecoderNeverCrashes) {
  engine::Relation relation;
  relation.schema.Add({"s", "suppkey"});
  relation.schema.Add({"s", "name"});
  relation.schema.Add({"s", "balance"});
  for (int i = 0; i < 5; ++i) {
    relation.rows.push_back(Tuple{
        Value::Int64(i), Value::String("supplier-" +
                                                        std::to_string(i)),
        i % 2 == 0 ? Value::Double(i * 1.5) : Value::Null()});
  }
  std::string valid;
  net::SerializeRelation(relation, &valid);
  FuzzBinaryDecoder(
      202, [](const std::string& s) { (void)net::DeserializeRelation(s); },
      valid);
}

TEST(FuzzTest, WireErrorAndEndPayloadDecodersNeverCrash) {
  std::string valid_error;
  net::EncodeErrorPayload(Status::Timeout("deadline exceeded"), &valid_error);
  FuzzBinaryDecoder(203,
                    [](const std::string& s) {
                      Status carried = Status::OK();
                      (void)net::DecodeErrorPayload(s, &carried);
                    },
                    valid_error);
  std::string valid_end;
  net::EncodeEndPayload({12, 3456}, &valid_end);
  FuzzBinaryDecoder(
      204, [](const std::string& s) { (void)net::DecodeEndPayload(s); },
      valid_end);
  std::string valid_request;
  net::EncodeRequestPayload("select 1 from Supplier", &valid_request);
  FuzzBinaryDecoder(
      205, [](const std::string& s) { (void)net::DecodeRequestPayload(s); },
      valid_request);
}

TEST(FuzzTest, TupleDecoderNeverCrashes) {
  Tuple t{Value::Int64(-7), Value::Double(3.25),
                  Value::String("héllo"), Value::Null()};
  std::string valid;
  engine::SerializeTuple(t, &valid);
  FuzzBinaryDecoder(206,
                    [](const std::string& s) {
                      size_t offset = 0;
                      (void)engine::DeserializeTuple(s, &offset);
                    },
                    valid);
}

// --- CSV bulk load into columnar storage ----------------------------------
// The loader is the one path where external bytes become column cells, so
// corruption must surface as a Status before a column can bend: after any
// partial load (rows before the bad line) every column holds num_rows()
// cells and Row(i) is exactly the i-th row the loader had to accept.

std::unique_ptr<Database> MakeCsvTarget() {
  auto db = std::make_unique<Database>();
  TableSchema schema("Part", {{"partkey", DataType::kInt64, false},
                              {"weight", DataType::kDouble, true},
                              {"name", DataType::kString, true}});
  EXPECT_TRUE(schema.SetPrimaryKey({"partkey"}).ok());
  EXPECT_TRUE(db->CreateTable(std::move(schema)).ok());
  return db;
}

/// The rows LoadCsv must accept from `csv` into MakeCsvTarget's table,
/// derived here from the loader's documented rules: every data line up to
/// the first one with the wrong field count, a malformed number, a missing
/// or duplicate key.
std::vector<Tuple> ExpectedCsvRows(const std::string& csv) {
  std::vector<Tuple> rows;
  std::set<long long> keys;
  std::istringstream in(csv);
  std::string line;
  bool header = true;
  while (std::getline(in, line)) {
    if (line.empty() || line == "\r") continue;
    if (header) {
      header = false;
      continue;
    }
    const std::vector<std::string> f = ParseCsvRecord(line);
    if (f.size() != 3) break;
    char* end = nullptr;
    const long long key = std::strtoll(f[0].c_str(), &end, 10);
    if (end == f[0].c_str() || *end != '\0' || !keys.insert(key).second) {
      break;
    }
    Value weight;  // NULL when the field is empty
    if (!f[1].empty()) {
      const double d = std::strtod(f[1].c_str(), &end);
      if (end == f[1].c_str() || *end != '\0') break;
      weight = Value::Double(d);
    }
    rows.push_back(Tuple{Value::Int64(key), weight,
                         f[2].empty() ? Value::Null() : Value::String(f[2])});
  }
  return rows;
}

/// Exact representation identity: Int64(3) != Double(3.0), -0.0 != 0.0.
bool ValueIdentical(const Value& a, const Value& b) {
  if (a.is_null() || b.is_null()) return a.is_null() && b.is_null();
  if (a.is_int64() != b.is_int64() || a.is_double() != b.is_double()) {
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

/// Attempts the load and checks that however it ended, the table holds
/// exactly the rows the loader had to accept.
void LoadAndCheckInvariants(const std::string& csv) {
  auto db = MakeCsvTarget();
  std::istringstream in(csv);
  auto loaded = LoadCsv(&in, CsvLoadOptions{}, "Part", db.get());
  const Table& table = **db->GetTable("Part");
  if (loaded.ok()) {
    ASSERT_EQ(*loaded, table.num_rows());
  }
  const std::vector<Tuple> expected = ExpectedCsvRows(csv);
  ASSERT_EQ(table.num_rows(), expected.size()) << csv;
  for (size_t c = 0; c < table.schema().num_columns(); ++c) {
    ASSERT_EQ(table.column(c).size(), table.num_rows()) << csv;
  }
  for (size_t i = 0; i < expected.size(); ++i) {
    const Tuple row = table.Row(i);
    ASSERT_EQ(row.size(), expected[i].size());
    for (size_t c = 0; c < row.size(); ++c) {
      ASSERT_TRUE(ValueIdentical(row[c], expected[i][c]))
          << "row " << i << " col " << c << ": " << row[c] << " vs "
          << expected[i][c] << "\ncsv: " << csv;
    }
  }
}

TEST(FuzzTest, CsvColumnarLoaderRejectsCorruptionClasses) {
  const std::string valid =
      "partkey,weight,name\n"
      "1,1.5,widget\n"
      "2,,\"a,b\"\n"
      "3,2.25,\"he said \"\"hi\"\"\"\n";
  {  // pristine input loads fully
    auto db = MakeCsvTarget();
    std::istringstream in(valid);
    auto loaded = LoadCsv(&in, CsvLoadOptions{}, "Part", db.get());
    ASSERT_TRUE(loaded.ok()) << loaded.status();
    EXPECT_EQ(*loaded, 3u);
  }
  auto must_reject = [](const std::string& csv) {
    auto db = MakeCsvTarget();
    std::istringstream in(csv);
    auto loaded = LoadCsv(&in, CsvLoadOptions{}, "Part", db.get());
    EXPECT_FALSE(loaded.ok()) << "accepted: " << csv;
  };
  // Torn row: the stream ends mid-record, leaving too few fields.
  must_reject("partkey,weight,name\n1,1.5,widget\n2,0");
  // Wrong arity, both directions.
  must_reject("partkey,weight,name\n1,1.5\n");
  must_reject("partkey,weight,name\n1,1.5,widget,extra\n");
  // Non-numeric bytes in numeric columns (including trailing garbage that
  // a bare strtoll/strtod prefix parse would silently swallow).
  must_reject("partkey,weight,name\nabc,1.5,widget\n");
  must_reject("partkey,weight,name\n12x,1.5,widget\n");
  must_reject("partkey,weight,name\n1,1.5.5,widget\n");
  // NULL into a non-nullable key column.
  must_reject("partkey,weight,name\n,1.5,widget\n");
  // Overlong string fields are data, not corruption: they must load and
  // round-trip through the column's string pool.
  {
    auto db = MakeCsvTarget();
    const std::string big(1 << 20, 'x');
    std::istringstream in("partkey,weight,name\n1,0.5," + big + "\n");
    auto loaded = LoadCsv(&in, CsvLoadOptions{}, "Part", db.get());
    ASSERT_TRUE(loaded.ok()) << loaded.status();
    EXPECT_EQ((*db->GetTable("Part"))->Row(0)[2].AsString(), big);
  }
}

TEST(FuzzTest, CsvColumnarLoaderNeverCrashesOnMutatedInput) {
  const std::string valid =
      "partkey,weight,name\n"
      "1,1.5,widget\n"
      "2,,\"a,b\"\n"
      "3,2.25,\"he said \"\"hi\"\"\"\n"
      "4,-0.0,\n";
  // Every prefix truncation (torn mid-byte anywhere, not just row ends).
  for (size_t cut = 0; cut < valid.size(); ++cut) {
    LoadAndCheckInvariants(valid.substr(0, cut));
  }
  Random rng(302);
  for (int i = 0; i < 500; ++i) {
    LoadAndCheckInvariants(MutateBinary(&rng, valid));
    LoadAndCheckInvariants(RandomBytes(&rng, 200));
  }
}

TEST(FuzzTest, RoundTripSurvivorsStillRoundTrip) {
  // Mutated RXL that still parses must round-trip through ToString.
  Random rng(107);
  int survivors = 0;
  for (int i = 0; i < 3000; ++i) {
    std::string mutated = Mutate(&rng, core::Query2Rxl());
    auto q = rxl::ParseRxl(mutated);
    if (!q.ok()) continue;
    ++survivors;
    std::string printed = q->ToString();
    auto again = rxl::ParseRxl(printed);
    ASSERT_TRUE(again.ok()) << printed << "\n" << again.status();
    ASSERT_EQ(printed, again->ToString());
  }
  EXPECT_GT(survivors, 0);  // some single-char mutations stay valid
}

}  // namespace
}  // namespace silkroute
