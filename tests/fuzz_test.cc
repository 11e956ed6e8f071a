// Robustness tests: every parser in the system must reject arbitrary and
// mutated input with a Status — never crash, hang, or accept garbage that
// later trips an internal invariant.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/random.h"
#include "engine/tuple_stream.h"
#include "net/wire.h"
#include "relational/csv.h"
#include "relational/database.h"
#include "rxl/parser.h"
#include "silkroute/partition.h"
#include "silkroute/publisher.h"
#include "silkroute/queries.h"
#include "silkroute/sqlgen.h"
#include "silkroute/subview.h"
#include "sql/ddl.h"
#include "sql/lexer.h"
#include "sql/parser.h"
#include "tests/test_util.h"
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

// --- Nesting budgets --------------------------------------------------------
// Both recursive-descent parsers charge one level per nested construct and
// refuse input past kMaxNestingDepth with kInvalidArgument. Every nested
// shape below parses at 100 levels and at exactly the budget, and is
// refused one level past it and at 10^3..10^5 levels, which overflowed the
// stack before the budget existed.

std::string Repeat(std::string_view unit, size_t n) {
  std::string out;
  out.reserve(unit.size() * n);
  for (size_t i = 0; i < n; ++i) out.append(unit);
  return out;
}

/// SQL nesting `depth` levels of each construct that charges the budget.
std::vector<std::pair<std::string, std::string>> NestedSql(size_t depth) {
  std::string derived = Repeat("(select a from ", depth) + "T";
  for (size_t i = 0; i < depth; ++i) derived += ") d" + std::to_string(i);
  return {
      {"parentheses", "select a from T where " + Repeat("(", depth) +
                          "a = 1" + Repeat(")", depth)},
      {"not", "select a from T where " + Repeat("not ", depth) + "a = 1"},
      {"unary minus", "select " + Repeat("- ", depth) + "1 as x from T"},
      {"derived tables", "select a from " + derived},
      {"join parentheses",
       "select a from " + Repeat("(", depth) + "T" + Repeat(")", depth)},
      {"union operands",
       Repeat("(", depth) + "select a from T" + Repeat(")", depth)},
  };
}

/// RXL nesting `depth` elements, or `depth` blocks.
std::vector<std::pair<std::string, std::string>> NestedRxl(size_t depth) {
  return {
      {"elements", "from T $t construct " + Repeat("<a>", depth) + "$t.v" +
                       Repeat("</a>", depth)},
      {"blocks", "from T $t construct " +
                     Repeat("{ from T $t construct ", depth) + "$t.v" +
                     Repeat(" }", depth)},
  };
}

template <typename Nested, typename Parse>
void ExpectNestingBudget(Nested nested, size_t budget, Parse parse) {
  for (size_t depth : {size_t{100}, budget}) {
    for (const auto& [shape, text] : nested(depth)) {
      const Status status = parse(text);
      EXPECT_TRUE(status.ok()) << shape << " at depth " << depth << ": "
                               << status;
    }
  }
  for (size_t depth :
       {budget + 1, size_t{1000}, size_t{10000}, size_t{100000}}) {
    for (const auto& [shape, text] : nested(depth)) {
      const Status status = parse(text);
      EXPECT_EQ(status.code(), StatusCode::kInvalidArgument)
          << shape << " at depth " << depth << ": " << status;
      EXPECT_NE(status.message().find(
                    "exceeds the limit of " + std::to_string(budget)),
                std::string::npos)
          << status;
    }
  }
}

TEST(FuzzTest, SqlParserRefusesNestingPastItsBudget) {
  ExpectNestingBudget(NestedSql, sql::kMaxNestingDepth,
                      [](const std::string& s) {
                        return sql::ParseQuery(s).status();
                      });
}

/// XML nesting `depth` elements; a DTD nesting `depth` particle groups.
std::vector<std::pair<std::string, std::string>> NestedXml(size_t depth) {
  return {{"elements", Repeat("<a>", depth) + "x" + Repeat("</a>", depth)}};
}
std::vector<std::pair<std::string, std::string>> NestedDtd(size_t depth) {
  return {{"groups", "<!ELEMENT a " + Repeat("(", depth) + "b" +
                         Repeat(")", depth) + ">"},
          {"choice groups", "<!ELEMENT a " + Repeat("(c | ", depth) + "b" +
                                Repeat(")*", depth) + ">"}};
}

TEST(FuzzTest, XmlReaderRefusesNestingPastItsBudget) {
  ExpectNestingBudget(NestedXml, xml::kMaxNestingDepth,
                      [](const std::string& s) {
                        return xml::ParseXml(s).status();
                      });
}

TEST(FuzzTest, DtdParserRefusesNestingPastItsBudget) {
  ExpectNestingBudget(NestedDtd, xml::kMaxNestingDepth,
                      [](const std::string& s) {
                        return xml::ParseDtd(s).status();
                      });
}

TEST(FuzzTest, RxlParserRefusesNestingPastItsBudget) {
  ExpectNestingBudget(NestedRxl, rxl::kMaxNestingDepth,
                      [](const std::string& s) {
                        return rxl::ParseRxl(s).status();
                      });
}

// --- Tree height -----------------------------------------------------------
// Operator and join chains are parsed in a loop but built left-deep, so a
// chain of n operands is a tree n levels high. The parser refuses trees
// past kMaxTreeHeight: before it, 10^5 `or a = 1` terms overflowed the
// stack in the AST's recursive destructor.

/// A chain of `n` operands of each shape; every shape is n levels high.
std::vector<std::pair<std::string, std::string>> ChainedSql(size_t n) {
  auto chain = [&](std::string_view head, std::string_view link) {
    std::string out(head);
    for (size_t i = 1; i < n; ++i) out.append(link);
    return out;
  };
  return {
      {"or", chain("select a from T where a", " or a")},
      {"and", chain("select a from T where a", " and a")},
      {"plus", chain("select a", " + a") + " as x from T"},
      {"times", chain("select a", " * a") + " as x from T"},
      {"joins", chain("select a from T", " join T on a")},
  };
}

TEST(FuzzTest, SqlParserRefusesTreesPastItsHeight) {
  const size_t limit = sql::kMaxTreeHeight;
  for (size_t n : {size_t{100}, limit}) {
    for (const auto& [shape, text] : ChainedSql(n)) {
      EXPECT_TRUE(sql::ParseQuery(text).ok()) << shape << " of " << n;
    }
  }
  for (size_t n : {limit + 1, size_t{100000}}) {
    for (const auto& [shape, text] : ChainedSql(n)) {
      const Status status = sql::ParseQuery(text).status();
      EXPECT_EQ(status.code(), StatusCode::kInvalidArgument)
          << shape << " of " << n << ": " << status;
      EXPECT_NE(status.message().find("exceeds the limit of " +
                                      std::to_string(limit)),
                std::string::npos)
          << status;
    }
  }
  // The crashing shape itself at 10^5 terms, and an `or` chain of 10^6
  // operands (two tokens each, to keep the token vector near 100 MB).
  std::string crashing = "select a from T where a = 1";
  for (size_t i = 1; i < 100000; ++i) crashing.append(" or a = 1");
  EXPECT_EQ(sql::ParseQuery(crashing).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(sql::ParseQuery(ChainedSql(1000000).front().second)
                .status()
                .code(),
            StatusCode::kInvalidArgument);
}

/// `levels` derived tables nested one in another, each the left end of a
/// chain of `joins` JOINs: a join tree about levels * joins levels high.
std::string NestedJoinChainsSql(size_t levels, size_t joins) {
  auto chain = [&] {
    std::string out;
    for (size_t i = 0; i < joins; ++i) out.append(" join T on a");
    return out;
  };
  std::string sql = "select a from T" + chain();
  for (size_t i = 1; i < levels; ++i) {
    sql = "select a from (" + sql + ") d" + chain();
  }
  return sql;
}

TEST(FuzzTest, SqlParserAddsHeightAcrossDerivedTables) {
  // Each derived level holds one nesting level, but its height is that of
  // the query inside it: chains of 100 JOINs eight levels deep fit, while
  // 1,000-JOIN chains in 255 nested derived tables (about 3 MB of text,
  // a tree about 255,000 levels high) are refused before any recursion
  // over the tree.
  EXPECT_TRUE(sql::ParseQuery(NestedJoinChainsSql(8, 100)).ok());
  for (auto [levels, joins] : {std::pair<size_t, size_t>{2, 1000},
                               std::pair<size_t, size_t>{255, 1000}}) {
    const Status status =
        sql::ParseQuery(NestedJoinChainsSql(levels, joins)).status();
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument)
        << levels << " levels of " << joins << ": " << status;
    EXPECT_NE(status.message().find("exceeds the limit of"),
              std::string::npos)
        << status;
  }
}

// --- Token budget ------------------------------------------------------------
// The lexer stores every token before the parser applies a budget, so it
// refuses text past kMaxTokens itself: before it, a query frame near
// kMaxFramePayload of one-character tokens made the engine server build
// a token vector of about 1.5 GB.

TEST(FuzzTest, SqlLexerRefusesTextPastItsTokenBudget) {
  auto words = [](size_t n) {
    std::string out;
    for (size_t i = 0; i < n; ++i) out.append("a ");
    return out;
  };
  auto at_budget = sql::Tokenize(words(sql::kMaxTokens));
  ASSERT_TRUE(at_budget.ok()) << at_budget.status();
  EXPECT_EQ(at_budget->size(), sql::kMaxTokens + 1);  // and kEnd
  const Status past = sql::Tokenize(words(sql::kMaxTokens + 1)).status();
  EXPECT_EQ(past.code(), StatusCode::kInvalidArgument) << past;
  EXPECT_NE(past.message().find("limit of " + std::to_string(sql::kMaxTokens) +
                                " tokens"),
            std::string::npos)
      << past;
  // Text that no other budget refuses: a flat select list of 1.2 * 10^6
  // tokens. And an `or` chain of 10^6 operands, which the height budget
  // refuses too, but only after its 2 * 10^6 tokens used to be stored.
  std::string wide = "select a";
  for (size_t i = 1; i < 600000; ++i) wide.append(", a");
  wide.append(" from T");
  for (const std::string& text : {wide, ChainedSql(1000000).front().second}) {
    const Status status = sql::ParseQuery(text).status();
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << status;
    EXPECT_NE(status.message().find("tokens"), std::string::npos) << status;
  }
}

TEST(FuzzTest, ParserBudgetsAdmitGeneratedSql) {
  // Every component genPlan can choose for Query 1 and Query 2, in both
  // SQL styles, parses, and stays far below the token budget: the budgets
  // only refuse hostile input.
  size_t most_tokens = 0;
  auto db = core::testutil::MakeTinyTpch(0.001);
  for (std::string_view rxl : {core::Query1Rxl(), core::Query2Rxl()}) {
    core::ViewTree tree = core::testutil::MustBuildTree(rxl, db->catalog());
    for (auto style : {core::SqlGenStyle::kOuterJoin,
                       core::SqlGenStyle::kOuterUnion}) {
      for (bool reduce : {false, true}) {
        core::SqlGenerator gen(&tree, style, reduce);
        for (uint64_t mask = 0; mask < (uint64_t{1} << tree.num_edges());
             ++mask) {
          auto partition = core::Partition::FromMask(tree, mask);
          ASSERT_TRUE(partition.ok()) << partition.status();
          auto specs = gen.GeneratePlan(*partition);
          ASSERT_TRUE(specs.ok()) << specs.status();
          for (const auto& spec : *specs) {
            auto parsed = sql::ParseQuery(spec.sql);
            ASSERT_TRUE(parsed.ok()) << parsed.status() << "\n" << spec.sql;
            most_tokens =
                std::max(most_tokens, sql::Tokenize(spec.sql)->size());
          }
        }
      }
    }
  }
  std::printf("largest generated component: %zu tokens\n", most_tokens);
  EXPECT_LT(most_tokens * 32, sql::kMaxTokens);
}

// --- View-tree size --------------------------------------------------------
// A plan is a 64-bit edge mask, so ViewTree::Build refuses trees of more
// than ViewTree::kMaxEdges edges. Before that check, a unified plan of such
// a view aborted the process while the other strategies failed cleanly.

/// A root element over `n` sibling blocks, or over `n` nested blocks; each
/// block binds its own variable over T.
std::vector<std::pair<std::string, std::string>> WideAndDeepRxl(size_t n) {
  std::string flat = "from T $r construct <doc>";
  std::string deep = "from T $r construct <doc>";
  for (size_t i = 0; i < n; ++i) {
    const std::string var = "$t" + std::to_string(i);
    const std::string tag = "a" + std::to_string(i);
    flat += " { from T " + var + " construct <" + tag + ">" + var + ".v</" +
            tag + "> }";
    deep += " { from T " + var + " construct <" + tag + ">" + var + ".v";
  }
  for (size_t i = n; i-- > 0;) deep += "</a" + std::to_string(i) + "> }";
  flat += "</doc>";
  deep += "</doc>";
  return {{"flat", flat}, {"deep", deep}};
}

TEST(FuzzTest, ViewTreesPastTheEdgeLimitFailCleanly) {
  Database db;
  ASSERT_TRUE(
      sql::ExecuteDdl("CREATE TABLE T (k INT PRIMARY KEY, v TEXT);", &db).ok());
  core::Publisher publisher(&db);
  for (const auto& [shape, rxl] : WideAndDeepRxl(core::ViewTree::kMaxEdges)) {
    auto tree = publisher.BuildViewTree(rxl);
    ASSERT_TRUE(tree.ok()) << shape << ": " << tree.status();
    EXPECT_EQ(tree->num_edges(), core::ViewTree::kMaxEdges) << shape;
  }
  for (size_t n : {size_t{64}, size_t{65}}) {
    for (const auto& [shape, rxl] : WideAndDeepRxl(n)) {
      const Status built = publisher.BuildViewTree(rxl).status();
      EXPECT_EQ(built.code(), StatusCode::kOutOfRange) << shape << " " << n;
      EXPECT_NE(built.message().find("at most 63"), std::string::npos)
          << built;
      for (auto strategy :
           {core::PlanStrategy::kGreedy, core::PlanStrategy::kUnified,
            core::PlanStrategy::kFullyPartitioned,
            core::PlanStrategy::kExplicitMask}) {
        for (auto style : {core::SqlGenStyle::kOuterJoin,
                           core::SqlGenStyle::kOuterUnion}) {
          core::PublishOptions options;
          options.strategy = strategy;
          options.style = style;
          std::ostringstream out;
          const Status status = publisher.Publish(rxl, options, &out).status();
          EXPECT_EQ(status.code(), StatusCode::kOutOfRange)
              << shape << " " << n << ": " << status;
          EXPECT_TRUE(out.str().empty());
        }
      }
    }
  }
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
