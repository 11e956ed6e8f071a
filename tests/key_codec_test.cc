// Property tests for the order-preserving key codec (engine/key_codec.h):
// the whole point of the packed-key hot path is that memcmp over encodings
// is a drop-in replacement for Value::Compare / SqlEquals, so these tests
// sweep a corpus covering every type pair (NULL / int64 / double / string,
// negative doubles, both zeros, infinities, empty strings, embedded NULs)
// and assert sign agreement pairwise rather than spot-checking examples.
#include "engine/key_codec.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "relational/table.h"
#include "relational/tuple.h"
#include "relational/value.h"

namespace silkroute::engine {
namespace {

int Sign(int x) { return (x > 0) - (x < 0); }

std::string Enc(const Value& v) {
  std::string out;
  EncodeValue(v, &out);
  return out;
}

/// A numeric's segment as words, which join and sort keys are read as.
NumericSegment Segment(const Value& v) {
  return v.is_int64() ? Int64Segment(v.AsInt64()) : DoubleSegment(v.AsDouble());
}

std::string EncDesc(const Value& v) {
  std::string out;
  EncodeValueDescending(v, &out);
  return out;
}

/// memcmp semantics over full encodings. Segments are prefix-free, so for
/// value (and equal-arity row) encodings the first byte difference always
/// falls within the shorter string; the length tiebreak only fires on
/// byte-equal encodings.
int ByteCompare(const std::string& a, const std::string& b) {
  return Sign(a.compare(b));
}

/// Every value type and the ordering edge cases. All int64s stay within
/// ±2^53 where the double image is exact; the beyond-2^53 tie is covered
/// by its own test below.
std::vector<Value> Corpus() {
  constexpr int64_t kExact = int64_t{1} << 53;
  const double inf = std::numeric_limits<double>::infinity();
  return {
      Value::Null(),
      Value::Int64(-kExact),
      Value::Int64(-1000000),
      Value::Int64(-1),
      Value::Int64(0),
      Value::Int64(1),
      Value::Int64(3),
      Value::Int64(42),
      Value::Int64(kExact),
      Value::Double(-inf),
      Value::Double(-1e300),
      Value::Double(-2.5),
      Value::Double(-0.5),
      Value::Double(-0.0),
      Value::Double(0.0),
      Value::Double(0.5),
      Value::Double(2.5),
      Value::Double(3.0),  // ties Int64(3) cross-type
      Value::Double(1e300),
      Value::Double(inf),
      Value::String(""),
      Value::String(std::string("\0", 1)),
      Value::String(std::string("\0\0", 2)),
      Value::String(std::string("\0x", 2)),
      Value::String("a"),
      Value::String(std::string("a\0b", 3)),
      Value::String("ab"),
      Value::String("a\xff"),
      Value::String("b"),
      Value::String("\xff"),
  };
}

TEST(KeyCodecTest, MemcmpAgreesWithValueCompareForAllPairs) {
  const std::vector<Value> vals = Corpus();
  for (size_t i = 0; i < vals.size(); ++i) {
    const std::string ea = Enc(vals[i]);
    for (size_t j = 0; j < vals.size(); ++j) {
      const std::string eb = Enc(vals[j]);
      EXPECT_EQ(ByteCompare(ea, eb), Sign(vals[i].Compare(vals[j])))
          << "corpus[" << i << "] vs corpus[" << j << "]";
    }
  }
}

TEST(KeyCodecTest, DescendingEncodingReversesOrder) {
  const std::vector<Value> vals = Corpus();
  for (size_t i = 0; i < vals.size(); ++i) {
    const std::string ea = EncDesc(vals[i]);
    for (size_t j = 0; j < vals.size(); ++j) {
      const std::string eb = EncDesc(vals[j]);
      EXPECT_EQ(ByteCompare(ea, eb), -Sign(vals[i].Compare(vals[j])))
          << "corpus[" << i << "] vs corpus[" << j << "]";
    }
  }
}

TEST(KeyCodecTest, CrossTypeNumericTieEncodesIdentically) {
  EXPECT_EQ(Enc(Value::Int64(3)), Enc(Value::Double(3.0)));
  EXPECT_EQ(Enc(Value::Int64(0)), Enc(Value::Double(-0.0)));
  EXPECT_EQ(Enc(Value::Double(0.0)), Enc(Value::Double(-0.0)));
}

// Int64s beyond ±2^53 share a double image with their neighbours; the
// segment's integer tiebreaker must keep memcmp order exact anyway —
// this used to degrade to a stable tie (equal encodings for distinct
// giants), which broke ORDER BY / DISTINCT / join keys on giant ids.
TEST(KeyCodecTest, GiantInt64sKeepExactOrder) {
  constexpr int64_t kExact = int64_t{1} << 53;
  const int64_t kMax = std::numeric_limits<int64_t>::max();
  const int64_t kMin = std::numeric_limits<int64_t>::min();
  // Every regression magnitude: the 2^53 boundary on both sides, its
  // immediate neighbours, and the extremes where the image saturates.
  const std::vector<int64_t> giants = {
      kMin,        kMin + 1,    -kMax,       -kExact - 2, -kExact - 1,
      -kExact,     -kExact + 1, kExact - 1,  kExact,      kExact + 1,
      kExact + 2,  kMax - 1,    kMax,
  };
  for (size_t i = 0; i < giants.size(); ++i) {
    const Value a = Value::Int64(giants[i]);
    for (size_t j = 0; j < giants.size(); ++j) {
      const Value b = Value::Int64(giants[j]);
      EXPECT_EQ(ByteCompare(Enc(a), Enc(b)), Sign(a.Compare(b)))
          << giants[i] << " vs " << giants[j];
      EXPECT_EQ(ByteCompare(EncDesc(a), EncDesc(b)), -Sign(a.Compare(b)))
          << "DESC " << giants[i] << " vs " << giants[j];
    }
    // Type ordering is intact: small numerics sort by sign, strings above.
    const Value small = Value::Int64(kExact - 2);
    EXPECT_EQ(ByteCompare(Enc(a), Enc(small)), Sign(a.Compare(small)))
        << giants[i];
    EXPECT_LT(ByteCompare(Enc(a), Enc(Value::String(""))), 0) << giants[i];
  }
}

// Tie presence is a pure function of the image, so composite keys with a
// giant segment stay self-delimiting: the next column still decides when
// the giant segments are byte-equal.
TEST(KeyCodecTest, GiantSegmentsStaySelfDelimitingInCompositeKeys) {
  const int64_t giant = (int64_t{1} << 53) + 1;
  Tuple a{Value::Int64(giant), Value::String("a")};
  Tuple b{Value::Int64(giant), Value::String("b")};
  Tuple c{Value::Int64(giant + 1), Value::String("a")};
  std::string ea, eb, ec;
  EncodeRowKey(a, &ea);
  EncodeRowKey(b, &eb);
  EncodeRowKey(c, &ec);
  EXPECT_LT(ByteCompare(ea, eb), 0);  // equal giants: second column decides
  EXPECT_LT(ByteCompare(ea, ec), 0);  // tiebreaker decides before column 2
}

// A giant int64 and the double that is exactly its value still encode
// byte-equal (both carry the same tiebreaker); the double one image above
// sorts strictly after.
TEST(KeyCodecTest, GiantCrossTypeExactTiesEncodeIdentically) {
  constexpr int64_t kExact = int64_t{1} << 53;
  EXPECT_EQ(Enc(Value::Int64(kExact)),
            Enc(Value::Double(static_cast<double>(kExact))));
  EXPECT_GT(ByteCompare(Enc(Value::Double(9007199254742016.0)),
                        Enc(Value::Int64(kExact))),
            0);
  // has_tie flags exactly the tiebreaker-carrying magnitudes, so sort and
  // join words (one image each) leave them to the codec bytes.
  EXPECT_FALSE(Segment(Value::Int64(kExact - 1)).has_tie);
  EXPECT_TRUE(Segment(Value::Int64(kExact)).has_tie);
  EXPECT_TRUE(Segment(Value::Int64(-kExact)).has_tie);
  EXPECT_FALSE(Segment(Value::Double(1e15)).has_tie);
  EXPECT_TRUE(Segment(Value::Double(1e300)).has_tie);
}

/// Join-key equality, stated over a Tuple: `row[cols[0]], row[cols[1]],
/// ...` encoded segment by segment, or false if any key column is SQL NULL
/// (equality joins never match NULLs). The executor's word index computes
/// the same equality without building the bytes (DESIGN.md §10).
bool EncodeJoinKey(const Tuple& row, const std::vector<size_t>& cols,
                   std::string* out) {
  for (size_t c : cols) {
    const Value& v = row.values()[c];
    if (v.is_null()) return false;
    EncodeValue(v, out);
  }
  return true;
}

TEST(KeyCodecTest, JoinKeyEqualityMatchesSqlEquals) {
  const std::vector<Value> vals = Corpus();
  const std::vector<size_t> cols = {0};
  for (size_t i = 0; i < vals.size(); ++i) {
    Tuple ra{vals[i]};
    std::string ea;
    const bool oka = EncodeJoinKey(ra, cols, &ea);
    // NULL key columns must refuse to encode: equality joins never match
    // NULLs.
    EXPECT_EQ(oka, !vals[i].is_null());
    if (!oka) continue;
    for (size_t j = 0; j < vals.size(); ++j) {
      Tuple rb{vals[j]};
      std::string eb;
      if (!EncodeJoinKey(rb, cols, &eb)) continue;
      EXPECT_EQ(ea == eb, vals[i].SqlEquals(vals[j]))
          << "corpus[" << i << "] vs corpus[" << j << "]";
    }
  }
}

TEST(KeyCodecTest, RowKeyEqualityIsDistinctIdentity) {
  // Whole-row keys allow NULLs and treat NULL == NULL (DISTINCT identity).
  Tuple a{Value::Null(), Value::Int64(3), Value::String("x")};
  Tuple b{Value::Null(), Value::Double(3.0), Value::String("x")};
  Tuple c{Value::Null(), Value::Int64(3), Value::String("y")};
  std::string ea, eb, ec;
  EncodeRowKey(a, &ea);
  EncodeRowKey(b, &eb);
  EncodeRowKey(c, &ec);
  EXPECT_EQ(ea, eb);
  EXPECT_NE(ea, ec);
}

TEST(KeyCodecTest, CompositeKeysOrderLikeTupleCompare) {
  // Composite keys: memcmp order over concatenated segments must equal
  // column-by-column Value::Compare (first non-equal column decides) —
  // including when an early string segment is a prefix of the other.
  std::vector<Tuple> rows;
  const std::vector<Value> small = {
      Value::Null(),          Value::Int64(-1), Value::Double(0.5),
      Value::String(""),      Value::String("a"), Value::String("ab"),
  };
  for (const Value& x : small)
    for (const Value& y : small) rows.push_back(Tuple{x, y});

  auto tuple_cmp = [](const Tuple& a, const Tuple& b) {
    for (size_t c = 0; c < a.values().size(); ++c) {
      int cmp = a.values()[c].Compare(b.values()[c]);
      if (cmp != 0) return Sign(cmp);
    }
    return 0;
  };
  for (const Tuple& a : rows) {
    std::string ea;
    EncodeRowKey(a, &ea);
    for (const Tuple& b : rows) {
      std::string eb;
      EncodeRowKey(b, &eb);
      EXPECT_EQ(ByteCompare(ea, eb), tuple_cmp(a, b));
    }
  }
}

TEST(KeyCodecTest, NumericImageMatchesCompare) {
  const std::vector<Value> vals = Corpus();
  for (const Value& a : vals) {
    if (a.is_null() || (!a.is_int64() && !a.is_double())) continue;
    const uint64_t ba = Segment(a).image;
    for (const Value& b : vals) {
      if (b.is_null() || (!b.is_int64() && !b.is_double())) continue;
      const uint64_t bb = Segment(b).image;
      const int want = Sign(a.Compare(b));
      EXPECT_EQ((ba < bb) ? -1 : (ba > bb ? 1 : 0), want);
      // Complemented bits reverse the order (DESC sort keys).
      EXPECT_EQ((~ba < ~bb) ? -1 : (~ba > ~bb ? 1 : 0), -want);
    }
  }
}

// --- Column-array encoding -------------------------------------------------
// EncodeColumnValue reads cells straight out of ColumnVector storage instead
// of materializing a Value; the executor mixes both paths freely inside one
// hash join (an owned intermediate against a base table's columns), so the
// two encoders must be byte-identical over the full type corpus — including
// int64 cells stored in kDouble columns and the ±2^53 tiebreaker regime.

/// A 3-column table whose rows sweep every corpus value through the column
/// type that can hold it (ints also pass through the kDouble column, where
/// the exact subtype must survive encoding), plus the test's own copy of
/// the inserted rows — the reference the columns are checked against.
struct CorpusTable {
  std::unique_ptr<Table> table;
  std::vector<Tuple> rows;
};

CorpusTable MakeCorpusTable() {
  constexpr int64_t kExact = int64_t{1} << 53;
  const double inf = std::numeric_limits<double>::infinity();
  const std::vector<Value> ints = {
      Value::Null(),          Value::Int64(std::numeric_limits<int64_t>::min()),
      Value::Int64(-kExact - 1), Value::Int64(-kExact), Value::Int64(-1),
      Value::Int64(0),        Value::Int64(3),          Value::Int64(kExact),
      Value::Int64(kExact + 1),
      Value::Int64(std::numeric_limits<int64_t>::max())};
  const std::vector<Value> nums = {
      Value::Null(),         Value::Double(-inf),  Value::Double(-1e300),
      Value::Double(-0.5),   Value::Double(-0.0),  Value::Double(0.0),
      Value::Double(3.0),    Value::Double(9007199254740994.0),
      Value::Double(inf),    Value::Int64(3),      Value::Int64(kExact + 1),
      Value::Int64(-kExact - 2)};
  const std::vector<Value> strs = {
      Value::Null(),       Value::String(""), Value::String(std::string("\0", 1)),
      Value::String("a"),  Value::String(std::string("a\0b", 3)),
      Value::String("a\xff"), Value::String("\xff")};
  TableSchema schema("corpus", {{"i", DataType::kInt64, /*nullable=*/true},
                                {"d", DataType::kDouble, true},
                                {"s", DataType::kString, true}});
  CorpusTable corpus{std::make_unique<Table>(std::move(schema)), {}};
  const size_t n = ints.size() * nums.size() * strs.size() / 7;
  for (size_t r = 0; r < n; ++r) {
    corpus.rows.push_back(Tuple{ints[r % ints.size()],
                                nums[(r * 5) % nums.size()],
                                strs[(r * 3) % strs.size()]});
    EXPECT_TRUE(corpus.table->Insert(corpus.rows.back()).ok());
  }
  return corpus;
}

TEST(KeyCodecTest, KeyWordsStandForTheirSegments) {
  // NULL and every numeric below 2^53 in magnitude have a word, and the
  // word's segment is the value's own encoding.
  size_t words = 0;
  for (const Value& v : Corpus()) {
    if (v.is_string()) continue;
    uint64_t word = 1;
    const bool has = v.is_null() || NumericKeyWord(Segment(v), &word);
    if (v.is_null()) word = 0;
    const double magnitude = v.is_null() ? 0 : std::fabs(v.AsNumeric());
    EXPECT_EQ(has, magnitude < 9007199254740992.0) << v.ToString();
    if (!has) continue;
    ++words;
    std::string from_word, from_value;
    AppendKeyWord(word, &from_word);
    EncodeValue(v, &from_value);
    EXPECT_EQ(from_word, from_value) << v.ToString();
  }
  EXPECT_GT(words, 10u);
  // The NaN whose image is 0, NULL's word, has none.
  const uint64_t bits = ~uint64_t{0};
  double nan;
  std::memcpy(&nan, &bits, sizeof(nan));
  uint64_t word = 1;
  EXPECT_FALSE(NumericKeyWord(DoubleSegment(nan), &word));
  EXPECT_EQ(word, 0u);
}

TEST(KeyCodecTest, ColumnEncodingIsByteIdenticalToValueEncoding) {
  const CorpusTable corpus = MakeCorpusTable();
  ASSERT_EQ(corpus.table->num_rows(), corpus.rows.size());
  for (size_t r = 0; r < corpus.rows.size(); ++r) {
    for (size_t c = 0; c < 3; ++c) {
      const Value& v = corpus.rows[r].values()[c];
      const ColumnVector& column = corpus.table->column(c);
      std::string from_value, from_column;
      EncodeValue(v, &from_value);
      EncodeColumnValue(column, r, &from_column);
      EXPECT_EQ(from_column, from_value)
          << "row " << r << " col " << c << " value " << v;
      std::string desc_value, desc_column;
      EncodeValueDescending(v, &desc_value);
      EncodeColumnValueDescending(column, r, &desc_column);
      EXPECT_EQ(desc_column, desc_value) << "DESC row " << r << " col " << c;
    }
  }
}

TEST(KeyCodecTest, ArenaKeepsViewsStableAcrossChunkGrowth) {
  KeyArena arena(/*chunk_bytes=*/16);
  std::vector<std::pair<std::string, std::string_view>> interned;
  uint64_t total_bytes = 0;
  for (int i = 0; i < 200; ++i) {
    // Sizes from 0 to beyond the chunk size (forces dedicated chunks).
    std::string key(static_cast<size_t>(i % 37), static_cast<char>('a' + i % 7));
    key += std::to_string(i);
    std::string_view view = arena.Intern(key);
    EXPECT_EQ(view, key);
    total_bytes += key.size();
    interned.emplace_back(std::move(key), view);
  }
  // No chunk was reallocated in place: every earlier view still reads back.
  for (const auto& [key, view] : interned) EXPECT_EQ(view, key);
  EXPECT_EQ(arena.keys_interned(), 200u);
  EXPECT_EQ(arena.bytes_interned(), total_bytes);
}

}  // namespace
}  // namespace silkroute::engine
