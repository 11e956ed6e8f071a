#include <gtest/gtest.h>

#include <iterator>
#include <string>
#include <vector>

#include "common/random.h"
#include "engine/tuple_stream.h"
#include "relational/database.h"

namespace silkroute::engine {
namespace {

Relation MakeRelation(std::vector<Tuple> rows) {
  Relation r;
  r.schema.Add({"", "a"});
  r.schema.Add({"", "b"});
  r.rows = std::move(rows);
  return r;
}

TEST(TupleStreamTest, RoundTripsAllValueKinds) {
  Tuple t{Value::Int64(-7), Value::Double(3.25), Value::String("héllo"),
          Value::Null()};
  std::string wire;
  SerializeTuple(t, &wire);
  size_t offset = 0;
  auto back = DeserializeTuple(wire, &offset);
  ASSERT_TRUE(back.ok()) << back.status();
  EXPECT_EQ(offset, wire.size());
  EXPECT_EQ(*back, t);
}

TEST(TupleStreamTest, EmptyTupleRoundTrips) {
  Tuple t;
  std::string wire;
  SerializeTuple(t, &wire);
  size_t offset = 0;
  auto back = DeserializeTuple(wire, &offset);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->size(), 0u);
}

TEST(TupleStreamTest, TruncatedBufferIsError) {
  Tuple t{Value::String("abcdef")};
  std::string wire;
  SerializeTuple(t, &wire);
  for (size_t cut = 1; cut < wire.size(); ++cut) {
    std::string truncated = wire.substr(0, cut);
    size_t offset = 0;
    EXPECT_FALSE(DeserializeTuple(truncated, &offset).ok()) << cut;
  }
}

TEST(TupleStreamTest, BadTagIsError) {
  std::string wire;
  SerializeTuple(Tuple{Value::Int64(1)}, &wire);
  wire[4] = 99;  // corrupt the field tag
  size_t offset = 0;
  EXPECT_EQ(DeserializeTuple(wire, &offset).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(TupleStreamTest, HostileValueCountRejectedBeforeAllocation) {
  // A forged header claiming 4 billion values must fail fast (the real
  // buffer has almost no bytes), not attempt a giant reserve.
  std::string wire("\xFF\xFF\xFF\xFF", 4);
  wire.push_back('\0');  // one stray byte after the forged count
  size_t offset = 0;
  auto result = DeserializeTuple(wire, &offset);
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST(TupleStreamTest, HostileStringLengthRejected) {
  // A string length near UINT32_MAX must not wrap the bounds check.
  std::string wire;
  SerializeTuple(Tuple{Value::String("abc")}, &wire);
  // Value count (4 bytes) + tag (1) puts the length prefix at offset 5.
  wire[5] = '\xFC';
  wire[6] = '\xFF';
  wire[7] = '\xFF';
  wire[8] = '\xFF';
  size_t offset = 0;
  auto result = DeserializeTuple(wire, &offset);
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST(TupleStreamTest, StreamYieldsAllTuplesInOrder) {
  TupleStream stream(MakeRelation({
      Tuple{Value::Int64(1), Value::String("x")},
      Tuple{Value::Int64(2), Value::Null()},
      Tuple{Value::Int64(3), Value::String("z")},
  }));
  EXPECT_EQ(stream.num_tuples(), 3u);
  for (int64_t i = 1; i <= 3; ++i) {
    auto t = stream.Next();
    ASSERT_TRUE(t.has_value());
    EXPECT_EQ((*t)[0].AsInt64(), i);
  }
  EXPECT_FALSE(stream.Next().has_value());
  EXPECT_FALSE(stream.Next().has_value());  // stays exhausted
}

TEST(TupleStreamTest, RewindRestarts) {
  TupleStream stream(MakeRelation({Tuple{Value::Int64(1), Value::Null()}}));
  ASSERT_TRUE(stream.Next().has_value());
  ASSERT_FALSE(stream.Next().has_value());
  stream.Rewind();
  ASSERT_TRUE(stream.Next().has_value());
}

TEST(TupleStreamTest, SchemaPreserved) {
  TupleStream stream(MakeRelation({}));
  EXPECT_EQ(stream.schema().size(), 2u);
  EXPECT_EQ(stream.schema().column(1).name, "b");
  EXPECT_FALSE(stream.Next().has_value());
}

TEST(TupleStreamTest, WireBytesGrowWithData) {
  TupleStream small(MakeRelation({Tuple{Value::Int64(1), Value::Null()}}));
  TupleStream large(MakeRelation({
      Tuple{Value::Int64(1), Value::String(std::string(1000, 'x'))},
  }));
  EXPECT_GT(large.wire_bytes(), small.wire_bytes() + 900);
}

TEST(TupleStreamTest, RandomRoundTripProperty) {
  Random rng(42);
  for (int iter = 0; iter < 100; ++iter) {
    Tuple t;
    int n = static_cast<int>(rng.Uniform(0, 8));
    for (int i = 0; i < n; ++i) {
      switch (rng.Uniform(0, 3)) {
        case 0:
          t.Append(Value::Null());
          break;
        case 1:
          t.Append(Value::Int64(rng.Uniform(-1000000, 1000000)));
          break;
        case 2:
          t.Append(Value::Double(rng.NextDouble() * 1e6 - 5e5));
          break;
        default:
          t.Append(Value::String(
              rng.NextString(static_cast<size_t>(rng.Uniform(0, 40)))));
      }
    }
    std::string wire;
    SerializeTuple(t, &wire);
    size_t offset = 0;
    auto back = DeserializeTuple(wire, &offset);
    ASSERT_TRUE(back.ok());
    ASSERT_EQ(*back, t);
    ASSERT_EQ(offset, wire.size());
  }
}

TEST(TupleStreamTest, NextFieldsReadsRowsInPlace) {
  TupleStream stream(MakeRelation({
      Tuple{Value::Int64(-4), Value::String("xyz")},
      Tuple{Value::Double(2.5), Value::Null()},
  }));
  std::vector<WireField> fields;
  auto got = stream.NextFields(&fields);
  ASSERT_TRUE(got.ok() && *got) << got.status();
  ASSERT_EQ(fields.size(), 2u);
  EXPECT_EQ(fields[0].kind, WireField::Kind::kInt64);
  EXPECT_EQ(fields[0].i, -4);
  EXPECT_EQ(fields[1].kind, WireField::Kind::kString);
  EXPECT_EQ(fields[1].s, "xyz");
  // The string is a view into the stream's own wire buffer.
  const std::string& wire = *stream.shared_wire();
  EXPECT_GE(fields[1].s.data(), wire.data());
  EXPECT_LE(fields[1].s.data() + 3, wire.data() + wire.size());
  got = stream.NextFields(&fields);
  ASSERT_TRUE(got.ok() && *got);
  EXPECT_EQ(fields[0].kind, WireField::Kind::kDouble);
  EXPECT_EQ(fields[0].d, 2.5);
  EXPECT_EQ(fields[1].kind, WireField::Kind::kNull);
  got = stream.NextFields(&fields);
  ASSERT_TRUE(got.ok());
  EXPECT_FALSE(*got);
  stream.Rewind();
  got = stream.NextFields(&fields);
  ASSERT_TRUE(got.ok() && *got);
}

TEST(TupleStreamTest, NextFieldsRejectsShortOrCorruptStreams) {
  TupleStream full(MakeRelation({
      Tuple{Value::Int64(1), Value::String("a")},
      Tuple{Value::Int64(2), Value::String("b")},
  }));
  const std::string& wire = *full.shared_wire();
  std::vector<WireField> fields;
  // Cut at the row boundary: a clean end of stream one row early.
  TupleStream short_stream(
      full.schema(),
      std::make_shared<const std::string>(wire.substr(0, wire.size() / 2)),
      2, full.row_index());
  ASSERT_TRUE(*short_stream.NextFields(&fields));
  EXPECT_EQ(short_stream.NextFields(&fields).status().code(),
            StatusCode::kInvalidArgument);
  // Cut inside the last row.
  TupleStream cut(full.schema(),
                  std::make_shared<const std::string>(
                      wire.substr(0, wire.size() - 1)),
                  2, full.row_index());
  ASSERT_TRUE(*cut.NextFields(&fields));
  EXPECT_EQ(cut.NextFields(&fields).status().code(),
            StatusCode::kInvalidArgument);
  // A well-formed row whose arity disagrees with the schema.
  std::string narrow;
  SerializeTuple(Tuple{Value::Int64(1)}, &narrow);
  TupleStream mismatched(full.schema(),
                         std::make_shared<const std::string>(narrow), 1,
                         full.row_index());
  EXPECT_EQ(mismatched.NextFields(&fields).status().code(),
            StatusCode::kInvalidArgument);
}

/// Reads `stream` on to its end and re-encodes every row it decoded: the
/// bytes a reader saw, field by field.
std::string ReadAll(TupleStream* stream) {
  std::string out;
  {
    WireWriter writer(&out);
    std::vector<WireField> fields;
    while (true) {
      Result<bool> got = stream->NextFields(&fields);
      EXPECT_TRUE(got.ok()) << got.status();
      if (!got.ok() || !*got) break;
      writer.Row(static_cast<uint32_t>(fields.size()));
      for (const WireField& f : fields) {
        switch (f.kind) {
          case WireField::Kind::kNull:
            writer.Null();
            break;
          case WireField::Kind::kInt64:
            writer.Int64(f.i);
            break;
          case WireField::Kind::kDouble:
            writer.Double(f.d);
            break;
          case WireField::Kind::kString:
            writer.String(f.s);
            break;
        }
      }
    }
  }
  return out;
}

/// A batch with every cell shape the wire format tells apart: NULLs, -0.0
/// and int64 cells in a DOUBLE column, a computed item, and strings from
/// empty to longer than a window, so that windows end between rows of
/// very different widths and one row is wider than a window.
class WindowedStreamTest : public ::testing::Test {
 protected:
  static constexpr int64_t kRows = 3000;
  static constexpr int64_t kWideRow = 1500;

  void SetUp() override {
    TableSchema t("T", {{"k", DataType::kInt64, false},
                        {"d", DataType::kDouble, true},
                        {"s", DataType::kString, true}});
    ASSERT_TRUE(db_.CreateTable(t).ok());
    for (int64_t k = 0; k < kRows; ++k) {
      Value d = k % 7 == 0   ? Value::Null()
                : k % 5 == 0 ? Value::Double(-0.0)
                : k % 3 == 0 ? Value::Int64(k)
                             : Value::Double(static_cast<double>(k) * 0.5);
      const size_t len = k == kWideRow ? TupleStream::kWindowBytes + 100
                                       : static_cast<size_t>(k * 37 % 400);
      Value s = k % 11 == 0 ? Value::Null()
                            : Value::String(std::string(
                                  len, static_cast<char>('a' + k % 26)));
      ASSERT_TRUE(db_.Insert("T", Tuple{Value::Int64(k), d, s}).ok());
    }
  }

  Rows Execute() {
    QueryExecutor exec(&db_);
    auto rows = exec.ExecuteRows(
        "select t.k, t.d, t.s, t.k + 1 as k1 from T t order by t.k desc", 0,
        nullptr);
    EXPECT_TRUE(rows.ok()) << rows.status();
    return rows.ok() ? std::move(rows).value() : Rows();
  }

  Database db_;
};

TEST_F(WindowedStreamTest, ReadsLikeAWholeBind) {
  TupleStream whole(Execute());
  TupleStream windowed = TupleStream::Windowed(Execute());
  ASSERT_EQ(windowed.num_tuples(), static_cast<size_t>(kRows));
  EXPECT_EQ(windowed.shared_wire(), nullptr);
  EXPECT_EQ(windowed.wire_bytes(), 0u);  // nothing bound yet
  EXPECT_EQ(ReadAll(&windowed), *whole.shared_wire());
  EXPECT_EQ(windowed.wire_bytes(), whole.wire_bytes());
  const size_t windows = windowed.windows();
  EXPECT_GT(windows, 3u);
  EXPECT_GT(windowed.bind_ms(), 0.0);

  // A rewound stream binds the same windows again; its bytes count once.
  windowed.Rewind();
  EXPECT_EQ(ReadAll(&windowed), *whole.shared_wire());
  EXPECT_EQ(windowed.windows(), 2 * windows);
  EXPECT_EQ(windowed.wire_bytes(), whole.wire_bytes());
}

TEST_F(WindowedStreamTest, SlicesCutByRowIndex) {
  TupleStream whole(Execute());
  TupleStream windowed = TupleStream::Windowed(Execute());
  const std::string& expected = *whole.shared_wire();
  // Cuts off a row index stride and around the wide row.
  const size_t cuts[] = {0, 1, 777, kWideRow, kWideRow + 1, kRows};
  for (TupleStream* stream : {&whole, &windowed}) {
    std::string read;
    for (size_t c = 0; c + 1 < std::size(cuts); ++c) {
      auto slice = stream->Slice(cuts[c], cuts[c + 1]);
      ASSERT_TRUE(slice.ok()) << slice.status();
      EXPECT_EQ(slice->num_tuples(), cuts[c + 1] - cuts[c]);
      if (stream == &whole) {
        EXPECT_EQ(slice->shared_wire(), whole.shared_wire());  // no copy
      }
      read += ReadAll(&*slice);
    }
    EXPECT_EQ(read, expected);
    EXPECT_EQ(stream->Slice(2, 1).status().code(),
              StatusCode::kInvalidArgument);
    EXPECT_EQ(stream->Slice(0, kRows + 1).status().code(),
              StatusCode::kInvalidArgument);
  }
  // Each slice counts the bytes it bound: together, the whole's once. The
  // stream they were cut from read nothing and counts nothing.
  EXPECT_EQ(windowed.wire_bytes(), 0u);
  size_t sliced_bytes = 0;
  for (int pass = 0; pass < 2; ++pass) {  // re-slicing adds no bytes
    sliced_bytes = 0;
    for (size_t c = 0; c + 1 < std::size(cuts); ++c) {
      auto slice = windowed.Slice(cuts[c], cuts[c + 1]);
      ASSERT_TRUE(slice.ok()) << slice.status();
      ReadAll(&*slice);
      sliced_bytes += slice->wire_bytes();
    }
    EXPECT_EQ(sliced_bytes, whole.wire_bytes());
  }
  EXPECT_EQ(windowed.windows(), 0u);

  // A slice of a slice reaches the same rows as the direct slice.
  for (TupleStream* stream : {&whole, &windowed}) {
    auto outer = stream->Slice(700, 1600);
    ASSERT_TRUE(outer.ok()) << outer.status();
    auto inner = outer->Slice(77, 801);
    auto direct = stream->Slice(777, 1501);
    ASSERT_TRUE(inner.ok()) << inner.status();
    ASSERT_TRUE(direct.ok()) << direct.status();
    EXPECT_EQ(ReadAll(&*inner), ReadAll(&*direct));
  }
}

TEST_F(WindowedStreamTest, ProbeReadsOneRowWithoutMovingTheCursor) {
  TupleStream whole(Execute());
  TupleStream windowed = TupleStream::Windowed(Execute());
  std::vector<WireField> a, b, next;
  std::string scratch_a, scratch_b;
  for (size_t r : {size_t{0}, size_t{63}, size_t{64}, size_t{1499},
                   size_t{kWideRow}, size_t{kRows - 1}}) {
    ASSERT_TRUE(whole.Probe(r, &a, &scratch_a).ok());
    ASSERT_TRUE(windowed.Probe(r, &b, &scratch_b).ok());
    ASSERT_EQ(a.size(), b.size());
    EXPECT_EQ(a[0].i, b[0].i) << r;
    EXPECT_EQ(a[0].i, kRows - 1 - static_cast<int64_t>(r));
    ASSERT_EQ(a[2].kind, b[2].kind) << r;
    if (a[2].kind == WireField::Kind::kString) {
      EXPECT_EQ(a[2].s, b[2].s) << r;
    }
  }
  EXPECT_EQ(whole.Probe(kRows, &a, &scratch_a).code(),
            StatusCode::kInvalidArgument);
  ASSERT_TRUE(*windowed.NextFields(&next));
  EXPECT_EQ(next[0].i, kRows - 1);  // still the first row
}

TEST_F(WindowedStreamTest, BindAfterAPartialReadKeepsTheCursor) {
  TupleStream whole(Execute());
  TupleStream windowed = TupleStream::Windowed(Execute());
  std::vector<WireField> fields;
  for (int64_t r = 0; r <= kWideRow; ++r) {  // past the wide row's window
    ASSERT_TRUE(*windowed.NextFields(&fields));
  }
  windowed.Bind();
  ASSERT_NE(windowed.shared_wire(), nullptr);
  ASSERT_NE(windowed.row_index(), nullptr);
  EXPECT_EQ(*windowed.shared_wire(), *whole.shared_wire());
  EXPECT_EQ(windowed.wire_bytes(), whole.wire_bytes());
  // The rest reads on from the next row.
  auto rest = whole.Slice(kWideRow + 1, kRows);
  ASSERT_TRUE(rest.ok());
  EXPECT_EQ(ReadAll(&windowed), ReadAll(&*rest));
  windowed.Rewind();
  EXPECT_EQ(ReadAll(&windowed), *whole.shared_wire());
  // The recorded index lets a stream over the same bytes be cut.
  TupleStream adopted(whole.schema(), windowed.shared_wire(), kRows,
                      windowed.row_index());
  auto tail = adopted.Slice(kRows - 2, kRows);
  ASSERT_TRUE(tail.ok()) << tail.status();
  ASSERT_TRUE(*tail->NextFields(&fields));
  EXPECT_EQ(fields[0].i, 1);
}

TEST(TupleStreamTest, WireStreamsAreCutThroughTheirRowIndex) {
  std::vector<Tuple> rows;
  for (int64_t k = 0; k < 200; ++k) {
    rows.push_back(Tuple{Value::Int64(k), Value::String(std::string(
                                              static_cast<size_t>(k % 9), 'x'))});
  }
  TupleStream full(MakeRelation(rows));
  ASSERT_NE(full.row_index(), nullptr);
  EXPECT_EQ(full.row_index()->size(), 4u);  // rows 0, 64, 128, 192
  std::vector<WireField> fields;
  std::string scratch;

  // Bytes adopted with their index are cut as the eager stream is.
  TupleStream adopted(full.schema(), full.shared_wire(), 200,
                      full.row_index());
  auto tail = adopted.Slice(130, 200);
  ASSERT_TRUE(tail.ok()) << tail.status();
  ASSERT_TRUE(*tail->NextFields(&fields));
  EXPECT_EQ(fields[0].i, 130);
  ASSERT_TRUE(adopted.Probe(199, &fields, &scratch).ok());
  EXPECT_EQ(fields[0].i, 199);

  // An index past the bytes, or into a broken frame, is an error.
  auto past = std::make_shared<const std::vector<uint64_t>>(
      std::vector<uint64_t>{0, full.wire_bytes() + 1});
  TupleStream forged(full.schema(), full.shared_wire(), 200, past);
  EXPECT_EQ(forged.Slice(100, 200).status().code(),
            StatusCode::kInvalidArgument);
  auto cut = std::make_shared<const std::string>(
      full.shared_wire()->substr(0, full.wire_bytes() / 2));
  TupleStream truncated(full.schema(), cut, 200, full.row_index());
  EXPECT_EQ(truncated.Probe(199, &fields, &scratch).code(),
            StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace silkroute::engine
