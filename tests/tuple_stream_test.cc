#include <gtest/gtest.h>

#include "common/random.h"
#include "engine/tuple_stream.h"

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
      2);
  ASSERT_TRUE(*short_stream.NextFields(&fields));
  EXPECT_EQ(short_stream.NextFields(&fields).status().code(),
            StatusCode::kInvalidArgument);
  // Cut inside the last row.
  TupleStream cut(full.schema(),
                  std::make_shared<const std::string>(
                      wire.substr(0, wire.size() - 1)),
                  2);
  ASSERT_TRUE(*cut.NextFields(&fields));
  EXPECT_EQ(cut.NextFields(&fields).status().code(),
            StatusCode::kInvalidArgument);
  // A well-formed row whose arity disagrees with the schema.
  std::string narrow;
  SerializeTuple(Tuple{Value::Int64(1)}, &narrow);
  TupleStream mismatched(full.schema(),
                         std::make_shared<const std::string>(narrow), 1);
  EXPECT_EQ(mismatched.NextFields(&fields).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(TupleStreamTest, SlicesShareTheWireAndReadOnlyTheirRows) {
  TupleStream full(MakeRelation({
      Tuple{Value::Int64(1), Value::String("a")},
      Tuple{Value::Int64(2), Value::String("bb")},
      Tuple{Value::Int64(3), Value::Null()},
  }));
  auto offsets = full.RowOffsets();
  ASSERT_TRUE(offsets.ok()) << offsets.status();
  ASSERT_EQ(offsets->size(), 4u);  // three rows and the end
  EXPECT_EQ(offsets->front(), 0u);
  EXPECT_EQ(offsets->back(), full.wire_bytes());

  size_t at = (*offsets)[1];
  std::vector<WireField> fields;
  ASSERT_TRUE(full.FieldsAt(&at, &fields).ok());
  EXPECT_EQ(fields[1].s, "bb");
  EXPECT_EQ(at, (*offsets)[2]);

  TupleStream tail = full.Slice((*offsets)[1], (*offsets)[3], 2);
  EXPECT_EQ(tail.shared_wire(), full.shared_wire());  // no copy
  EXPECT_EQ(tail.wire_bytes(), (*offsets)[3] - (*offsets)[1]);
  auto tail_offsets = tail.RowOffsets();
  ASSERT_TRUE(tail_offsets.ok());
  EXPECT_EQ(*tail_offsets, std::vector<size_t>(offsets->begin() + 1,
                                               offsets->end()));
  ASSERT_TRUE(tail.NextFields(&fields).value());
  EXPECT_EQ(fields[0].i, 2);
  ASSERT_TRUE(tail.NextFields(&fields).value());
  EXPECT_EQ(fields[0].i, 3);
  EXPECT_FALSE(tail.NextFields(&fields).value());
  tail.Rewind();
  ASSERT_TRUE(tail.NextFields(&fields).value());
  EXPECT_EQ(fields[0].i, 2);

  // A slice promising more rows than its bytes hold is short.
  TupleStream head = full.Slice(0, (*offsets)[1], 2);
  EXPECT_EQ(head.RowOffsets().status().code(), StatusCode::kInvalidArgument);
  ASSERT_TRUE(head.NextFields(&fields).value());
  EXPECT_EQ(head.NextFields(&fields).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(TupleStreamTest, RowOffsetsRejectsBrokenFraming) {
  TupleStream full(MakeRelation({
      Tuple{Value::Int64(1), Value::String("a")},
      Tuple{Value::Int64(2), Value::String("b")},
  }));
  const std::string& wire = *full.shared_wire();
  TupleStream cut(full.schema(),
                  std::make_shared<const std::string>(
                      wire.substr(0, wire.size() - 1)),
                  2);
  EXPECT_EQ(cut.RowOffsets().status().code(), StatusCode::kInvalidArgument);
  TupleStream short_stream(
      full.schema(),
      std::make_shared<const std::string>(wire.substr(0, wire.size() / 2)),
      2);
  EXPECT_EQ(short_stream.RowOffsets().status().code(),
            StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace silkroute::engine
