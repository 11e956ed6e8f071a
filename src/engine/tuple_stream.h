// TupleStream: the middle-ware's cursor over a query result, modelled after
// JDBC. The paper's "total time" includes binding and transferring every
// result tuple to the client; we reproduce that cost with a real wire
// round-trip: the server side serializes each row to a length-prefixed
// binary format, and Next() deserializes it on the client side. The work is
// proportional to bytes moved (NULL padding included), exactly the quantity
// that penalizes wide unified plans in the paper.
#ifndef SILKROUTE_ENGINE_TUPLE_STREAM_H_
#define SILKROUTE_ENGINE_TUPLE_STREAM_H_

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/result.h"
#include "engine/executor.h"
#include "relational/tuple.h"

namespace silkroute::engine {

/// One field of a bound row read in place from the wire: nothing is
/// materialized, and a string is a view into the stream's buffer, valid
/// while the stream lives.
struct WireField {
  enum class Kind : uint8_t { kNull, kInt64, kDouble, kString };
  Kind kind = Kind::kNull;
  int64_t i = 0;       // kInt64
  double d = 0;        // kDouble
  std::string_view s;  // kString
};

/// The wire format's one encoder. A row is its u32 field count, then per
/// field a one-byte tag and its payload: nothing for NULL, the 8 payload
/// bytes of an int64 or a double (bit-exact, -0.0 and an int64 in a DOUBLE
/// column included), a u32 length and the bytes of a string. Integers are
/// host byte order. SerializeTuple and Rows::AppendWire both write through
/// it. It appends to `out` through a raw cursor, growing the string a chunk
/// at a time (its capacity geometrically), and trims it to the bytes
/// written when it goes out of scope.
class WireWriter {
 public:
  enum Tag : uint8_t { kNull = 0, kInt64 = 1, kDouble = 2, kString = 3 };

  explicit WireWriter(std::string* out) : out_(out), len_(out->size()) {}
  ~WireWriter() { out_->resize(len_); }
  WireWriter(const WireWriter&) = delete;
  WireWriter& operator=(const WireWriter&) = delete;

  /// Reserves capacity for about `bytes` more.
  void Expect(size_t bytes) { out_->reserve(len_ + bytes); }

  void Row(uint32_t fields) {
    std::memcpy(Room(4), &fields, 4);
    len_ += 4;
  }
  void Null() {
    *Room(1) = static_cast<char>(kNull);
    ++len_;
  }
  void Int64(int64_t v) { Word(kInt64, &v); }
  void Double(double v) { Word(kDouble, &v); }
  void String(std::string_view s) {
    char* p = Room(5 + s.size());
    p[0] = static_cast<char>(kString);
    const auto len = static_cast<uint32_t>(s.size());
    std::memcpy(p + 1, &len, 4);
    std::memcpy(p + 5, s.data(), s.size());
    len_ += 5 + s.size();
  }
  void Field(const Value& v) {
    if (v.is_null()) {
      Null();
    } else if (v.is_int64()) {
      Int64(v.AsInt64());
    } else if (v.is_double()) {
      Double(v.AsDouble());
    } else {
      String(v.AsString());
    }
  }

 private:
  /// A tag and 8 payload bytes.
  void Word(Tag tag, const void* payload) {
    char* p = Room(9);
    p[0] = static_cast<char>(tag);
    std::memcpy(p + 1, payload, 8);
    len_ += 9;
  }
  /// The cursor, with room for `bytes` behind it.
  char* Room(size_t bytes) {
    if (out_->size() - len_ < bytes) {
      const size_t size = len_ + std::max(bytes, kChunk);
      if (size > out_->capacity()) {
        out_->reserve(std::max(size, 2 * out_->capacity()));
      }
      out_->resize(size);
    }
    return out_->data() + len_;
  }

  static constexpr size_t kChunk = 4096;

  std::string* out_;
  size_t len_;  // bytes written; out_'s size beyond it is scratch
};

/// Serializes one tuple to the wire format, appending to `out`.
void SerializeTuple(const Tuple& tuple, std::string* out);
void SerializeTuple(const Tuple& tuple, WireWriter* out);

/// Deserializes one tuple starting at `*offset`; advances `*offset`.
Result<Tuple> DeserializeTuple(std::string_view buffer, size_t* offset);

class TupleStream {
 public:
  /// Takes a result and runs the server-side binding (serialization)
  /// immediately — the stream then owns only wire bytes. The engine's
  /// batch binds straight from its typed columns (Rows::AppendWire): the
  /// same bytes as binding rows.ToRelation(), with no Value built for a
  /// base-table cell.
  explicit TupleStream(Rows rows);
  explicit TupleStream(Relation relation);

  /// Adopts already-bound wire bytes shared with a cache entry
  /// (engine/result_cache.h): a cache hit constructs its stream without
  /// re-executing *or* re-serializing, and without copying the buffer —
  /// the shared_ptr keeps the bytes alive past eviction.
  TupleStream(RelSchema schema, std::shared_ptr<const std::string> wire,
              size_t num_tuples)
      : schema_(std::move(schema)),
        buffer_(std::move(wire)),
        end_(buffer_->size()),
        num_tuples_(num_tuples) {}

  /// A zero-copy stream over the `num_tuples` rows in bytes [begin, end) of
  /// this stream's wire buffer; `begin` and `end` are row boundaries from
  /// RowOffsets. The slice shares the buffer and reads as its own stream.
  TupleStream Slice(size_t begin, size_t end, size_t num_tuples) const;

  /// The byte offsets of the unread rows, followed by the end offset: what
  /// Slice cuts at. Checks the row framing only (field counts against the
  /// schema are checked as rows are read); a stream shorter than
  /// num_tuples() is an error, as in NextFields.
  Result<std::vector<size_t>> RowOffsets() const;

  /// Decodes the row starting at byte `*offset` (a RowOffsets entry) in
  /// place, as NextFields does, and advances `*offset` past it; the
  /// stream's own cursor does not move.
  Status FieldsAt(size_t* offset, std::vector<WireField>* fields) const;

  const RelSchema& schema() const { return schema_; }

  /// Client-side fetch: deserializes and returns the next tuple, or
  /// nullopt at end of stream. A corrupt stream also reads as nullopt;
  /// consumers that must not lose rows use NextFields.
  std::optional<Tuple> Next();

  /// Allocation-free client-side fetch: decodes the next row's fields in
  /// place into `*fields` (reusing its storage) and returns true, or
  /// returns false at end of stream. A corrupt row, or an end of stream
  /// reached after fewer rows than num_tuples(), is an error.
  Result<bool> NextFields(std::vector<WireField>* fields);

  /// Rewinds to the first tuple.
  void Rewind() {
    offset_ = begin_;
    rows_read_ = 0;
  }

  size_t wire_bytes() const { return end_ - begin_; }
  size_t num_tuples() const { return num_tuples_; }

  /// The bound wire buffer, shareable with a cache entry at no copy (the
  /// whole buffer, also for a slice).
  const std::shared_ptr<const std::string>& shared_wire() const {
    return buffer_;
  }

 private:
  RelSchema schema_;
  std::shared_ptr<const std::string> buffer_;
  size_t begin_ = 0;  // this stream's bytes of *buffer_: [begin_, end_)
  size_t end_ = 0;
  size_t offset_ = 0;
  size_t rows_read_ = 0;
  size_t num_tuples_ = 0;
};

}  // namespace silkroute::engine

#endif  // SILKROUTE_ENGINE_TUPLE_STREAM_H_
