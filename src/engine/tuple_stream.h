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
  /// Bytes of *out written so far, what it held before included.
  size_t size() const { return len_; }

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

/// The middle-ware's cursor over one component's result. It reads one of
/// two sources (DESIGN.md §10 "Handing over results"):
///  - a shared batch (engine::Rows), bound window by window as it is read:
///    each window is about kWindowBytes of rows, bound into a buffer the
///    stream reuses, so a stream holds one window of wire bytes, not the
///    whole result;
///  - shared wire bytes, bound whole, with a sparse row index (the offset
///    of every Rows::kIndexStride-th row) recorded as they were bound.
/// Either way a row is serialized once and decoded once. Slice cuts both
/// by row index without reading the rows in between, and Probe reads one
/// row without moving the cursor: what the range-parallel tagger cuts
/// with. Streams over one batch may be read on different threads.
class TupleStream {
 public:
  /// About how many wire bytes one window binds.
  static constexpr size_t kWindowBytes = size_t{64} << 10;

  /// Takes a result and runs the server-side binding (serialization) of
  /// every row now; the stream then owns only wire bytes and their row
  /// index. The engine's batch binds straight from its typed columns
  /// (Rows::AppendWire): the same bytes as binding rows.ToRelation(), with
  /// no Value built for a base-table cell.
  explicit TupleStream(Rows rows);
  explicit TupleStream(Relation relation);

  /// Keeps `rows` and binds them in windows as they are read.
  static TupleStream Windowed(Rows rows);

  /// Adopts already-bound wire bytes shared with a cache entry
  /// (engine/result_cache.h): a cache hit constructs its stream without
  /// re-executing *or* re-serializing, and without copying the buffer —
  /// the shared_ptr keeps the bytes alive past eviction. `index` (not
  /// null) is the row index recorded when they were bound (row_index()).
  TupleStream(RelSchema schema, std::shared_ptr<const std::string> wire,
              size_t num_tuples,
              std::shared_ptr<const std::vector<uint64_t>> index);

  /// Binds every row of the stream whole now, unless it already is: a
  /// windowed stream becomes a wire stream with a row index (shareable
  /// with a cache entry) and lets go of its batch. The cursor stays on
  /// the same row; rows already read are bound again.
  void Bind();

  /// A stream over rows [begin, end) of this one, read independently: a
  /// windowed stream's slice shares the batch and binds its own windows
  /// (counted in its own wire_bytes(), windows() and bind_ms()), a wire
  /// stream's shares the bytes. A corrupt row index is an error.
  Result<TupleStream> Slice(size_t begin, size_t end) const;

  /// Decodes row `row` of the stream into `*fields` without moving the
  /// cursor. A windowed stream binds the row alone into `*scratch`, which
  /// string fields then point into; a wire stream's point into its bytes.
  Status Probe(size_t row, std::vector<WireField>* fields,
               std::string* scratch) const;

  const RelSchema& schema() const { return schema_; }

  /// Client-side fetch: deserializes and returns the next tuple, or
  /// nullopt at end of stream. A corrupt stream also reads as nullopt;
  /// consumers that must not lose rows use NextFields.
  std::optional<Tuple> Next();

  /// Allocation-free client-side fetch: decodes the next row's fields in
  /// place into `*fields` (reusing its storage) and returns true, or
  /// returns false at end of stream. A corrupt row, or an end of stream
  /// reached after fewer rows than num_tuples(), is an error. String
  /// fields point into the stream's bytes: for a windowed stream, into its
  /// current window, valid until the window is spent (window_spent()).
  Result<bool> NextFields(std::vector<WireField>* fields);

  /// True when the next fetch binds a new window into the reused buffer:
  /// string fields read from the current window die with that fetch.
  bool window_spent() const {
    return batch_ != nullptr && offset_ >= window_.size() &&
           next_bind_ < first_row_ + num_tuples_;
  }

  /// Rewinds to the first tuple.
  void Rewind();

  /// A wire stream's bytes. For a windowed stream, the bytes of the
  /// windows this stream bound on its first pass over its rows (a rewound
  /// stream's next pass adds nothing, and neither do its slices' reads):
  /// once it has read every row, the bytes a whole bind of them produces.
  size_t wire_bytes() const {
    return batch_ != nullptr ? bound_bytes_ : end_ - begin_;
  }
  size_t num_tuples() const { return num_tuples_; }

  /// The windows this stream bound so far, every pass included, and the
  /// time that took; 0 for a wire stream.
  size_t windows() const { return windows_; }
  double bind_ms() const { return static_cast<double>(bind_ns_) / 1e6; }

  /// The bound wire buffer, shareable with a cache entry at no copy (the
  /// whole buffer, also for a slice); null for a windowed stream.
  const std::shared_ptr<const std::string>& shared_wire() const {
    return buffer_;
  }
  /// The bound buffer's row index, shared likewise.
  const std::shared_ptr<const std::vector<uint64_t>>& row_index() const {
    return index_;
  }

 private:
  explicit TupleStream(std::shared_ptr<const Rows> batch);

  /// The bytes rows are read from: the window, or the wire buffer.
  std::string_view bytes() const;
  /// Makes the next row readable at offset_, binding a window if the
  /// current one is spent. False at the end of the stream.
  Result<bool> Advance();
  /// The offset in *buffer_ of row `row` of this stream.
  Result<size_t> Seek(size_t row) const;

  RelSchema schema_;
  size_t first_row_ = 0;  // this stream's rows: [first_row_, +num_tuples_)
                          // of the batch or of the wire buffer
  size_t num_tuples_ = 0;
  size_t rows_read_ = 0;
  size_t offset_ = 0;  // the next row's offset in bytes()

  // Wire source: this stream's bytes are [begin_, end_) of *buffer_.
  std::shared_ptr<const std::string> buffer_;
  std::shared_ptr<const std::vector<uint64_t>> index_;
  size_t begin_ = 0;
  size_t end_ = 0;

  // Batch source, shared by the stream's slices: window_ holds rows
  // [.., next_bind_) of the batch.
  std::shared_ptr<const Rows> batch_;
  std::string window_;
  size_t next_bind_ = 0;
  size_t window_rows_ = 0;  // rows per window after the first; 0: unset
  size_t bound_upto_ = 0;   // rows below it are counted in bound_bytes_
  size_t bound_bytes_ = 0;
  size_t windows_ = 0;
  int64_t bind_ns_ = 0;
};

}  // namespace silkroute::engine

#endif  // SILKROUTE_ENGINE_TUPLE_STREAM_H_
