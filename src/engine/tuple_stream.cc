#include "engine/tuple_stream.h"

#include <chrono>
#include <cstring>

namespace silkroute::engine {

namespace {

bool GetU32(std::string_view buf, size_t* off, uint32_t* v) {
  if (*off + 4 > buf.size()) return false;
  std::memcpy(v, buf.data() + *off, 4);
  *off += 4;
  return true;
}

bool GetU64(std::string_view buf, size_t* off, uint64_t* v) {
  if (*off + 8 > buf.size()) return false;
  std::memcpy(v, buf.data() + *off, 8);
  *off += 8;
  return true;
}

}  // namespace

void SerializeTuple(const Tuple& tuple, std::string* out) {
  WireWriter writer(out);
  SerializeTuple(tuple, &writer);
}

void SerializeTuple(const Tuple& tuple, WireWriter* out) {
  out->Row(static_cast<uint32_t>(tuple.size()));
  for (const Value& v : tuple.values()) out->Field(v);
}

namespace {

// The one decoder of the wire format: parses the row at `*offset`,
// calling on_count(n) once with its field count and then on_field(field)
// per field, and advances `*offset`. Shared by the materializing
// (DeserializeTuple) and the in-place (NextFields) fetch.
template <typename OnCount, typename OnField>
Status ParseRow(std::string_view buffer, size_t* offset, OnCount&& on_count,
                OnField&& on_field) {
  uint32_t n;
  if (!GetU32(buffer, offset, &n)) {
    return Status::InvalidArgument("truncated tuple header");
  }
  // Hostile count check before reserve: every value costs at least its
  // 1-byte tag, so a count beyond the remaining bytes is forged — reject
  // it instead of attempting a multi-gigabyte allocation.
  if (n > buffer.size() - *offset) {
    return Status::InvalidArgument(
        "tuple claims " + std::to_string(n) + " values but only " +
        std::to_string(buffer.size() - *offset) + " byte(s) remain");
  }
  on_count(n);
  WireField field;
  for (uint32_t i = 0; i < n; ++i) {
    if (*offset >= buffer.size()) {
      return Status::InvalidArgument("truncated tuple field tag");
    }
    uint8_t tag = static_cast<uint8_t>(buffer[*offset]);
    ++*offset;
    switch (tag) {
      case WireWriter::kNull:
        field.kind = WireField::Kind::kNull;
        break;
      case WireWriter::kInt64: {
        uint64_t bits;
        if (!GetU64(buffer, offset, &bits)) {
          return Status::InvalidArgument("truncated int64 field");
        }
        field.kind = WireField::Kind::kInt64;
        field.i = static_cast<int64_t>(bits);
        break;
      }
      case WireWriter::kDouble: {
        uint64_t bits;
        if (!GetU64(buffer, offset, &bits)) {
          return Status::InvalidArgument("truncated double field");
        }
        field.kind = WireField::Kind::kDouble;
        std::memcpy(&field.d, &bits, 8);
        break;
      }
      case WireWriter::kString: {
        uint32_t len;
        if (!GetU32(buffer, offset, &len)) {
          return Status::InvalidArgument("truncated string length");
        }
        // Overflow-safe form of `*offset + len > buffer.size()`: a hostile
        // len near UINT32_MAX must not wrap the left-hand side.
        if (len > buffer.size() - *offset) {
          return Status::InvalidArgument("truncated string payload (wants " +
                                         std::to_string(len) + " byte(s))");
        }
        field.kind = WireField::Kind::kString;
        field.s = std::string_view(buffer.data() + *offset, len);
        *offset += len;
        break;
      }
      default:
        return Status::InvalidArgument("bad field tag " + std::to_string(tag));
    }
    on_field(field);
  }
  return Status::OK();
}

}  // namespace

Result<Tuple> DeserializeTuple(std::string_view buffer, size_t* offset) {
  Tuple tuple;
  std::vector<Value>& values = tuple.mutable_values();
  Status parsed = ParseRow(
      buffer, offset, [&](uint32_t n) { values.reserve(n); },
      [&](const WireField& f) {
        switch (f.kind) {
          case WireField::Kind::kNull:
            values.push_back(Value::Null());
            break;
          case WireField::Kind::kInt64:
            values.push_back(Value::Int64(f.i));
            break;
          case WireField::Kind::kDouble:
            values.push_back(Value::Double(f.d));
            break;
          case WireField::Kind::kString:
            values.push_back(Value::String(std::string(f.s)));
            break;
        }
      });
  if (!parsed.ok()) return parsed;
  return tuple;
}

namespace {

/// Decodes the row at `*offset` in place, checking its arity.
Status ReadRow(std::string_view bytes, size_t* offset, const RelSchema& schema,
               std::vector<WireField>* fields) {
  fields->clear();
  SILK_RETURN_IF_ERROR(ParseRow(
      bytes, offset, [&](uint32_t n) { fields->reserve(n); },
      [&](const WireField& f) { fields->push_back(f); }));
  if (fields->size() != schema.size()) {
    return Status::InvalidArgument(
        "tuple has " + std::to_string(fields->size()) + " field(s), schema " +
        std::to_string(schema.size()));
  }
  return Status::OK();
}

/// Rows the first window of a stream binds; later windows take as many
/// rows as fit kWindowBytes at the first window's bytes per row. The sizes
/// depend only on the rows, so a rewound stream binds the same windows.
constexpr size_t kFirstWindowRows = 64;

}  // namespace

TupleStream::TupleStream(std::shared_ptr<const Rows> batch)
    : schema_(batch->schema()),
      num_tuples_(batch->size()),
      batch_(std::move(batch)) {}

TupleStream::TupleStream(Rows rows)
    : TupleStream(std::make_shared<const Rows>(std::move(rows))) {
  Bind();
}

TupleStream::TupleStream(Relation relation)
    : TupleStream(Rows(std::move(relation))) {}

TupleStream TupleStream::Windowed(Rows rows) {
  return TupleStream(std::make_shared<const Rows>(std::move(rows)));
}

TupleStream::TupleStream(RelSchema schema,
                         std::shared_ptr<const std::string> wire,
                         size_t num_tuples,
                         std::shared_ptr<const std::vector<uint64_t>> index)
    : schema_(std::move(schema)),
      num_tuples_(num_tuples),
      buffer_(std::move(wire)),
      index_(std::move(index)),
      end_(buffer_->size()) {}

void TupleStream::Bind() {
  if (batch_ == nullptr) return;
  auto buffer = std::make_shared<std::string>();
  auto index = std::make_shared<std::vector<uint64_t>>();
  batch_->AppendWire(first_row_, first_row_ + num_tuples_, buffer.get(),
                     index.get());
  buffer_ = std::move(buffer);
  index_ = std::move(index);
  batch_.reset();
  window_ = std::string();
  first_row_ = begin_ = 0;
  end_ = buffer_->size();
  // The bytes were just written, so the seek cannot fail.
  Result<size_t> at = Seek(rows_read_);
  offset_ = at.ok() ? *at : end_;
}

std::string_view TupleStream::bytes() const {
  if (batch_ != nullptr) return window_;
  return std::string_view(*buffer_).substr(0, end_);
}

void TupleStream::Rewind() {
  rows_read_ = 0;
  if (batch_ == nullptr) {
    offset_ = begin_;
    return;
  }
  window_.clear();
  offset_ = 0;
  next_bind_ = first_row_;
}

Result<bool> TupleStream::Advance() {
  const size_t end_row = first_row_ + num_tuples_;
  if (batch_ != nullptr && offset_ >= window_.size() && next_bind_ < end_row) {
    const size_t rows =
        window_rows_ > 0 && next_bind_ > first_row_ ? window_rows_
                                                    : kFirstWindowRows;
    const size_t begin = next_bind_;
    next_bind_ = std::min(end_row, begin + rows);
    const auto start = std::chrono::steady_clock::now();
    window_.clear();
    batch_->AppendWire(begin, next_bind_, &window_);
    bind_ns_ += std::chrono::duration_cast<std::chrono::nanoseconds>(
                    std::chrono::steady_clock::now() - start)
                    .count();
    ++windows_;
    offset_ = 0;
    if (window_rows_ == 0) {
      window_rows_ = std::max<size_t>(
          1, kWindowBytes * (next_bind_ - begin) /
                 std::max<size_t>(window_.size(), 1));
    }
    if (begin >= bound_upto_) {
      bound_bytes_ += window_.size();
      bound_upto_ = next_bind_;
    }
  }
  if (offset_ < bytes().size()) return true;
  if (rows_read_ != num_tuples_) {
    return Status::InvalidArgument(
        "tuple stream ended after " + std::to_string(rows_read_) + " of " +
        std::to_string(num_tuples_) + " row(s)");
  }
  return false;
}

std::optional<Tuple> TupleStream::Next() {
  Result<bool> ready = Advance();
  if (!ready.ok() || !*ready) return std::nullopt;
  auto t = DeserializeTuple(bytes(), &offset_);
  if (!t.ok()) return std::nullopt;  // corrupt stream treated as EOS
  ++rows_read_;
  return std::move(t).value();
}

Result<bool> TupleStream::NextFields(std::vector<WireField>* fields) {
  SILK_ASSIGN_OR_RETURN(bool ready, Advance());
  if (!ready) return false;
  SILK_RETURN_IF_ERROR(ReadRow(bytes(), &offset_, schema_, fields));
  ++rows_read_;
  return true;
}

Result<size_t> TupleStream::Seek(size_t row) const {
  if (row == 0) return begin_;
  if (row == num_tuples_) return end_;
  const size_t at = first_row_ + row;
  const size_t entry = at / Rows::kIndexStride;
  if (entry >= index_->size() || (*index_)[entry] > end_) {
    return Status::InvalidArgument("no row index entry for row " +
                                   std::to_string(at));
  }
  size_t offset = (*index_)[entry];
  const std::string_view wire = bytes();
  for (size_t skip = at % Rows::kIndexStride; skip > 0; --skip) {
    SILK_RETURN_IF_ERROR(ParseRow(
        wire, &offset, [](uint32_t) {}, [](const WireField&) {}));
  }
  return offset;
}

Result<TupleStream> TupleStream::Slice(size_t begin, size_t end) const {
  if (begin > end || end > num_tuples_) {
    return Status::InvalidArgument("slice [" + std::to_string(begin) + ", " +
                                   std::to_string(end) + ") of " +
                                   std::to_string(num_tuples_) + " row(s)");
  }
  TupleStream slice = *this;
  slice.first_row_ = first_row_ + begin;
  slice.num_tuples_ = end - begin;
  slice.rows_read_ = 0;
  if (batch_ != nullptr) {
    slice.window_ = std::string();
    slice.offset_ = 0;
    slice.next_bind_ = slice.bound_upto_ = slice.first_row_;
    slice.window_rows_ = 0;
    slice.bound_bytes_ = slice.windows_ = 0;
    slice.bind_ns_ = 0;
    return slice;
  }
  SILK_ASSIGN_OR_RETURN(slice.begin_, Seek(begin));
  SILK_ASSIGN_OR_RETURN(slice.end_, Seek(end));
  slice.offset_ = slice.begin_;
  return slice;
}

Status TupleStream::Probe(size_t row, std::vector<WireField>* fields,
                          std::string* scratch) const {
  if (row >= num_tuples_) {
    return Status::InvalidArgument("probe of row " + std::to_string(row) +
                                   " of " + std::to_string(num_tuples_));
  }
  size_t offset = 0;
  if (batch_ != nullptr) {
    scratch->clear();
    batch_->AppendWire(first_row_ + row, first_row_ + row + 1, scratch);
    return ReadRow(*scratch, &offset, schema_, fields);
  }
  SILK_ASSIGN_OR_RETURN(offset, Seek(row));
  return ReadRow(bytes(), &offset, schema_, fields);
}

}  // namespace silkroute::engine
