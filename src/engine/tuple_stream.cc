#include "engine/tuple_stream.h"

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

TupleStream::TupleStream(Relation relation)
    : TupleStream(Rows(std::move(relation))) {}

TupleStream::TupleStream(Rows rows)
    : schema_(rows.schema()), num_tuples_(rows.size()) {
  auto buffer = std::make_shared<std::string>();
  rows.AppendWire(buffer.get());
  end_ = buffer->size();
  buffer_ = std::move(buffer);
}

TupleStream TupleStream::Slice(size_t begin, size_t end,
                               size_t num_tuples) const {
  TupleStream slice(schema_, buffer_, num_tuples);
  slice.begin_ = slice.offset_ = begin;
  slice.end_ = end;
  return slice;
}

Result<std::vector<size_t>> TupleStream::RowOffsets() const {
  const std::string_view bytes = std::string_view(*buffer_).substr(0, end_);
  std::vector<size_t> offsets;
  offsets.reserve(num_tuples_ - rows_read_ + 1);
  size_t offset = offset_;
  while (offset < end_) {
    offsets.push_back(offset);
    SILK_RETURN_IF_ERROR(ParseRow(
        bytes, &offset, [](uint32_t) {}, [](const WireField&) {}));
  }
  if (rows_read_ + offsets.size() != num_tuples_) {
    return Status::InvalidArgument(
        "tuple stream ended after " +
        std::to_string(rows_read_ + offsets.size()) + " of " +
        std::to_string(num_tuples_) + " row(s)");
  }
  offsets.push_back(end_);
  return offsets;
}

Status TupleStream::FieldsAt(size_t* offset,
                             std::vector<WireField>* fields) const {
  fields->clear();
  SILK_RETURN_IF_ERROR(ParseRow(
      std::string_view(*buffer_).substr(0, end_), offset,
      [&](uint32_t n) { fields->reserve(n); },
      [&](const WireField& f) { fields->push_back(f); }));
  if (fields->size() != schema_.size()) {
    return Status::InvalidArgument(
        "tuple has " + std::to_string(fields->size()) + " field(s), schema " +
        std::to_string(schema_.size()));
  }
  return Status::OK();
}

std::optional<Tuple> TupleStream::Next() {
  if (offset_ >= end_) return std::nullopt;
  auto t = DeserializeTuple(std::string_view(*buffer_).substr(0, end_),
                            &offset_);
  if (!t.ok()) return std::nullopt;  // corrupt stream treated as EOS
  ++rows_read_;
  return std::move(t).value();
}

Result<bool> TupleStream::NextFields(std::vector<WireField>* fields) {
  if (offset_ >= end_) {
    if (rows_read_ != num_tuples_) {
      return Status::InvalidArgument(
          "tuple stream ended after " + std::to_string(rows_read_) +
          " of " + std::to_string(num_tuples_) + " row(s)");
    }
    return false;
  }
  SILK_RETURN_IF_ERROR(FieldsAt(&offset_, fields));
  ++rows_read_;
  return true;
}

}  // namespace silkroute::engine
