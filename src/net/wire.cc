#include "net/wire.h"

#include <cstdio>
#include <cstring>

#include "engine/tuple_stream.h"

namespace silkroute::net {

namespace {

void PutU16(uint16_t v, std::string* out) {
  char buf[2] = {static_cast<char>(v & 0xFF), static_cast<char>(v >> 8)};
  out->append(buf, 2);
}

void PutU32(uint32_t v, std::string* out) {
  char buf[4];
  for (int i = 0; i < 4; ++i) buf[i] = static_cast<char>((v >> (8 * i)) & 0xFF);
  out->append(buf, 4);
}

void PutU64(uint64_t v, std::string* out) {
  char buf[8];
  for (int i = 0; i < 8; ++i) buf[i] = static_cast<char>((v >> (8 * i)) & 0xFF);
  out->append(buf, 8);
}

uint16_t GetU16(const char* p) {
  return static_cast<uint16_t>(static_cast<uint8_t>(p[0]) |
                               (static_cast<uint16_t>(static_cast<uint8_t>(p[1]))
                                << 8));
}

uint32_t GetU32(const char* p) {
  uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<uint32_t>(static_cast<uint8_t>(p[i])) << (8 * i);
  }
  return v;
}

uint64_t GetU64(const char* p) {
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<uint64_t>(static_cast<uint8_t>(p[i])) << (8 * i);
  }
  return v;
}

/// Bounds-checked cursor over an immutable payload. Every Get* fails with
/// kInvalidArgument instead of reading past the end.
class Reader {
 public:
  explicit Reader(std::string_view bytes) : bytes_(bytes) {}

  size_t remaining() const { return bytes_.size() - pos_; }
  bool done() const { return pos_ == bytes_.size(); }

  Status Need(size_t n, const char* what) {
    if (remaining() < n) {
      return Status::InvalidArgument(std::string("truncated ") + what + ": " +
                                     std::to_string(n) + " byte(s) needed, " +
                                     std::to_string(remaining()) + " left");
    }
    return Status::OK();
  }

  Result<uint32_t> U32(const char* what) {
    SILK_RETURN_IF_ERROR(Need(4, what));
    uint32_t v = GetU32(bytes_.data() + pos_);
    pos_ += 4;
    return v;
  }

  Result<uint64_t> U64(const char* what) {
    SILK_RETURN_IF_ERROR(Need(8, what));
    uint64_t v = GetU64(bytes_.data() + pos_);
    pos_ += 8;
    return v;
  }

  /// A u32 length prefix followed by that many bytes.
  Result<std::string_view> LengthPrefixed(const char* what) {
    auto len = U32(what);
    SILK_RETURN_IF_ERROR(len.status());
    if (*len > remaining()) {
      return Status::InvalidArgument(
          std::string("oversized length prefix for ") + what + ": " +
          std::to_string(*len) + " byte(s) claimed, " +
          std::to_string(remaining()) + " left");
    }
    std::string_view v = bytes_.substr(pos_, *len);
    pos_ += *len;
    return v;
  }

 private:
  std::string_view bytes_;
  size_t pos_ = 0;
};

}  // namespace

const char* FrameTypeToString(FrameType type) {
  switch (type) {
    case FrameType::kRequest: return "request";
    case FrameType::kChunk: return "chunk";
    case FrameType::kEnd: return "end";
    case FrameType::kError: return "error";
    case FrameType::kStats: return "stats";
    case FrameType::kVersions: return "versions";
  }
  return "unknown";
}

uint64_t FrameHash(const FrameHeader& header, std::string_view payload) {
  // FNV-1a 64 over the 28 pre-hash header bytes, then the payload.
  std::string prefix;
  prefix.reserve(28);
  PutU32(kWireMagic, &prefix);
  prefix.push_back(static_cast<char>(header.version));
  prefix.push_back(static_cast<char>(header.type));
  PutU16(header.flags, &prefix);
  PutU64(header.request_id, &prefix);
  PutU64(header.budget_us, &prefix);
  PutU32(header.payload_len, &prefix);
  uint64_t h = 14695981039346656037ull;
  auto mix = [&h](std::string_view bytes) {
    for (char c : bytes) {
      h ^= static_cast<uint8_t>(c);
      h *= 1099511628211ull;
    }
  };
  mix(prefix);
  mix(payload);
  return h;
}

void EncodeFrameHeader(const FrameHeader& header, std::string* out) {
  PutU32(kWireMagic, out);
  out->push_back(static_cast<char>(header.version));
  out->push_back(static_cast<char>(header.type));
  PutU16(header.flags, out);
  PutU64(header.request_id, out);
  PutU64(header.budget_us, out);
  PutU32(header.payload_len, out);
  PutU64(header.payload_hash, out);
}

Result<FrameHeader> DecodeFrameHeader(std::string_view bytes,
                                      uint32_t max_payload) {
  if (bytes.size() < kFrameHeaderSize) {
    return Status::InvalidArgument(
        "truncated frame header: " + std::to_string(bytes.size()) + " of " +
        std::to_string(kFrameHeaderSize) + " byte(s)");
  }
  const char* p = bytes.data();
  uint32_t magic = GetU32(p);
  if (magic != kWireMagic) {
    return Status::InvalidArgument("bad frame magic 0x" + [&] {
      char buf[16];
      std::snprintf(buf, sizeof(buf), "%08X", magic);
      return std::string(buf);
    }());
  }
  FrameHeader header;
  header.version = static_cast<uint8_t>(p[4]);
  if (header.version != kWireVersion && header.version != kWireVersionLegacy) {
    return Status::InvalidArgument("unsupported wire version " +
                                   std::to_string(header.version));
  }
  uint8_t type = static_cast<uint8_t>(p[5]);
  uint8_t max_type = header.version >= 2
                         ? static_cast<uint8_t>(FrameType::kVersions)
                         : static_cast<uint8_t>(FrameType::kError);
  if (type < static_cast<uint8_t>(FrameType::kRequest) || type > max_type) {
    return Status::InvalidArgument("bad frame type " + std::to_string(type));
  }
  header.type = static_cast<FrameType>(type);
  header.flags = GetU16(p + 6);
  // v1 keeps the original strictness (all flags reserved); v2 defines
  // kFlagTrace and reserves the rest.
  uint16_t allowed = header.version >= 2 ? kFlagTrace : 0;
  if ((header.flags & ~allowed) != 0) {
    return Status::InvalidArgument("nonzero reserved frame flags " +
                                   std::to_string(header.flags));
  }
  header.request_id = GetU64(p + 8);
  header.budget_us = GetU64(p + 16);
  header.payload_len = GetU32(p + 24);
  header.payload_hash = GetU64(p + 28);
  if (header.payload_len > max_payload) {
    return Status::InvalidArgument(
        "oversized frame payload: " + std::to_string(header.payload_len) +
        " byte(s) exceeds cap " + std::to_string(max_payload));
  }
  return header;
}

void EncodeRequestPayload(std::string_view sql, std::string* out) {
  PutU32(static_cast<uint32_t>(sql.size()), out);
  out->append(sql);
}

Result<std::string> DecodeRequestPayload(std::string_view payload) {
  Reader reader(payload);
  auto sql = reader.LengthPrefixed("request sql");
  SILK_RETURN_IF_ERROR(sql.status());
  if (!reader.done()) {
    return Status::InvalidArgument(
        "trailing bytes after request sql: " +
        std::to_string(reader.remaining()));
  }
  return std::string(*sql);
}

void EncodeErrorPayload(const Status& status, std::string* out) {
  PutU32(static_cast<uint32_t>(status.code()), out);
  const std::string& message = status.message();
  PutU32(static_cast<uint32_t>(message.size()), out);
  out->append(message);
}

Status DecodeErrorPayload(std::string_view payload, Status* carried) {
  Reader reader(payload);
  auto code = reader.U32("error code");
  SILK_RETURN_IF_ERROR(code.status());
  if (*code == 0 ||
      *code > static_cast<uint32_t>(StatusCode::kResourceExhausted)) {
    return Status::InvalidArgument("bad error status code " +
                                   std::to_string(*code));
  }
  auto message = reader.LengthPrefixed("error message");
  SILK_RETURN_IF_ERROR(message.status());
  if (!reader.done()) {
    return Status::InvalidArgument(
        "trailing bytes after error message: " +
        std::to_string(reader.remaining()));
  }
  *carried = Status(static_cast<StatusCode>(*code), std::string(*message));
  return Status::OK();
}

void EncodeEndPayload(const EndPayload& end, std::string* out) {
  PutU64(end.rows, out);
  PutU64(end.relation_bytes, out);
}

Result<EndPayload> DecodeEndPayload(std::string_view payload) {
  if (payload.size() != 16) {
    return Status::InvalidArgument("end payload must be 16 byte(s), got " +
                                   std::to_string(payload.size()));
  }
  EndPayload end;
  end.rows = GetU64(payload.data());
  end.relation_bytes = GetU64(payload.data() + 8);
  return end;
}

namespace {

void PutLengthPrefixed(std::string_view bytes, std::string* out) {
  PutU32(static_cast<uint32_t>(bytes.size()), out);
  out->append(bytes);
}

/// Decodes one trace block from `reader`; must consume it exactly.
Result<std::vector<WireSpan>> DecodeTraceBlockFrom(Reader& reader) {
  auto count = reader.U32("trace span count");
  SILK_RETURN_IF_ERROR(count.status());
  if (*count > kMaxTraceSpans) {
    return Status::InvalidArgument("hostile trace span count " +
                                   std::to_string(*count));
  }
  // Each span needs at least three length prefixes, two timestamps, and an
  // annotation count (32 bytes); reject counts the payload cannot hold
  // before any allocation sized from them.
  if (*count > reader.remaining() / 32) {
    return Status::InvalidArgument("hostile trace span count " +
                                   std::to_string(*count));
  }
  std::vector<WireSpan> spans;
  spans.reserve(*count);
  for (uint32_t i = 0; i < *count; ++i) {
    WireSpan span;
    auto id = reader.LengthPrefixed("trace span id");
    SILK_RETURN_IF_ERROR(id.status());
    span.id = std::string(*id);
    auto parent = reader.LengthPrefixed("trace span parent id");
    SILK_RETURN_IF_ERROR(parent.status());
    span.parent_id = std::string(*parent);
    auto name = reader.LengthPrefixed("trace span name");
    SILK_RETURN_IF_ERROR(name.status());
    span.name = std::string(*name);
    auto start_ns = reader.U64("trace span start_ns");
    SILK_RETURN_IF_ERROR(start_ns.status());
    span.start_ns = *start_ns;
    auto end_ns = reader.U64("trace span end_ns");
    SILK_RETURN_IF_ERROR(end_ns.status());
    span.end_ns = *end_ns;
    auto n_annotations = reader.U32("trace annotation count");
    SILK_RETURN_IF_ERROR(n_annotations.status());
    // Each annotation needs at least its two length prefixes.
    if (*n_annotations > reader.remaining() / 8) {
      return Status::InvalidArgument("hostile trace annotation count " +
                                     std::to_string(*n_annotations));
    }
    span.annotations.reserve(*n_annotations);
    for (uint32_t j = 0; j < *n_annotations; ++j) {
      auto key = reader.LengthPrefixed("trace annotation key");
      SILK_RETURN_IF_ERROR(key.status());
      auto value = reader.LengthPrefixed("trace annotation value");
      SILK_RETURN_IF_ERROR(value.status());
      span.annotations.emplace_back(std::string(*key), std::string(*value));
    }
    spans.push_back(std::move(span));
  }
  if (!reader.done()) {
    return Status::InvalidArgument(
        "trailing bytes after trace block: " +
        std::to_string(reader.remaining()));
  }
  return spans;
}

}  // namespace

void EncodeTracedRequestPayload(std::string_view sql,
                                const WireTraceContext& trace,
                                std::string* out) {
  EncodeRequestPayload(sql, out);
  PutLengthPrefixed(trace.trace_id, out);
  PutLengthPrefixed(trace.parent_span_id, out);
}

Result<TracedRequest> DecodeTracedRequestPayload(std::string_view payload) {
  Reader reader(payload);
  auto sql = reader.LengthPrefixed("request sql");
  SILK_RETURN_IF_ERROR(sql.status());
  auto trace_id = reader.LengthPrefixed("trace id");
  SILK_RETURN_IF_ERROR(trace_id.status());
  auto parent = reader.LengthPrefixed("parent span id");
  SILK_RETURN_IF_ERROR(parent.status());
  if (!reader.done()) {
    return Status::InvalidArgument(
        "trailing bytes after trace context: " +
        std::to_string(reader.remaining()));
  }
  TracedRequest request;
  request.sql = std::string(*sql);
  request.trace.trace_id = std::string(*trace_id);
  request.trace.parent_span_id = std::string(*parent);
  return request;
}

void EncodeVersionsRequestPayload(const std::vector<std::string>& tables,
                                  std::string* out) {
  PutU32(static_cast<uint32_t>(tables.size()), out);
  for (const std::string& table : tables) PutLengthPrefixed(table, out);
}

Result<std::vector<std::string>> DecodeVersionsRequestPayload(
    std::string_view payload) {
  Reader reader(payload);
  auto count = reader.U32("versions table count");
  SILK_RETURN_IF_ERROR(count.status());
  if (*count > kMaxVersionTables) {
    return Status::InvalidArgument("hostile versions table count " +
                                   std::to_string(*count));
  }
  std::vector<std::string> tables;
  tables.reserve(*count);
  for (uint32_t i = 0; i < *count; ++i) {
    auto name = reader.LengthPrefixed("versions table name");
    SILK_RETURN_IF_ERROR(name.status());
    tables.emplace_back(*name);
  }
  if (!reader.done()) {
    return Status::InvalidArgument(
        "trailing bytes after versions request: " +
        std::to_string(reader.remaining()));
  }
  return tables;
}

void EncodeVersionsResponsePayload(
    const std::vector<std::pair<std::string, uint64_t>>& versions,
    std::string* out) {
  PutU32(static_cast<uint32_t>(versions.size()), out);
  for (const auto& [table, version] : versions) {
    PutLengthPrefixed(table, out);
    PutU64(version, out);
  }
}

Result<std::vector<std::pair<std::string, uint64_t>>>
DecodeVersionsResponsePayload(std::string_view payload) {
  Reader reader(payload);
  auto count = reader.U32("versions entry count");
  SILK_RETURN_IF_ERROR(count.status());
  if (*count > kMaxVersionTables) {
    return Status::InvalidArgument("hostile versions entry count " +
                                   std::to_string(*count));
  }
  std::vector<std::pair<std::string, uint64_t>> versions;
  versions.reserve(*count);
  for (uint32_t i = 0; i < *count; ++i) {
    auto name = reader.LengthPrefixed("versions table name");
    SILK_RETURN_IF_ERROR(name.status());
    auto version = reader.U64("versions counter");
    SILK_RETURN_IF_ERROR(version.status());
    versions.emplace_back(std::string(*name), *version);
  }
  if (!reader.done()) {
    return Status::InvalidArgument(
        "trailing bytes after versions response: " +
        std::to_string(reader.remaining()));
  }
  return versions;
}

void EncodeTraceBlock(const std::vector<WireSpan>& spans, std::string* out) {
  PutU32(static_cast<uint32_t>(spans.size()), out);
  for (const auto& span : spans) {
    PutLengthPrefixed(span.id, out);
    PutLengthPrefixed(span.parent_id, out);
    PutLengthPrefixed(span.name, out);
    PutU64(span.start_ns, out);
    PutU64(span.end_ns, out);
    PutU32(static_cast<uint32_t>(span.annotations.size()), out);
    for (const auto& [key, value] : span.annotations) {
      PutLengthPrefixed(key, out);
      PutLengthPrefixed(value, out);
    }
  }
}

Result<std::vector<WireSpan>> DecodeTraceBlock(std::string_view bytes) {
  Reader reader(bytes);
  return DecodeTraceBlockFrom(reader);
}

void EncodeTracedEndPayload(const EndPayload& end,
                            const std::vector<WireSpan>& spans,
                            std::string* out) {
  EncodeEndPayload(end, out);
  EncodeTraceBlock(spans, out);
}

Result<TracedEnd> DecodeTracedEndPayload(std::string_view payload) {
  if (payload.size() < 16) {
    return Status::InvalidArgument(
        "traced end payload must start with the 16-byte base, got " +
        std::to_string(payload.size()));
  }
  TracedEnd traced;
  traced.end.rows = GetU64(payload.data());
  traced.end.relation_bytes = GetU64(payload.data() + 8);
  Reader reader(payload.substr(16));
  auto spans = DecodeTraceBlockFrom(reader);
  SILK_RETURN_IF_ERROR(spans.status());
  traced.spans = std::move(spans).value();
  return traced;
}

namespace {

/// The relation codec's header: the schema, then the row count.
void PutRelationHeader(const engine::RelSchema& schema, size_t rows,
                       std::string* out) {
  PutU32(static_cast<uint32_t>(schema.size()), out);
  for (const auto& column : schema.columns()) {
    PutU32(static_cast<uint32_t>(column.qualifier.size()), out);
    out->append(column.qualifier);
    PutU32(static_cast<uint32_t>(column.name.size()), out);
    out->append(column.name);
  }
  PutU64(rows, out);
}

}  // namespace

void SerializeRows(engine::Rows& rows, std::string* out) {
  PutRelationHeader(rows.schema(), rows.size(), out);
  rows.AppendWire(out);
}

void SerializeRelation(const engine::Relation& relation, std::string* out) {
  PutRelationHeader(relation.schema, relation.rows.size(), out);
  engine::WireWriter writer(out);
  size_t estimate = 0;
  for (const auto& row : relation.rows) estimate += row.ByteSize() + 8;
  writer.Expect(estimate);
  for (const auto& row : relation.rows) engine::SerializeTuple(row, &writer);
}

Result<engine::Relation> DeserializeRelation(std::string_view bytes) {
  Reader reader(bytes);
  auto ncols = reader.U32("column count");
  SILK_RETURN_IF_ERROR(ncols.status());
  // Each column needs at least its two length prefixes; a hostile count is
  // rejected before any allocation sized from it.
  if (*ncols > reader.remaining() / 8) {
    return Status::InvalidArgument("hostile column count " +
                                   std::to_string(*ncols));
  }
  engine::Relation relation;
  for (uint32_t i = 0; i < *ncols; ++i) {
    auto qualifier = reader.LengthPrefixed("column qualifier");
    SILK_RETURN_IF_ERROR(qualifier.status());
    auto name = reader.LengthPrefixed("column name");
    SILK_RETURN_IF_ERROR(name.status());
    relation.schema.Add(
        engine::OutputColumn{std::string(*qualifier), std::string(*name)});
  }
  auto nrows = reader.U64("row count");
  SILK_RETURN_IF_ERROR(nrows.status());
  // Each row is at least a 4-byte value count.
  if (*nrows > reader.remaining() / 4) {
    return Status::InvalidArgument("hostile row count " +
                                   std::to_string(*nrows));
  }
  relation.rows.reserve(static_cast<size_t>(*nrows));
  // The row region, read in place: no copy of the rows' bytes.
  const std::string_view row_bytes =
      bytes.substr(bytes.size() - reader.remaining());
  size_t offset = 0;
  for (uint64_t i = 0; i < *nrows; ++i) {
    auto tuple = engine::DeserializeTuple(row_bytes, &offset);
    SILK_RETURN_IF_ERROR(tuple.status());
    if (tuple->size() != relation.schema.size()) {
      return Status::InvalidArgument(
          "row " + std::to_string(i) + " has " + std::to_string(tuple->size()) +
          " value(s) for " + std::to_string(relation.schema.size()) +
          " column(s)");
    }
    relation.rows.push_back(std::move(tuple).value());
  }
  if (offset != row_bytes.size()) {
    return Status::InvalidArgument(
        "trailing bytes after last row: " +
        std::to_string(row_bytes.size() - offset));
  }
  return relation;
}

}  // namespace silkroute::net
