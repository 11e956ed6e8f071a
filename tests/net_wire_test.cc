// Wire protocol codec tests: byte-exact header layout, round-trips for
// every payload kind, exhaustive prefix truncation, and hostile inputs
// (forged magic/version/type/flags/lengths) — all must yield
// kInvalidArgument, never UB or a partial value.
#include <gtest/gtest.h>

#include "net/wire.h"
#include "relational/database.h"

namespace silkroute::net {
namespace {

FrameHeader MakeHeader() {
  FrameHeader header;
  header.type = FrameType::kChunk;
  header.request_id = 0x1122334455667788ull;
  header.budget_us = 2'500'000;
  header.payload_len = 64;
  header.payload_hash = 0xA0A1A2A3A4A5A6A7ull;
  return header;
}

TEST(NetWireTest, HeaderLayoutIsByteExact) {
  std::string bytes;
  EncodeFrameHeader(MakeHeader(), &bytes);
  ASSERT_EQ(bytes.size(), kFrameHeaderSize);
  // Magic "SRK1" little-endian: 0x53524B31 -> 31 4B 52 53.
  EXPECT_EQ(static_cast<uint8_t>(bytes[0]), 0x31);
  EXPECT_EQ(static_cast<uint8_t>(bytes[1]), 0x4B);
  EXPECT_EQ(static_cast<uint8_t>(bytes[2]), 0x52);
  EXPECT_EQ(static_cast<uint8_t>(bytes[3]), 0x53);
  // Plain frames default to the legacy version (v2 is opt-in per frame).
  EXPECT_EQ(static_cast<uint8_t>(bytes[4]), kWireVersionLegacy);
  EXPECT_EQ(static_cast<uint8_t>(bytes[5]),
            static_cast<uint8_t>(FrameType::kChunk));
  EXPECT_EQ(static_cast<uint8_t>(bytes[6]), 0);  // flags
  EXPECT_EQ(static_cast<uint8_t>(bytes[7]), 0);
  EXPECT_EQ(static_cast<uint8_t>(bytes[8]), 0x88);   // request_id LE
  EXPECT_EQ(static_cast<uint8_t>(bytes[15]), 0x11);
  EXPECT_EQ(static_cast<uint8_t>(bytes[24]), 64);    // payload_len LE
  EXPECT_EQ(static_cast<uint8_t>(bytes[28]), 0xA7);  // payload_hash LE
  EXPECT_EQ(static_cast<uint8_t>(bytes[35]), 0xA0);
}

TEST(NetWireTest, HeaderRoundTrips) {
  std::string bytes;
  EncodeFrameHeader(MakeHeader(), &bytes);
  auto back = DecodeFrameHeader(bytes);
  ASSERT_TRUE(back.ok()) << back.status();
  EXPECT_EQ(back->version, kWireVersionLegacy);
  EXPECT_EQ(back->type, FrameType::kChunk);
  EXPECT_EQ(back->flags, 0);
  EXPECT_EQ(back->request_id, 0x1122334455667788ull);
  EXPECT_EQ(back->budget_us, 2'500'000u);
  EXPECT_EQ(back->payload_len, 64u);
  EXPECT_EQ(back->payload_hash, 0xA0A1A2A3A4A5A6A7ull);
}

TEST(NetWireTest, FrameHashCoversHeaderAndPayload) {
  FrameHeader header = MakeHeader();
  uint64_t base = FrameHash(header, "payload");
  EXPECT_EQ(FrameHash(header, "payload"), base);  // deterministic
  // Any single change to the payload or a covered header field moves it.
  EXPECT_NE(FrameHash(header, "paxload"), base);
  EXPECT_NE(FrameHash(header, "payloa"), base);
  FrameHeader other = header;
  other.request_id ^= 1;
  EXPECT_NE(FrameHash(other, "payload"), base);
  other = header;
  other.budget_us ^= 1;
  EXPECT_NE(FrameHash(other, "payload"), base);
  other = header;
  other.type = FrameType::kEnd;
  EXPECT_NE(FrameHash(other, "payload"), base);
  // The hash field itself is not covered (it cannot hash itself).
  other = header;
  other.payload_hash ^= 0xFFFF;
  EXPECT_EQ(FrameHash(other, "payload"), base);
}

TEST(NetWireTest, EveryHeaderTruncationRejected) {
  std::string bytes;
  EncodeFrameHeader(MakeHeader(), &bytes);
  for (size_t cut = 0; cut < bytes.size(); ++cut) {
    auto result = DecodeFrameHeader(bytes.substr(0, cut));
    EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument) << cut;
  }
}

TEST(NetWireTest, HostileHeaderFieldsRejected) {
  std::string good;
  EncodeFrameHeader(MakeHeader(), &good);

  std::string bad_magic = good;
  bad_magic[0] = 'X';
  EXPECT_EQ(DecodeFrameHeader(bad_magic).status().code(),
            StatusCode::kInvalidArgument);

  std::string bad_version = good;
  bad_version[4] = 9;
  EXPECT_EQ(DecodeFrameHeader(bad_version).status().code(),
            StatusCode::kInvalidArgument);

  std::string bad_type = good;
  bad_type[5] = 0;
  EXPECT_EQ(DecodeFrameHeader(bad_type).status().code(),
            StatusCode::kInvalidArgument);
  // kStats (5) is a v2-only type; on a legacy header it is hostile.
  bad_type[5] = 5;
  EXPECT_EQ(DecodeFrameHeader(bad_type).status().code(),
            StatusCode::kInvalidArgument);

  // All flags are reserved on v1 — including kFlagTrace.
  std::string bad_flags = good;
  bad_flags[6] = 1;
  EXPECT_EQ(DecodeFrameHeader(bad_flags).status().code(),
            StatusCode::kInvalidArgument);

  // An oversized length prefix — the torn/garbage-length case — must be
  // rejected before any allocation happens.
  std::string bad_len = good;
  bad_len[24] = '\xFF';
  bad_len[25] = '\xFF';
  bad_len[26] = '\xFF';
  bad_len[27] = '\xFF';
  EXPECT_EQ(DecodeFrameHeader(bad_len).status().code(),
            StatusCode::kInvalidArgument);

  // The same length under a tightened per-call cap.
  std::string capped = good;  // payload_len = 64
  EXPECT_EQ(DecodeFrameHeader(capped, /*max_payload=*/16).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_TRUE(DecodeFrameHeader(capped, /*max_payload=*/64).ok());
}

TEST(NetWireTest, RequestPayloadRoundTrips) {
  std::string payload;
  EncodeRequestPayload("select s.suppkey from Supplier s", &payload);
  auto back = DecodeRequestPayload(payload);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, "select s.suppkey from Supplier s");

  // Trailing junk after the declared SQL is a framing bug — rejected.
  payload.push_back('x');
  EXPECT_EQ(DecodeRequestPayload(payload).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(NetWireTest, ErrorPayloadRoundTripsEveryCode) {
  for (auto code : {StatusCode::kTimeout, StatusCode::kUnavailable,
                    StatusCode::kInvalidArgument, StatusCode::kInternal}) {
    std::string payload;
    EncodeErrorPayload(Status(code, "the message"), &payload);
    Status carried = Status::OK();
    ASSERT_TRUE(DecodeErrorPayload(payload, &carried).ok());
    EXPECT_EQ(carried.code(), code);
    EXPECT_EQ(carried.message(), "the message");
  }
}

TEST(NetWireTest, HostileErrorPayloadRejected) {
  Status carried = Status::OK();
  // Status code 0 (OK) or far out of range cannot be carried as an error.
  std::string zero("\0\0\0\0\0\0\0\0", 8);
  EXPECT_EQ(DecodeErrorPayload(zero, &carried).code(),
            StatusCode::kInvalidArgument);
  std::string huge("\xFF\xFF\xFF\xFF\0\0\0\0", 8);
  EXPECT_EQ(DecodeErrorPayload(huge, &carried).code(),
            StatusCode::kInvalidArgument);
  // Message length prefix longer than the payload.
  std::string torn;
  EncodeErrorPayload(Status::Timeout("abcdef"), &torn);
  torn.resize(torn.size() - 3);
  EXPECT_EQ(DecodeErrorPayload(torn, &carried).code(),
            StatusCode::kInvalidArgument);
}

TEST(NetWireTest, EndPayloadRoundTripsAndRejectsWrongSize) {
  std::string payload;
  EncodeEndPayload({123, 45678}, &payload);
  auto back = DecodeEndPayload(payload);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->rows, 123u);
  EXPECT_EQ(back->relation_bytes, 45678u);
  EXPECT_EQ(DecodeEndPayload(payload.substr(0, 15)).status().code(),
            StatusCode::kInvalidArgument);
  payload.push_back('\0');
  EXPECT_EQ(DecodeEndPayload(payload).status().code(),
            StatusCode::kInvalidArgument);
}

// ---------------------------------------------------------------------------
// Wire v2: version gating, trace context, and trace blocks (DESIGN.md §14).

TEST(NetWireV2Test, V2HeaderCarriesTraceFlagAndStatsType) {
  FrameHeader header = MakeHeader();
  header.version = kWireVersion;
  header.flags = kFlagTrace;
  std::string bytes;
  EncodeFrameHeader(header, &bytes);
  auto back = DecodeFrameHeader(bytes);
  ASSERT_TRUE(back.ok()) << back.status();
  EXPECT_EQ(back->version, kWireVersion);
  EXPECT_EQ(back->flags, kFlagTrace);

  // kStats decodes only under v2.
  FrameHeader stats = MakeHeader();
  stats.version = kWireVersion;
  stats.type = FrameType::kStats;
  stats.payload_len = 0;
  bytes.clear();
  EncodeFrameHeader(stats, &bytes);
  auto stats_back = DecodeFrameHeader(bytes);
  ASSERT_TRUE(stats_back.ok()) << stats_back.status();
  EXPECT_EQ(stats_back->type, FrameType::kStats);
}

TEST(NetWireV2Test, V2ReservedFlagsStillRejected) {
  // v2 defines exactly kFlagTrace; every other bit stays reserved.
  FrameHeader header = MakeHeader();
  header.version = kWireVersion;
  header.flags = kFlagTrace | 0x2;
  std::string bytes;
  EncodeFrameHeader(header, &bytes);
  EXPECT_EQ(DecodeFrameHeader(bytes).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(NetWireV2Test, LegacyHeaderRejectsTraceFlagAndStats) {
  // What a pre-v2 peer would see from a confused sender: trace flag or
  // kStats on a v1 header. Both die at decode, before any execution.
  FrameHeader traced = MakeHeader();
  traced.version = kWireVersionLegacy;
  traced.flags = kFlagTrace;
  std::string bytes;
  EncodeFrameHeader(traced, &bytes);
  EXPECT_EQ(DecodeFrameHeader(bytes).status().code(),
            StatusCode::kInvalidArgument);

  FrameHeader stats = MakeHeader();
  stats.version = kWireVersionLegacy;
  stats.type = FrameType::kStats;
  bytes.clear();
  EncodeFrameHeader(stats, &bytes);
  EXPECT_EQ(DecodeFrameHeader(bytes).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(NetWireV2Test, TracedRequestPayloadRoundTrips) {
  WireTraceContext trace;
  trace.trace_id = "7";
  trace.parent_span_id = "7.2.1.3";
  std::string payload;
  EncodeTracedRequestPayload("select * from Supplier", trace, &payload);
  auto back = DecodeTracedRequestPayload(payload);
  ASSERT_TRUE(back.ok()) << back.status();
  EXPECT_EQ(back->sql, "select * from Supplier");
  EXPECT_EQ(back->trace.trace_id, "7");
  EXPECT_EQ(back->trace.parent_span_id, "7.2.1.3");

  // A traced payload is not decodable as a plain request (trailing trace
  // context), and vice versa (missing trace context) — the flag and the
  // payload shape must agree.
  EXPECT_EQ(DecodeRequestPayload(payload).status().code(),
            StatusCode::kInvalidArgument);
  std::string plain;
  EncodeRequestPayload("select 1 from T", &plain);
  EXPECT_EQ(DecodeTracedRequestPayload(plain).status().code(),
            StatusCode::kInvalidArgument);

  // Trailing junk and every truncation are rejected.
  std::string junk = payload;
  junk.push_back('x');
  EXPECT_EQ(DecodeTracedRequestPayload(junk).status().code(),
            StatusCode::kInvalidArgument);
  for (size_t cut = 0; cut < payload.size(); ++cut) {
    EXPECT_EQ(DecodeTracedRequestPayload(payload.substr(0, cut))
                  .status()
                  .code(),
              StatusCode::kInvalidArgument)
        << cut;
  }
}

std::vector<WireSpan> MakeSpans() {
  WireSpan root;
  root.id = "1";
  root.name = "server";
  root.start_ns = 10;
  root.end_ns = 900;
  root.annotations.emplace_back("sql", "select * from Supplier");
  root.annotations.emplace_back("rows", "3");
  WireSpan child;
  child.id = "1.1";
  child.parent_id = "1";
  child.name = "phase:execute";
  child.start_ns = 20;
  child.end_ns = 800;
  child.annotations.emplace_back("ms", "0.780");
  return {root, child};
}

TEST(NetWireV2Test, TraceBlockRoundTrips) {
  std::string bytes;
  EncodeTraceBlock(MakeSpans(), &bytes);
  auto back = DecodeTraceBlock(bytes);
  ASSERT_TRUE(back.ok()) << back.status();
  ASSERT_EQ(back->size(), 2u);
  EXPECT_EQ((*back)[0].id, "1");
  EXPECT_EQ((*back)[0].parent_id, "");
  EXPECT_EQ((*back)[0].name, "server");
  EXPECT_EQ((*back)[0].start_ns, 10u);
  EXPECT_EQ((*back)[0].end_ns, 900u);
  ASSERT_EQ((*back)[0].annotations.size(), 2u);
  EXPECT_EQ((*back)[0].annotations[1].second, "3");
  EXPECT_EQ((*back)[1].parent_id, "1");
  ASSERT_EQ((*back)[1].annotations.size(), 1u);
  EXPECT_EQ((*back)[1].annotations[0].first, "ms");

  // An empty block is legal (a server with tracing off mid-negotiation).
  std::string empty;
  EncodeTraceBlock({}, &empty);
  auto empty_back = DecodeTraceBlock(empty);
  ASSERT_TRUE(empty_back.ok());
  EXPECT_TRUE(empty_back->empty());
}

TEST(NetWireV2Test, EveryTraceBlockTruncationRejected) {
  std::string bytes;
  EncodeTraceBlock(MakeSpans(), &bytes);
  for (size_t cut = 0; cut < bytes.size(); ++cut) {
    EXPECT_EQ(DecodeTraceBlock(bytes.substr(0, cut)).status().code(),
              StatusCode::kInvalidArgument)
        << cut;
  }
  bytes.push_back('\0');
  EXPECT_EQ(DecodeTraceBlock(bytes).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(NetWireV2Test, HostileTraceCountsRejected) {
  // Span count beyond the hard cap.
  std::string over("\xFF\xFF\xFF\x7F", 4);
  EXPECT_EQ(DecodeTraceBlock(over).status().code(),
            StatusCode::kInvalidArgument);
  // Span count within the cap but impossible for the bytes present —
  // rejected before any allocation sized from it.
  std::string forged("\x00\x10\x00\x00", 4);
  EXPECT_EQ(DecodeTraceBlock(forged).status().code(),
            StatusCode::kInvalidArgument);
  // Forged annotation count inside an otherwise valid single span.
  std::vector<WireSpan> spans(1);
  spans[0].id = "1";
  spans[0].name = "server";
  std::string bytes;
  EncodeTraceBlock(spans, &bytes);
  // The final u32 is the annotation count (0); forge it huge.
  bytes[bytes.size() - 1] = '\x7F';
  EXPECT_EQ(DecodeTraceBlock(bytes).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(NetWireV2Test, TracedEndPayloadRoundTrips) {
  std::string payload;
  EncodeTracedEndPayload({123, 45678}, MakeSpans(), &payload);
  auto back = DecodeTracedEndPayload(payload);
  ASSERT_TRUE(back.ok()) << back.status();
  EXPECT_EQ(back->end.rows, 123u);
  EXPECT_EQ(back->end.relation_bytes, 45678u);
  ASSERT_EQ(back->spans.size(), 2u);
  EXPECT_EQ(back->spans[1].name, "phase:execute");

  // Shorter than the 16-byte base is rejected outright.
  EXPECT_EQ(DecodeTracedEndPayload(payload.substr(0, 15)).status().code(),
            StatusCode::kInvalidArgument);
  // A plain end payload is not a traced one: the trace block (at least its
  // span count) must be present when the flag says so.
  std::string plain;
  EncodeEndPayload({1, 2}, &plain);
  EXPECT_EQ(DecodeTracedEndPayload(plain).status().code(),
            StatusCode::kInvalidArgument);
}

engine::Relation MakeRelation() {
  engine::Relation relation;
  relation.schema.Add({"s", "suppkey"});
  relation.schema.Add({"", "name"});
  relation.rows.push_back(Tuple{Value::Int64(1),
                                        Value::String("alpha")});
  relation.rows.push_back(Tuple{Value::Int64(2),
                                        Value::Null()});
  relation.rows.push_back(Tuple{Value::Int64(3),
                                        Value::String("")});
  return relation;
}

TEST(NetWireTest, RelationRoundTrips) {
  engine::Relation relation = MakeRelation();
  std::string bytes;
  SerializeRelation(relation, &bytes);
  auto back = DeserializeRelation(bytes);
  ASSERT_TRUE(back.ok()) << back.status();
  ASSERT_EQ(back->schema.size(), relation.schema.size());
  EXPECT_EQ(back->schema.column(0).qualifier, "s");
  EXPECT_EQ(back->schema.column(0).name, "suppkey");
  EXPECT_EQ(back->schema.column(1).name, "name");
  ASSERT_EQ(back->rows.size(), relation.rows.size());
  for (size_t i = 0; i < relation.rows.size(); ++i) {
    EXPECT_EQ(back->rows[i], relation.rows[i]) << i;
  }
}

TEST(NetWireTest, EmptyRelationRoundTrips) {
  engine::Relation relation;
  std::string bytes;
  SerializeRelation(relation, &bytes);
  auto back = DeserializeRelation(bytes);
  ASSERT_TRUE(back.ok()) << back.status();
  EXPECT_EQ(back->schema.size(), 0u);
  EXPECT_TRUE(back->rows.empty());
}

TEST(NetWireTest, EveryRelationTruncationRejected) {
  std::string bytes;
  SerializeRelation(MakeRelation(), &bytes);
  for (size_t cut = 0; cut < bytes.size(); ++cut) {
    auto result = DeserializeRelation(bytes.substr(0, cut));
    EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument) << cut;
  }
  // And trailing bytes after the last row are rejected too.
  bytes.push_back('\0');
  EXPECT_EQ(DeserializeRelation(bytes).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(NetWireTest, HostileRelationCountsRejected) {
  // Forged column count with nothing behind it.
  std::string cols("\xFF\xFF\xFF\x7F", 4);
  EXPECT_EQ(DeserializeRelation(cols).status().code(),
            StatusCode::kInvalidArgument);
  // Valid empty schema, forged row count.
  std::string rows("\0\0\0\0\xFF\xFF\xFF\xFF\xFF\xFF\xFF\x7F", 12);
  EXPECT_EQ(DeserializeRelation(rows).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(NetWireTest, RowColumnCountMismatchRejected) {
  // A row whose value count disagrees with the schema is a protocol
  // violation even when the bytes decode cleanly as a tuple.
  engine::Relation relation = MakeRelation();
  relation.rows[1] = Tuple{Value::Int64(9)};
  std::string bytes;
  SerializeRelation(relation, &bytes);
  EXPECT_EQ(DeserializeRelation(bytes).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(NetWireTest, ServerRowsSerializeAsTheirRelation) {
  // The engine server writes its result straight from the engine's batch
  // (SerializeRows): the frame bytes must be SerializeRelation's over the
  // same result, for base-table, padded, constant, computed, ordered and
  // UNION ALL cells alike, and for a Relation handed over as Rows.
  Database db;
  ASSERT_TRUE(db.CreateTable(TableSchema("T", {{"k", DataType::kInt64, true},
                                               {"d", DataType::kDouble, true},
                                               {"s", DataType::kString, true}}))
                  .ok());
  Table* table = *db.GetTable("T");
  ASSERT_TRUE(table->Insert(Tuple{Value::Int64(1), Value::Double(-0.0),
                                  Value::String("a")})
                  .ok());
  ASSERT_TRUE(table->Insert(Tuple{Value::Int64(2), Value::Int64(7),
                                  Value::Null()})
                  .ok());
  ASSERT_TRUE(
      table->Insert(Tuple{Value::Null(), Value::Double(2.5), Value::String("")})
          .ok());
  for (const char* sql :
       {"select * from T",
        "select a.k, b.d, 1 as one, a.k + 1 as next, b.s from T a left "
        "outer join T b on a.k = b.k and b.d > 0 order by next desc",
        "select k, s from T union all select k, 'x' as s from T where k = 1"}) {
    engine::QueryExecutor rows_executor(&db);
    auto rows = rows_executor.ExecuteRows(sql, 0, nullptr);
    ASSERT_TRUE(rows.ok()) << rows.status();
    engine::QueryExecutor relation_executor(&db);
    auto relation = relation_executor.ExecuteSql(sql);
    ASSERT_TRUE(relation.ok()) << relation.status();
    std::string expected, served, handed_over;
    SerializeRelation(*relation, &expected);
    SerializeRows(*rows, &served);
    EXPECT_EQ(served, expected) << sql;
    engine::Rows wrapped(*relation);
    SerializeRows(wrapped, &handed_over);
    EXPECT_EQ(handed_over, expected) << sql;
  }
}

}  // namespace
}  // namespace silkroute::net
