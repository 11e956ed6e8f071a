// Wire protocol for the networked federation layer (DESIGN.md §12): a
// versioned, length-prefixed binary framing that carries component queries
// from a RemoteSqlExecutor to an EngineServer and result relations back.
//
// Frame layout (all integers little-endian, fixed width):
//
//   offset  size  field
//        0     4  magic        0x53524B31 ("SRK1")
//        4     1  version      kWireVersion (2) or kWireVersionLegacy (1)
//        5     1  type         FrameType
//        6     2  flags        v1: reserved, must be 0
//                              v2: kFlagTrace marks traced payload variants;
//                                  all other bits must be 0
//        8     8  request_id   echoed verbatim in every response frame
//       16     8  budget_us    remaining deadline budget at send time, in
//                              microseconds (0 = no deadline). The client
//                              re-computes the budget immediately before
//                              sending; the server derives its own absolute
//                              deadline on receipt and aborts work past it.
//       24     4  payload_len  bytes of payload following the header
//       28     8  payload_hash FNV-1a 64 over the first 28 header bytes and
//                              the payload. Random corruption of either the
//                              header tail or the payload can otherwise
//                              decode as plausible-but-wrong data (a flipped
//                              byte inside a string value survives every
//                              count cross-check); the hash turns all of it
//                              into a clean decode failure.
//
// Frame types:
//   kRequest  client -> server   payload: u32 sql_len + sql bytes; with
//                                kFlagTrace, followed by len-prefixed trace id
//                                and parent span id (distributed trace context)
//   kChunk    server -> client   payload: a slice of the serialized relation
//   kEnd      server -> client   payload: u64 row count + u64 total relation
//                                bytes — a cross-check that every chunk
//                                arrived intact; with kFlagTrace, followed by
//                                the server-side span subtree (trace block)
//   kError    server -> client   payload: u32 status code + u32 msg_len + msg
//   kStats    both directions    request: empty payload; response: Prometheus
//                                text-exposition snapshot of the server's
//                                metrics registry (live scrape over the wire)
//   kVersions both directions    request: u32 count + len-prefixed table
//                                names; response: u32 count + per table
//                                len-prefixed name + u64 version counter.
//                                Fetched once per publish to key the result
//                                cache (DESIGN.md §15); a legacy peer
//                                rejects the v2 frame and the client just
//                                publishes uncached.
//
// Version negotiation: v2 frames are only emitted when they carry v2-only
// content (trace context / kStats); plain query traffic stays v1, so a
// current client and a legacy server interoperate untraced. A legacy peer
// that receives a v2 frame rejects it at header decode — before executing
// anything — and the client downgrades that connection to v1 (DESIGN.md §14).
//
// Decoding is strict and bounds-checked everywhere: a bad magic, unknown
// version or type, non-zero flags, an oversized length prefix, or any
// truncation yields kInvalidArgument — never UB, never a partial value.
// Transport layers map decode failures to kUnavailable (a corrupt stream is
// indistinguishable from a broken peer), but the codec itself reports
// exactly what was wrong.
#ifndef SILKROUTE_NET_WIRE_H_
#define SILKROUTE_NET_WIRE_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/result.h"
#include "engine/executor.h"

namespace silkroute::net {

inline constexpr uint32_t kWireMagic = 0x53524B31;  // "SRK1"
/// Current protocol version. Emitted only on frames that carry v2-only
/// content (trace context, kStats); everything else stays on
/// kWireVersionLegacy so old peers keep decoding plain traffic.
inline constexpr uint8_t kWireVersion = 2;
inline constexpr uint8_t kWireVersionLegacy = 1;
inline constexpr size_t kFrameHeaderSize = 36;
/// Hard cap on any single frame payload; a length prefix above this is
/// hostile (or garbage) and is rejected before any allocation.
inline constexpr uint32_t kMaxFramePayload = 64u << 20;

/// v2 flag: the payload carries the traced variant (trace context on
/// kRequest, a span-subtree trace block on kEnd). Illegal on v1 frames.
inline constexpr uint16_t kFlagTrace = 0x1;

enum class FrameType : uint8_t {
  kRequest = 1,
  kChunk = 2,
  kEnd = 3,
  kError = 4,
  kStats = 5,     // v2 only: live metrics scrape over the wire
  kVersions = 6,  // v2 only: table-version vector fetch (result cache keys)
};

const char* FrameTypeToString(FrameType type);

struct FrameHeader {
  // Plain traffic defaults to the legacy version; senders bump to
  // kWireVersion explicitly on frames that carry v2-only content.
  uint8_t version = kWireVersionLegacy;
  FrameType type = FrameType::kRequest;
  uint16_t flags = 0;
  uint64_t request_id = 0;
  uint64_t budget_us = 0;
  uint32_t payload_len = 0;
  uint64_t payload_hash = 0;
};

/// FNV-1a 64 over the first 28 encoded header bytes (everything before the
/// hash field) followed by the payload. Frame I/O stamps this into
/// `payload_hash` on write and verifies it on read.
uint64_t FrameHash(const FrameHeader& header, std::string_view payload);

/// Appends the 36-byte encoded header to `out`.
void EncodeFrameHeader(const FrameHeader& header, std::string* out);

/// Decodes a header from exactly the first kFrameHeaderSize bytes of
/// `bytes`. `max_payload` caps payload_len (pass kMaxFramePayload or a
/// tighter bound). Strict: every defect is a distinct kInvalidArgument.
Result<FrameHeader> DecodeFrameHeader(std::string_view bytes,
                                      uint32_t max_payload = kMaxFramePayload);

// --- Request payload -------------------------------------------------------

void EncodeRequestPayload(std::string_view sql, std::string* out);
Result<std::string> DecodeRequestPayload(std::string_view payload);

/// Distributed trace context carried on a traced kRequest (after the sql
/// block): the client's trace id and the span the server subtree should be
/// stitched under. Both are opaque strings to the wire.
struct WireTraceContext {
  std::string trace_id;
  std::string parent_span_id;
};

void EncodeTracedRequestPayload(std::string_view sql,
                                const WireTraceContext& trace,
                                std::string* out);

struct TracedRequest {
  std::string sql;
  WireTraceContext trace;
};

Result<TracedRequest> DecodeTracedRequestPayload(std::string_view payload);

// --- Error payload ---------------------------------------------------------

/// Encodes a non-OK status (code + message).
void EncodeErrorPayload(const Status& status, std::string* out);
/// Decodes the carried status into `*carried`. The return value is about
/// the payload itself: a code outside the StatusCode enum or a truncated
/// message is kInvalidArgument (and `*carried` is untouched).
Status DecodeErrorPayload(std::string_view payload, Status* carried);

// --- End payload -----------------------------------------------------------

struct EndPayload {
  uint64_t rows = 0;
  uint64_t relation_bytes = 0;  // total serialized relation size
};

void EncodeEndPayload(const EndPayload& end, std::string* out);
Result<EndPayload> DecodeEndPayload(std::string_view payload);

// --- Versions payload ------------------------------------------------------
// Table-version fetch for the result cache (kVersions, v2 only). The
// request names the tables a plan touches; the response carries each
// table's monotonic version counter (relational/table.h).

/// Hard cap on tables per versions frame; a count above this is hostile.
inline constexpr uint32_t kMaxVersionTables = 4096;

void EncodeVersionsRequestPayload(const std::vector<std::string>& tables,
                                  std::string* out);
Result<std::vector<std::string>> DecodeVersionsRequestPayload(
    std::string_view payload);

void EncodeVersionsResponsePayload(
    const std::vector<std::pair<std::string, uint64_t>>& versions,
    std::string* out);
Result<std::vector<std::pair<std::string, uint64_t>>>
DecodeVersionsResponsePayload(std::string_view payload);

// --- Trace block -----------------------------------------------------------
// A finished server-side span subtree shipped back on a traced kEnd frame:
// u32 span count, then per span len-prefixed id / parent id / name, u64
// start_ns / end_ns (server-local monotonic), u32 annotation count, and
// len-prefixed key/value pairs. Ids are the server Tracer's hierarchical ids;
// the client rewrites them into its own id space when stitching.

struct WireSpan {
  std::string id;
  std::string parent_id;  // empty on the subtree root
  std::string name;
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
  std::vector<std::pair<std::string, std::string>> annotations;
};

/// Hard cap on spans per trace block; a count above this is hostile.
inline constexpr uint32_t kMaxTraceSpans = 4096;

void EncodeTraceBlock(const std::vector<WireSpan>& spans, std::string* out);
/// Strict whole-buffer decode with hostile-count guards.
Result<std::vector<WireSpan>> DecodeTraceBlock(std::string_view bytes);

/// Traced kEnd payload: the 16-byte base followed by a trace block.
void EncodeTracedEndPayload(const EndPayload& end,
                            const std::vector<WireSpan>& spans,
                            std::string* out);

struct TracedEnd {
  EndPayload end;
  std::vector<WireSpan> spans;
};

Result<TracedEnd> DecodeTracedEndPayload(std::string_view payload);

// --- Relation codec --------------------------------------------------------
// Schema (column qualifiers/names) followed by row count and the rows in
// TupleStream's serialization format. The engine server writes its result
// straight from the engine's batch (SerializeRows), the same bytes as
// SerializeRelation over that result. The rows are still bound twice on
// the remote client path: DeserializeRelation materializes them as Tuples,
// and the publisher's bind step (ComponentStep::ExecuteAndBind) serializes
// those Tuples again into its TupleStream. DESIGN.md §10 records this
// double bind; the local path binds once.

void SerializeRelation(const engine::Relation& relation, std::string* out);

/// SerializeRelation's layout, written from the engine's batch
/// (engine::Rows::AppendWire) with no Tuple built.
void SerializeRows(engine::Rows& rows, std::string* out);

/// Strict whole-buffer decode: trailing bytes after the last row, any
/// truncation, or hostile counts are kInvalidArgument.
Result<engine::Relation> DeserializeRelation(std::string_view bytes);

}  // namespace silkroute::net

#endif  // SILKROUTE_NET_WIRE_H_
