#include "net/server.h"

#include <chrono>
#include <condition_variable>
#include <csignal>
#include <mutex>
#include <sstream>
#include <utility>

#include "net/frame_io.h"
#include "obs/export.h"
#include "obs/trace.h"

namespace silkroute::net {

namespace {

/// Writing to a peer that already reset would raise SIGPIPE and kill the
/// process — exactly the failure mode a fault-tolerant server must absorb.
/// MSG_NOSIGNAL covers send(); this covers any straggler write path.
void IgnoreSigpipeOnce() {
  static const bool done = [] {
    std::signal(SIGPIPE, SIG_IGN);
    return true;
  }();
  (void)done;
}

}  // namespace

EngineServer::EngineServer(const Database* db, EngineServerOptions options)
    : db_(db),
      options_(std::move(options)),
      executor_(db),
      pool_(options_.workers, options_.metrics) {
  executor_.set_metrics_registry(options_.metrics);
  if (options_.metrics != nullptr) {
    m_requests_ = options_.metrics->counter("silkroute_server_requests_total");
    m_errors_ = options_.metrics->counter("silkroute_server_errors_total");
    m_frames_in_ =
        options_.metrics->counter("silkroute_server_frames_in_total");
    m_frames_out_ =
        options_.metrics->counter("silkroute_server_frames_out_total");
    m_connections_ = options_.metrics->gauge("silkroute_server_connections");
  }
}

EngineServer::~EngineServer() { Shutdown(); }

Status EngineServer::Start() {
  IgnoreSigpipeOnce();
  auto listener = Listener::Bind(options_.host, options_.port);
  SILK_RETURN_IF_ERROR(listener.status());
  listener_ = std::move(listener).value();
  port_ = listener_.port();
  started_.store(true);
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  return Status::OK();
}

void EngineServer::AcceptLoop() {
  IoOptions io;
  io.cancel = &cancel_;
  io.poll_interval_ms = 50;
  while (!stopping_.load()) {
    auto accepted = listener_.Accept(io);
    if (!accepted.ok()) {
      if (stopping_.load() || cancel_.cancelled()) break;
      // Transient accept failure: keep serving.
      continue;
    }
    connections_accepted_.fetch_add(1);
    if (m_connections_ != nullptr) m_connections_->Add(1);
    ReapConnections(/*all=*/false);
    auto slot = std::make_unique<ConnectionSlot>();
    ConnectionSlot* raw = slot.get();
    {
      std::lock_guard<std::mutex> lock(conn_mu_);
      connections_.push_back(std::move(slot));
    }
    raw->thread =
        std::thread([this, raw, sock = std::move(*accepted)]() mutable {
          ServeConnection(std::move(sock));
          if (m_connections_ != nullptr) m_connections_->Add(-1);
          raw->done.store(true);
        });
  }
}

void EngineServer::ReapConnections(bool all) {
  std::vector<std::unique_ptr<ConnectionSlot>> finished;
  {
    std::lock_guard<std::mutex> lock(conn_mu_);
    for (auto it = connections_.begin(); it != connections_.end();) {
      if (all || (*it)->done.load()) {
        finished.push_back(std::move(*it));
        it = connections_.erase(it);
      } else {
        ++it;
      }
    }
  }
  for (auto& slot : finished) {
    if (slot->thread.joinable()) slot->thread.join();
  }
}

void EngineServer::ServeConnection(Socket socket) {
  IoOptions io;
  io.cancel = &cancel_;
  while (!stopping_.load()) {
    auto frame = ReadFrame(&socket, io, options_.max_payload);
    if (!frame.ok()) {
      // EOF between requests is the normal end of a pooled connection;
      // garbage (kInvalidArgument) means the stream offset is lost — either
      // way the connection is done.
      return;
    }
    if (options_.emulate_legacy &&
        frame->header.version != kWireVersionLegacy) {
      // A pre-v2 server rejects the unknown version at header decode and
      // closes without an error frame; reproduce that byte-for-byte so the
      // client-side downgrade path is tested against the real symptom.
      return;
    }
    if (m_frames_in_ != nullptr) m_frames_in_->Add(1);
    if (!ServeRequest(&socket, *frame)) return;
  }
}

bool EngineServer::ServeRequest(Socket* socket, const Frame& request) {
  IoOptions io;
  io.cancel = &cancel_;

  auto send_error = [&](const Status& status) {
    requests_failed_.fetch_add(1);
    if (m_errors_ != nullptr) m_errors_->Add(1);
    std::string payload;
    EncodeErrorPayload(status, &payload);
    FrameHeader header;
    header.type = FrameType::kError;
    header.request_id = request.header.request_id;
    if (m_frames_out_ != nullptr) m_frames_out_->Add(1);
    return WriteFrame(socket, header, payload, io).ok();
  };

  if (request.header.type == FrameType::kStats) {
    // Live scrape over the wire: reply with a point-in-time Prometheus
    // snapshot of the server's registry (empty body when metrics are off).
    std::ostringstream text;
    if (options_.metrics != nullptr) {
      obs::WritePrometheusText(text, options_.metrics->Snapshot());
    }
    FrameHeader stats;
    stats.version = kWireVersion;
    stats.type = FrameType::kStats;
    stats.request_id = request.header.request_id;
    if (m_frames_out_ != nullptr) m_frames_out_->Add(1);
    return WriteFrame(socket, stats, text.str(), io).ok();
  }

  if (request.header.type == FrameType::kVersions) {
    // Table-version fetch for the client's result cache: answer from the
    // local tables' atomic counters. An unknown table is an error frame —
    // the client then publishes that plan uncached rather than keying on a
    // fabricated version.
    auto tables = DecodeVersionsRequestPayload(request.payload);
    if (!tables.ok()) {
      send_error(tables.status());
      return false;
    }
    auto versions = executor_.FetchTableVersions(*tables);
    if (!versions.ok()) {
      send_error(versions.status());
      return true;  // well-formed request, answerable connection
    }
    std::string payload;
    EncodeVersionsResponsePayload(*versions, &payload);
    FrameHeader reply;
    reply.version = kWireVersion;
    reply.type = FrameType::kVersions;
    reply.request_id = request.header.request_id;
    if (m_frames_out_ != nullptr) m_frames_out_->Add(1);
    return WriteFrame(socket, reply, payload, io).ok();
  }

  if (request.header.type != FrameType::kRequest) {
    // A client speaking the protocol wrong gets one error, then the
    // connection closes (the stream can no longer be trusted).
    send_error(Status::InvalidArgument(
        std::string("unexpected ") + FrameTypeToString(request.header.type) +
        " frame from client"));
    return false;
  }
  const bool traced = request.header.version >= 2 &&
                      (request.header.flags & kFlagTrace) != 0;
  std::string sql_text;
  WireTraceContext trace_context;
  if (traced) {
    auto decoded = DecodeTracedRequestPayload(request.payload);
    if (!decoded.ok()) {
      send_error(decoded.status());
      return false;
    }
    sql_text = std::move(decoded->sql);
    trace_context = std::move(decoded->trace);
  } else {
    auto sql = DecodeRequestPayload(request.payload);
    if (!sql.ok()) {
      send_error(sql.status());
      return false;
    }
    sql_text = std::move(*sql);
  }

  // Deadline propagation: re-anchor the client's remaining budget on this
  // host's clock. Work that cannot finish in time is aborted here — first
  // by the pre-execution check, then by the executor's own kTimeout.
  double budget_ms =
      static_cast<double>(request.header.budget_us) / 1000.0;
  bool has_deadline = request.header.budget_us > 0;
  auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::duration_cast<std::chrono::steady_clock::duration>(
          std::chrono::duration<double, std::milli>(budget_ms));
  if (has_deadline && budget_ms <= 0) {
    deadline_rejects_.fetch_add(1);
    return send_error(Status::Timeout("deadline expired before execution"));
  }

  // Per-request tracer: queue-wait / execute / serialize phase spans hang
  // under one "server" root whose finished subtree ships back in the kEnd
  // frame for the client to stitch under its attempt span. The sink and
  // tracer live on this stack; the pool task finishes every span it owns
  // before fulfilling the slot, and this thread waits on the slot before
  // leaving the frame, so no span outlives its tracer.
  obs::CollectingSink trace_sink;
  obs::Tracer tracer(traced ? &trace_sink : nullptr);
  obs::SpanHandle server_span = obs::Tracer::Root(&tracer, "server");
  server_span.Annotate("sql", sql_text);
  if (!trace_context.trace_id.empty()) {
    server_span.Annotate("trace_id", trace_context.trace_id);
  }

  // Execute on the shared pool; this thread only waits and streams.
  struct Slot {
    std::mutex mu;
    std::condition_variable cv;
    bool done = false;
    Result<engine::Rows> result = Status::Internal("request not run");
  };
  auto slot = std::make_shared<Slot>();
  auto queue_span = std::make_shared<obs::SpanHandle>(
      obs::Tracer::Child(&tracer, &server_span, "phase:queue_wait"));
  auto queue_start = std::chrono::steady_clock::now();
  bool submitted = pool_.Submit([this, slot, sql = std::move(sql_text),
                                 has_deadline, deadline, budget_ms, queue_span,
                                 queue_start, tracer_ptr = &tracer,
                                 server_ptr = &server_span] {
    queue_span->AnnotateMs(
        "ms", std::chrono::duration<double, std::milli>(
                  std::chrono::steady_clock::now() - queue_start)
                  .count());
    queue_span->End();
    obs::SpanHandle execute_span =
        obs::Tracer::Child(tracer_ptr, server_ptr, "phase:execute");
    auto execute_start = std::chrono::steady_clock::now();
    Result<engine::Rows> result = [&]() -> Result<engine::Rows> {
      if (has_deadline && std::chrono::steady_clock::now() >= deadline) {
        return Status::Timeout("deadline expired in server queue");
      }
      double remaining_ms = budget_ms;
      if (has_deadline) {
        remaining_ms = std::chrono::duration<double, std::milli>(
                           deadline - std::chrono::steady_clock::now())
                           .count();
        if (remaining_ms <= 0) {
          return Status::Timeout("deadline expired in server queue");
        }
      }
      return executor_.ExecuteRows(sql, has_deadline ? remaining_ms : 0,
                                   nullptr);
    }();
    execute_span.AnnotateMs(
        "ms", std::chrono::duration<double, std::milli>(
                  std::chrono::steady_clock::now() - execute_start)
                  .count());
    execute_span.Annotate("status",
                          StatusCodeToString(result.status().code()));
    execute_span.End();
    {
      std::lock_guard<std::mutex> lock(slot->mu);
      slot->result = std::move(result);
      slot->done = true;
    }
    slot->cv.notify_all();
  });
  if (!submitted) {
    return send_error(Status::Unavailable("server is shutting down"));
  }
  Result<engine::Rows> result = [&] {
    std::unique_lock<std::mutex> lock(slot->mu);
    slot->cv.wait(lock, [&] { return slot->done; });
    return std::move(slot->result);
  }();

  if (has_deadline && std::chrono::steady_clock::now() >= deadline) {
    deadline_rejects_.fetch_add(1);
    return send_error(Status::Timeout("deadline expired during execution"));
  }
  if (!result.ok()) return send_error(result.status());

  // Stream the relation: kChunk* then kEnd carrying the row/byte counts the
  // client cross-checks. The serialize span covers both the encode and the
  // chunk writes onto the wire, and ends before the kEnd payload is built
  // so the shipped subtree is complete.
  obs::SpanHandle serialize_span =
      obs::Tracer::Child(&tracer, &server_span, "phase:serialize");
  auto serialize_start = std::chrono::steady_clock::now();
  std::string bytes;
  SerializeRows(*result, &bytes);
  EndPayload end;
  end.rows = result->size();
  end.relation_bytes = bytes.size();
  size_t offset = 0;
  do {
    size_t len = std::min(options_.chunk_bytes, bytes.size() - offset);
    FrameHeader chunk;
    chunk.type = FrameType::kChunk;
    chunk.request_id = request.header.request_id;
    if (m_frames_out_ != nullptr) m_frames_out_->Add(1);
    IoOptions write_io = io;
    // A dead or stalled client must not hold this connection thread past
    // the request's own deadline (plus slack for the response transfer).
    if (has_deadline) {
      write_io.has_deadline = true;
      write_io.deadline = deadline + std::chrono::seconds(5);
    }
    if (!WriteFrame(socket, chunk,
                    std::string_view(bytes).substr(offset, len), write_io)
             .ok()) {
      requests_failed_.fetch_add(1);
      return false;
    }
    offset += len;
  } while (offset < bytes.size());
  serialize_span.AnnotateMs(
      "ms", std::chrono::duration<double, std::milli>(
                std::chrono::steady_clock::now() - serialize_start)
                .count());
  serialize_span.Annotate("bytes", std::to_string(bytes.size()));
  serialize_span.End();
  std::string end_payload;
  FrameHeader end_header;
  end_header.type = FrameType::kEnd;
  end_header.request_id = request.header.request_id;
  if (traced) {
    // Finish the server root, then ship the whole recorded subtree back in
    // a v2 kEnd so the client can stitch it under its attempt span.
    server_span.Annotate("rows", std::to_string(result->size()));
    server_span.End();
    std::vector<WireSpan> wire_spans;
    for (const obs::Span& span : trace_sink.spans()) {
      WireSpan ws;
      ws.id = span.id;
      ws.parent_id = span.parent_id;
      ws.name = span.name;
      ws.start_ns = span.start_ns;
      ws.end_ns = span.end_ns;
      for (const obs::Annotation& kv : span.annotations) {
        ws.annotations.emplace_back(kv.key, kv.value);
      }
      wire_spans.push_back(std::move(ws));
    }
    EncodeTracedEndPayload(end, wire_spans, &end_payload);
    end_header.version = kWireVersion;
    end_header.flags = kFlagTrace;
  } else {
    EncodeEndPayload(end, &end_payload);
  }
  if (m_frames_out_ != nullptr) m_frames_out_->Add(1);
  if (!WriteFrame(socket, end_header, end_payload, io).ok()) {
    requests_failed_.fetch_add(1);
    return false;
  }
  requests_served_.fetch_add(1);
  if (m_requests_ != nullptr) m_requests_->Add(1);
  return true;
}

void EngineServer::Shutdown() {
  if (!started_.exchange(false)) {
    // Never started (or already shut down): still make Shutdown idempotent
    // for a Start that failed after partial setup.
    stopping_.store(true);
    cancel_.Cancel();
    if (accept_thread_.joinable()) accept_thread_.join();
    ReapConnections(/*all=*/true);
    pool_.Shutdown();
    return;
  }
  stopping_.store(true);
  cancel_.Cancel();
  // The cancel token unblocks Accept's poll within one interval; close the
  // listener only after the accept thread is joined — closing while it
  // still polls the fd is a race (and the fd number could be reused).
  if (accept_thread_.joinable()) accept_thread_.join();
  listener_.Close();
  ReapConnections(/*all=*/true);
  pool_.Shutdown();
}

}  // namespace silkroute::net
