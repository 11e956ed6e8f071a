// EngineServer: the networked backend half of the federation — a blocking
// socket server that executes component queries from the wire against a
// local Database and streams result relations back in chunk frames.
//
//   accept loop (1 thread)
//     └─ connection handler (1 thread per connection, reaped as they die)
//          read request frame ─► submit execution to WorkerPool ─► wait
//          ─► stream kChunk* + kEnd (or kError)
//
// The per-connection thread owns all framing I/O; only the query execution
// itself runs on the shared WorkerPool, so the pool bounds CPU concurrency
// while a slow client draining its response can never hold a pool worker
// hostage. A malformed request frame (bad magic/version/length) closes the
// connection — after garbage, the stream offset is unknowable.
//
// Deadline propagation (DESIGN.md §12): the request header carries the
// client's remaining budget in microseconds; the server re-anchors it on
// its own clock at receipt and (a) refuses to start work past the
// deadline, (b) forwards the remaining milliseconds to the executor, which
// enforces it as kTimeout mid-query. A dead client's deadline therefore
// bounds how long its abandoned query can burn a worker.
//
// Shutdown closes the listener, cancels in-flight socket waits through a
// shared CancelToken, joins every connection thread, and drains the pool.
#ifndef SILKROUTE_NET_SERVER_H_
#define SILKROUTE_NET_SERVER_H_

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/cancel.h"
#include "common/result.h"
#include "engine/executor.h"
#include "net/frame_io.h"
#include "net/socket.h"
#include "net/wire.h"
#include "obs/metrics.h"
#include "relational/database.h"
#include "service/worker_pool.h"

namespace silkroute::net {

struct EngineServerOptions {
  std::string host = "127.0.0.1";
  /// 0 = ephemeral; the bound port is available from port() after Start.
  uint16_t port = 0;
  /// Worker threads executing queries (framing I/O is per-connection).
  size_t workers = 4;
  /// Response relations are streamed in chunks of this size.
  size_t chunk_bytes = 256 * 1024;
  /// Cap on accepted request frames (hostile lengths rejected above it).
  uint32_t max_payload = kMaxFramePayload;
  /// Per-series counters under silkroute_server_* (borrowed, may be null).
  obs::MetricsRegistry* metrics = nullptr;
  /// Behave like a wire-v1 peer: any v2 frame (traced request, kStats)
  /// closes the connection at header decode, exactly as a pre-v2 server
  /// would. For the version-negotiation interop tests (DESIGN.md §14).
  bool emulate_legacy = false;
};

class EngineServer {
 public:
  EngineServer(const Database* db, EngineServerOptions options);
  ~EngineServer();

  EngineServer(const EngineServer&) = delete;
  EngineServer& operator=(const EngineServer&) = delete;

  /// Binds, listens, and starts the accept loop.
  Status Start();
  /// The bound port (valid after a successful Start).
  uint16_t port() const { return port_; }

  /// Stops accepting, cancels in-flight I/O, joins everything. Idempotent.
  void Shutdown();

  uint64_t requests_served() const { return requests_served_.load(); }
  uint64_t requests_failed() const { return requests_failed_.load(); }
  uint64_t deadline_rejects() const { return deadline_rejects_.load(); }
  uint64_t connections_accepted() const { return connections_accepted_.load(); }

 private:
  struct ConnectionSlot {
    std::thread thread;
    std::atomic<bool> done{false};
  };

  void AcceptLoop();
  void ServeConnection(Socket socket);
  /// Handles one request frame; returns false when the connection must
  /// close (transport error or malformed frame).
  bool ServeRequest(Socket* socket, const Frame& request);
  /// Joins finished connection threads; with `all`, joins every thread.
  void ReapConnections(bool all);

  const Database* db_;
  const EngineServerOptions options_;
  engine::DatabaseExecutor executor_;
  service::WorkerPool pool_;
  Listener listener_;
  uint16_t port_ = 0;
  CancelToken cancel_;
  std::atomic<bool> started_{false};
  std::atomic<bool> stopping_{false};
  std::thread accept_thread_;

  std::mutex conn_mu_;
  std::vector<std::unique_ptr<ConnectionSlot>> connections_;

  std::atomic<uint64_t> requests_served_{0};
  std::atomic<uint64_t> requests_failed_{0};
  std::atomic<uint64_t> deadline_rejects_{0};
  std::atomic<uint64_t> connections_accepted_{0};

  // Registry mirrors (null when metrics are disabled).
  obs::Counter* m_requests_ = nullptr;
  obs::Counter* m_errors_ = nullptr;
  obs::Counter* m_frames_in_ = nullptr;
  obs::Counter* m_frames_out_ = nullptr;
  obs::Gauge* m_connections_ = nullptr;
};

}  // namespace silkroute::net

#endif  // SILKROUTE_NET_SERVER_H_
