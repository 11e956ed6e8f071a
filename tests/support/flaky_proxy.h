// FlakyProxy: a seeded network fault injector for the chaos tests. It
// listens on an ephemeral port, forwards every connection to an upstream
// EngineServer, and — per its deterministic per-connection fault plan —
// refuses connections, resets them mid-stream (tearing frames at arbitrary
// byte offsets), corrupts forwarded bytes (hitting magic/length fields so
// the client sees truncated or oversized payloads), or stalls the pipe.
//
// Determinism: a proxy built from seed S injects the same fault sequence
// every run. Connection n's plan is drawn from an RNG seeded with
// hash(S, n), so the plan depends only on connection arrival order — which
// the chaos test keeps deterministic at concurrency 1 and bounded at 8.
//
// The proxy is intentionally layered *under* the wire protocol: it tears
// TCP bytes, not frames, which is exactly what a real flaky network does.
#ifndef SILKROUTE_TESTS_SUPPORT_FLAKY_PROXY_H_
#define SILKROUTE_TESTS_SUPPORT_FLAKY_PROXY_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/cancel.h"
#include "common/result.h"
#include "net/socket.h"

namespace silkroute::net {

/// One connection's scripted failure.
enum class FaultKind : uint8_t {
  kNone = 0,      // transparent forwarding
  kRefuse,        // accept, then close immediately (connection refused-ish)
  kReset,         // forward `at_byte` bytes client->server, then close both
  kGarbage,       // corrupt forwarded bytes starting at `at_byte`
  kStall,         // pause forwarding `stall_ms` at `at_byte`, then continue
};

const char* FaultKindToString(FaultKind kind);

struct FaultPlan {
  FaultKind kind = FaultKind::kNone;
  /// Byte offset (in the client->server or server->client stream) where the
  /// fault triggers.
  uint64_t at_byte = 0;
  /// kGarbage: how many bytes to corrupt.
  uint32_t garbage_len = 0;
  /// kStall: how long to pause.
  double stall_ms = 0;
  /// Which direction carries the fault: false = client->server,
  /// true = server->client (faults on the response path).
  bool on_response = false;
};

struct FlakyProxyOptions {
  std::string upstream_host = "127.0.0.1";
  uint16_t upstream_port = 0;
  uint64_t seed = 1;
  /// Probability that a connection gets any fault at all.
  double fault_probability = 0.7;
  /// Upper bound for kStall pauses (kept small so chaos runs stay fast).
  double max_stall_ms = 100;
  /// Faults trigger within the first `fault_window_bytes` of a stream —
  /// biased low so length prefixes and headers get hit often.
  uint64_t fault_window_bytes = 4096;
  /// When non-empty, faulted connections draw their kind only from this
  /// list (uniformly). Lets a chaos test cast a proxy in a role — a
  /// stall-only "slow replica", a reset-biased "flapping replica" —
  /// while keeping every draw on the same seeded stream.
  std::vector<FaultKind> allowed_kinds;
};

class FlakyProxy {
 public:
  explicit FlakyProxy(FlakyProxyOptions options);
  ~FlakyProxy();

  FlakyProxy(const FlakyProxy&) = delete;
  FlakyProxy& operator=(const FlakyProxy&) = delete;

  /// Binds an ephemeral listener and starts proxying.
  Status Start();
  uint16_t port() const { return port_; }
  void Shutdown();

  /// The deterministic plan for connection `index` (0-based arrival order).
  /// Exposed so tests can assert which fault a given connection drew.
  FaultPlan PlanFor(uint64_t index) const;

  uint64_t connections() const { return connections_.load(); }
  uint64_t faults_injected() const { return faults_injected_.load(); }

 private:
  struct Pipe;

  void AcceptLoop();
  void ServeConnection(Socket client, FaultPlan plan);
  /// Pumps bytes one way, applying `plan` when it targets this direction.
  /// Returns when either side dies or the proxy shuts down.
  void Pump(Socket* from, Socket* to, const FaultPlan* plan,
            std::atomic<bool>* broken);

  FlakyProxyOptions options_;
  Listener listener_;
  uint16_t port_ = 0;
  CancelToken cancel_;
  std::atomic<bool> stopping_{false};
  std::thread accept_thread_;

  std::mutex conn_mu_;
  struct ConnectionSlot {
    std::thread thread;
    std::atomic<bool> done{false};
  };
  std::vector<std::unique_ptr<ConnectionSlot>> conns_;

  std::atomic<uint64_t> connections_{0};
  std::atomic<uint64_t> faults_injected_{0};
};

}  // namespace silkroute::net

#endif  // SILKROUTE_TESTS_SUPPORT_FLAKY_PROXY_H_
