#include "tests/support/flaky_proxy.h"

#include <algorithm>
#include <utility>

#include "common/random.h"

namespace silkroute::net {

const char* FaultKindToString(FaultKind kind) {
  switch (kind) {
    case FaultKind::kNone: return "none";
    case FaultKind::kRefuse: return "refuse";
    case FaultKind::kReset: return "reset";
    case FaultKind::kGarbage: return "garbage";
    case FaultKind::kStall: return "stall";
  }
  return "unknown";
}

FlakyProxy::FlakyProxy(FlakyProxyOptions options)
    : options_(std::move(options)) {}

FlakyProxy::~FlakyProxy() { Shutdown(); }

Status FlakyProxy::Start() {
  auto listener = Listener::Bind("127.0.0.1", 0);
  SILK_RETURN_IF_ERROR(listener.status());
  listener_ = std::move(listener).value();
  port_ = listener_.port();
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  return Status::OK();
}

void FlakyProxy::Shutdown() {
  if (stopping_.exchange(true)) return;
  cancel_.Cancel();
  // Cancel unblocks the accept poll; only close the listener once the
  // accept thread is joined (closing an fd another thread polls is a race).
  if (accept_thread_.joinable()) accept_thread_.join();
  listener_.Close();
  std::vector<std::unique_ptr<ConnectionSlot>> conns;
  {
    std::lock_guard<std::mutex> lock(conn_mu_);
    conns.swap(conns_);
  }
  for (auto& slot : conns) {
    if (slot->thread.joinable()) slot->thread.join();
  }
}

FaultPlan FlakyProxy::PlanFor(uint64_t index) const {
  // splitmix64-style hash of (seed, index) keeps plans independent of one
  // another and reproducible regardless of how many draws each plan takes.
  uint64_t z = options_.seed + 0x9E3779B97F4A7C15ull * (index + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  Random rng(z ^ (z >> 31));

  FaultPlan plan;
  if (!rng.Bernoulli(options_.fault_probability)) return plan;
  if (!options_.allowed_kinds.empty()) {
    plan.kind = options_.allowed_kinds[static_cast<size_t>(rng.Uniform(
        0, static_cast<int64_t>(options_.allowed_kinds.size()) - 1))];
  } else {
    switch (rng.Uniform(0, 3)) {
      case 0: plan.kind = FaultKind::kRefuse; break;
      case 1: plan.kind = FaultKind::kReset; break;
      case 2: plan.kind = FaultKind::kGarbage; break;
      default: plan.kind = FaultKind::kStall; break;
    }
  }
  // Bias the trigger offset toward the start of the stream (squared uniform)
  // so frame headers and length prefixes are hit disproportionately often —
  // that is where torn/truncated/oversized-length bugs live.
  double u = rng.NextDouble();
  plan.at_byte = static_cast<uint64_t>(
      u * u * static_cast<double>(options_.fault_window_bytes));
  plan.garbage_len = static_cast<uint32_t>(rng.Uniform(1, 64));
  plan.stall_ms = rng.NextDouble() * options_.max_stall_ms;
  plan.on_response = rng.Bernoulli(0.5);
  return plan;
}

void FlakyProxy::AcceptLoop() {
  IoOptions io;
  io.cancel = &cancel_;
  io.poll_interval_ms = 20;
  while (!stopping_.load()) {
    auto client = listener_.Accept(io);
    if (!client.ok()) {
      if (stopping_.load() || cancel_.cancelled()) break;
      continue;
    }
    FaultPlan plan = PlanFor(connections_.fetch_add(1));
    // Reap finished connection threads before spawning a new one.
    {
      std::vector<std::unique_ptr<ConnectionSlot>> finished;
      std::lock_guard<std::mutex> lock(conn_mu_);
      for (auto it = conns_.begin(); it != conns_.end();) {
        if ((*it)->done.load()) {
          finished.push_back(std::move(*it));
          it = conns_.erase(it);
        } else {
          ++it;
        }
      }
      for (auto& slot : finished) {
        if (slot->thread.joinable()) slot->thread.join();
      }
    }
    auto slot = std::make_unique<ConnectionSlot>();
    ConnectionSlot* raw = slot.get();
    {
      std::lock_guard<std::mutex> lock(conn_mu_);
      conns_.push_back(std::move(slot));
    }
    raw->thread =
        std::thread([this, raw, plan, sock = std::move(*client)]() mutable {
          ServeConnection(std::move(sock), plan);
          raw->done.store(true);
        });
  }
}

void FlakyProxy::ServeConnection(Socket client, FaultPlan plan) {
  if (plan.kind == FaultKind::kRefuse) {
    faults_injected_.fetch_add(1);
    return;  // closing the accepted socket = refused from the client's view
  }
  IoOptions dial_io = IoOptions::WithTimeout(2000);
  dial_io.cancel = &cancel_;
  auto upstream = Dial(options_.upstream_host, options_.upstream_port, dial_io);
  if (!upstream.ok()) return;

  // Two pumps, one per direction; the fault plan applies to exactly one of
  // them. Either pump breaking closes both sockets (a real proxy's RST
  // propagation) via the shared `broken` flag + socket Close.
  std::atomic<bool> broken{false};
  const FaultPlan* request_plan = plan.on_response ? nullptr : &plan;
  const FaultPlan* response_plan = plan.on_response ? &plan : nullptr;
  Socket* client_ptr = &client;
  Socket* upstream_ptr = &*upstream;
  std::thread response_pump([this, upstream_ptr, client_ptr, response_plan,
                             &broken] {
    Pump(upstream_ptr, client_ptr, response_plan, &broken);
  });
  Pump(client_ptr, upstream_ptr, request_plan, &broken);
  broken.store(true);
  // Half-close both sockets so the response pump's poll wakes with EOF
  // (shutdown, not close: the other thread still polls these fds).
  client.ShutdownBoth();
  upstream->ShutdownBoth();
  response_pump.join();
}

void FlakyProxy::Pump(Socket* from, Socket* to, const FaultPlan* plan,
                      std::atomic<bool>* broken) {
  Random garbage_rng(options_.seed ^ 0xDEADBEEFu);
  uint64_t forwarded = 0;
  bool fault_done = plan == nullptr || plan->kind == FaultKind::kNone;
  char buf[4096];
  IoOptions io;
  io.cancel = &cancel_;
  io.poll_interval_ms = 10;
  // Any pump exit tears down the whole connection: half-close both sockets
  // so the sibling pump (possibly blocked in poll) wakes with EOF instead
  // of waiting out the client's deadline.
  struct Teardown {
    Socket* a;
    Socket* b;
    std::atomic<bool>* broken;
    ~Teardown() {
      broken->store(true);
      a->ShutdownBoth();
      b->ShutdownBoth();
    }
  } teardown{from, to, broken};
  while (!stopping_.load() && !broken->load()) {
    // Read whatever is available (1..sizeof buf). ReadFull(1) then peeking
    // more would complicate things; a 1-byte granularity pump would be too
    // slow, so read up to the fault boundary when one is pending.
    size_t want = sizeof(buf);
    if (!fault_done && plan->at_byte > forwarded) {
      want = std::min<uint64_t>(want, plan->at_byte - forwarded);
    }
    size_t got = 0;
    Status status = from->ReadSome(buf, want, &got, io);
    if (!status.ok() || got == 0) break;

    if (!fault_done && forwarded + got >= plan->at_byte) {
      switch (plan->kind) {
        case FaultKind::kReset: {
          // Forward up to the boundary, then tear the connection — the
          // receiver sees a frame cut at an arbitrary byte.
          size_t keep = static_cast<size_t>(plan->at_byte - forwarded);
          if (keep > 0) (void)to->WriteFull(buf, keep, io);
          faults_injected_.fetch_add(1);
          return;  // Teardown resets both directions
        }
        case FaultKind::kGarbage: {
          // Corrupt garbage_len bytes starting at the boundary (within this
          // buffer) — magic, version, type, and length fields all live in
          // the first tens of bytes, so low offsets forge hostile lengths.
          size_t start = static_cast<size_t>(plan->at_byte - forwarded);
          size_t end = std::min(got, start + plan->garbage_len);
          for (size_t i = start; i < end; ++i) {
            buf[i] = static_cast<char>(garbage_rng.Next() & 0xFF);
          }
          faults_injected_.fetch_add(1);
          fault_done = true;
          break;
        }
        case FaultKind::kStall: {
          faults_injected_.fetch_add(1);
          fault_done = true;
          cancel_.SleepFor(plan->stall_ms);
          break;
        }
        case FaultKind::kNone:
        case FaultKind::kRefuse:
          fault_done = true;
          break;
      }
    }
    if (!to->WriteFull(buf, got, io).ok()) break;
    forwarded += got;
  }
}

}  // namespace silkroute::net
