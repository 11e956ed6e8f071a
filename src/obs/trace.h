// Hierarchical span tracer for the publishing stack. One trace covers one
// publish request end to end:
//
//   request            (service: Submit -> response fulfilled)
//     plan             (publisher: plan chosen, SQL generated, tagged)
//       component      (one component query: submit -> stream produced)
//         phase:query  (SQL execution through the resilient layer)
//           attempt    (one ExecuteSql attempt at the source)
//           backoff    (the sleep charged before a retry)
//         phase:bind   (wire serialization into a TupleStream)
//       component      (degradation splits nest under the failed component)
//         ...
//       phase:tag      (merge + tag, once per plan)
//
// Span ids are hierarchical ("1", "1.2", "1.2.3"): a root takes the next
// root ordinal, a child takes its parent's id plus the parent's next child
// ordinal. Ids therefore depend only on the *structure* of the run (the
// order spans are started under each parent), never on which worker thread
// finishes first — concurrent runs of the same plan produce the same id
// tree even though the sink receives spans in completion order.
//
// Timestamps are monotonic nanoseconds since the tracer's construction
// (steady_clock; never wall time), so end >= start and a child never
// starts before its parent.
//
// Disabled mode: every entry point tolerates a null Tracer (and a null or
// inert parent handle) and degrades to an inert SpanHandle — no
// allocation, no clock read, no sink call. PublishOptions/ServiceOptions
// default to a null tracer, so the instrumented hot paths cost a pointer
// test when tracing is off (the <=5% overhead budget of DESIGN.md §9).
//
// Deep layers that cannot be handed a span explicitly (the SQL executors,
// fault injection, circuit breakers) annotate through a thread-local
// *current span* installed by the layer above (ScopedCurrentSpan); a span
// is only ever annotated by the thread that is executing it.
#ifndef SILKROUTE_OBS_TRACE_H_
#define SILKROUTE_OBS_TRACE_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace silkroute::obs {

struct Annotation {
  std::string key;
  std::string value;
};

/// One finished span, as delivered to the sink.
struct Span {
  std::string id;         // hierarchical, e.g. "1.2.3"
  std::string parent_id;  // "" for roots
  std::string name;       // "request", "plan", "component", "phase:query", ...
  uint64_t start_ns = 0;  // monotonic, since tracer construction
  uint64_t end_ns = 0;
  std::vector<Annotation> annotations;

  double duration_ms() const {
    return static_cast<double>(end_ns - start_ns) / 1e6;
  }
};

/// Receives finished spans, one call per span, from the thread that ended
/// it. Implementations must be thread-safe.
class TraceSink {
 public:
  virtual ~TraceSink() = default;
  virtual void OnSpan(Span span) = 0;
};

/// Buffers finished spans in memory for export (JSONL) and tests.
class CollectingSink : public TraceSink {
 public:
  void OnSpan(Span span) override {
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back(std::move(span));
  }

  /// A copy of everything collected so far; readers never block span ends
  /// for longer than the vector copy.
  std::vector<Span> spans() const {
    std::lock_guard<std::mutex> lock(mu_);
    return spans_;
  }

  size_t size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return spans_.size();
  }

  void Clear() {
    std::lock_guard<std::mutex> lock(mu_);
    spans_.clear();
  }

 private:
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

class Tracer;

/// Move-only handle for an open span. Inert (all methods no-ops) when
/// produced by a null/disabled tracer. Ends on destruction if still open.
/// A handle is owned by one logical flow: Annotate/End are not thread-safe
/// against each other, but starting children is (the child ordinal is
/// atomic), which is what degradation follow-ups need.
class SpanHandle {
 public:
  SpanHandle() = default;
  SpanHandle(SpanHandle&& other) noexcept
      : tracer_(other.tracer_), state_(std::move(other.state_)) {
    other.tracer_ = nullptr;
  }
  SpanHandle& operator=(SpanHandle&& other) noexcept {
    if (this != &other) {
      End();
      tracer_ = other.tracer_;
      state_ = std::move(other.state_);
      other.tracer_ = nullptr;
    }
    return *this;
  }
  SpanHandle(const SpanHandle&) = delete;
  SpanHandle& operator=(const SpanHandle&) = delete;
  ~SpanHandle() { End(); }

  /// True when this handle records to a sink (tracing enabled and open).
  bool recording() const { return state_ != nullptr; }

  /// The tracer that created this handle (null when inert). Lets code
  /// holding only a parent handle start children via Tracer::Child from
  /// other threads (a replica set's per-attempt spans).
  Tracer* tracer() const { return tracer_; }

  /// The span id ("" when inert). Stable from creation.
  const std::string& id() const {
    static const std::string kEmpty;
    return state_ != nullptr ? state_->span.id : kEmpty;
  }

  void Annotate(std::string key, std::string value) {
    if (state_ == nullptr) return;
    state_->span.annotations.push_back(
        Annotation{std::move(key), std::move(value)});
  }
  /// Formats doubles with fixed precision so traces diff cleanly.
  void AnnotateMs(std::string key, double ms);
  void AnnotateCount(std::string key, uint64_t n) {
    if (state_ == nullptr) return;
    Annotate(std::move(key), std::to_string(n));
  }

  /// Emits the finished span to the sink; idempotent.
  void End();

 private:
  friend class Tracer;
  struct State {
    Span span;
    std::atomic<uint32_t> next_child{0};
  };

  Tracer* tracer_ = nullptr;
  std::unique_ptr<State> state_;
};

class Tracer {
 public:
  /// A null sink disables the tracer entirely.
  explicit Tracer(TraceSink* sink)
      : sink_(sink), epoch_(std::chrono::steady_clock::now()) {}

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  bool enabled() const { return sink_ != nullptr; }

  /// Monotonic nanoseconds since construction.
  uint64_t NowNs() const {
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - epoch_)
            .count());
  }

  SpanHandle StartRoot(std::string_view name);
  /// Starts a child of `parent`; a null or inert parent yields a root, so
  /// spans are never silently lost when a layer runs without its caller's
  /// context.
  SpanHandle StartChild(SpanHandle* parent, std::string_view name);

  /// Null-tolerant entry points: inert handle when `tracer` is null or
  /// disabled. These are what instrumented code calls.
  static SpanHandle Root(Tracer* tracer, std::string_view name) {
    if (tracer == nullptr || !tracer->enabled()) return SpanHandle();
    return tracer->StartRoot(name);
  }
  static SpanHandle Child(Tracer* tracer, SpanHandle* parent,
                          std::string_view name) {
    if (tracer == nullptr || !tracer->enabled()) return SpanHandle();
    return tracer->StartChild(parent, name);
  }

  /// Grafts a *finished* span subtree recorded by another tracer (typically
  /// a remote EngineServer) under `parent`. Each subtree root — a span whose
  /// parent id is empty or absent from the batch — takes a fresh child
  /// ordinal from `parent`, every descendant id is rewritten under the new
  /// prefix (preserving the one-ordinal-per-level structure trace_check
  /// requires), and all timestamps shift forward by `offset_ns` — the
  /// caller's clock value for when the remote work began (its send time) —
  /// so a stitched child never starts before its new parent. Spans whose
  /// rewritten parent cannot be resolved (a malformed batch) are dropped
  /// rather than emitted dangling. No-op when disabled or `parent` is inert.
  void StitchSubtree(SpanHandle* parent, std::vector<Span> spans,
                     uint64_t offset_ns);

 private:
  friend class SpanHandle;
  void Emit(Span span) { sink_->OnSpan(std::move(span)); }

  TraceSink* sink_;
  const std::chrono::steady_clock::time_point epoch_;
  std::atomic<uint32_t> next_root_{0};
};

/// The span currently executing on this thread (null when none). Installed
/// by ScopedCurrentSpan; read by deep layers to attach annotations and to
/// parent attempt spans.
SpanHandle* CurrentSpan();

/// Appends an annotation to the current span, if any. The disabled-mode
/// cost is one thread-local load and a null test.
void AnnotateCurrent(std::string key, std::string value);

/// RAII installer for the thread-local current span. Inert handles install
/// nothing, so disabled mode never touches the thread-local either.
class ScopedCurrentSpan {
 public:
  explicit ScopedCurrentSpan(SpanHandle* span);
  ~ScopedCurrentSpan();
  ScopedCurrentSpan(const ScopedCurrentSpan&) = delete;
  ScopedCurrentSpan& operator=(const ScopedCurrentSpan&) = delete;

 private:
  SpanHandle* prev_ = nullptr;
  bool active_ = false;
};

}  // namespace silkroute::obs

#endif  // SILKROUTE_OBS_TRACE_H_
