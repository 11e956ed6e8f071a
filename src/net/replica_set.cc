#include "net/replica_set.h"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <thread>
#include <utility>

#include "obs/trace.h"

namespace silkroute::net {

namespace {

using Decision = service::CircuitBreaker::Decision;

double MsUntil(std::chrono::steady_clock::time_point when,
               std::chrono::steady_clock::time_point now) {
  return std::chrono::duration<double, std::milli>(when - now).count();
}

}  // namespace

/// One replica: its executor (owned or borrowed), ejection breaker, and
/// live load/health accounting.
struct ReplicaSet::Replica {
  std::string name;
  engine::SqlExecutor* executor = nullptr;
  std::unique_ptr<RemoteSqlExecutor> owned;
  std::unique_ptr<service::CircuitBreaker> breaker;

  std::atomic<int> in_flight{0};
  mutable std::mutex mu;  // guards ewma_ms / has_ewma
  double ewma_ms = 0;
  bool has_ewma = false;
  std::atomic<uint64_t> successes{0};
  std::atomic<uint64_t> failures{0};
  std::atomic<uint64_t> ejections{0};

  // Registry mirrors (null when metrics are disabled).
  obs::Gauge* m_in_flight = nullptr;
  obs::Gauge* m_ewma = nullptr;
  obs::Counter* m_ejections = nullptr;
  obs::Counter* m_hedges_fired = nullptr;
  obs::Counter* m_hedges_won = nullptr;
  obs::Counter* m_hedges_cancelled = nullptr;
};

/// One launched replica call inside a hedged race. The coordinator joins
/// the thread before the race returns, so everything here is stack-safe.
struct ReplicaSet::Attempt {
  Replica* replica = nullptr;
  size_t index = 0;
  Decision decision = Decision::kFastFail;
  bool is_hedge = false;
  bool launched = false;
  CancelToken cancel;
  std::atomic<bool> cancelled_by_us{false};
  std::thread thread;
  /// Child of the coordinator's current span; installed as the attempt
  /// thread's current span so the remote executor sends its id as trace
  /// context and stitches the server's subtree under it — hedge losers
  /// included. Ended by the coordinator after SettleAttempt.
  obs::SpanHandle span;

  // Completion state, guarded by the race mutex.
  std::mutex* race_mu = nullptr;
  std::condition_variable* race_cv = nullptr;
  bool done = false;
  Result<engine::Relation> result = Status::Unavailable("attempt not run");
  double elapsed_ms = 0;
};

ReplicaSet::ReplicaSet(ReplicaSetOptions options)
    : options_(std::move(options)),
      rng_(options_.seed),
      hedge_budget_(options_.hedge_budget_ratio, options_.hedge_budget_cap),
      retry_budget_(options_.retry_budget_ratio, options_.retry_budget_cap) {
  service::CircuitBreakerOptions breaker = options_.breaker;
  breaker.label_key = "replica";
  breaker.metrics = nullptr;  // the set exports its own two-label series
  if (breaker.open_jitter_ms <= 0) {
    // Desynchronized half-open probes by default: replicas ejected by one
    // incident must not probe the recovering server in lockstep.
    breaker.open_jitter_ms = breaker.open_ms / 2;
  }

  auto add_replica = [&](std::string name, engine::SqlExecutor* executor,
                         std::unique_ptr<RemoteSqlExecutor> owned) {
    auto replica = std::make_unique<Replica>();
    replica->name = std::move(name);
    replica->owned = std::move(owned);
    replica->executor =
        replica->owned != nullptr ? replica->owned.get() : executor;
    replica->breaker = std::make_unique<service::CircuitBreaker>(
        replica->name, breaker);
    if (options_.metrics != nullptr) {
      auto name_for = [&](std::string_view base) {
        return obs::LabeledName(base, {{"backend", options_.backend},
                                       {"replica", replica->name}});
      };
      replica->m_in_flight =
          options_.metrics->gauge(name_for("silkroute_replica_in_flight"));
      replica->m_ewma =
          options_.metrics->gauge(name_for("silkroute_replica_ewma_ms"));
      replica->m_ejections = options_.metrics->counter(
          name_for("silkroute_replica_ejections_total"));
      replica->m_hedges_fired = options_.metrics->counter(
          name_for("silkroute_replica_hedges_fired_total"));
      replica->m_hedges_won = options_.metrics->counter(
          name_for("silkroute_replica_hedges_won_total"));
      replica->m_hedges_cancelled = options_.metrics->counter(
          name_for("silkroute_replica_hedges_cancelled_total"));
    }
    replicas_.push_back(std::move(replica));
  };

  for (const ReplicaEndpoint& endpoint : options_.endpoints) {
    RemoteExecutorOptions remote = options_.remote;
    remote.host = endpoint.host;
    remote.port = endpoint.port;
    remote.backend = options_.backend + "/" + endpoint.name;
    remote.cancel = options_.cancel;
    remote.metrics = options_.metrics;
    add_replica(endpoint.name, nullptr,
                std::make_unique<RemoteSqlExecutor>(std::move(remote)));
  }
  for (const BorrowedReplica& borrowed : options_.replicas) {
    add_replica(borrowed.name, borrowed.executor, nullptr);
  }
  latency_ring_.assign(std::max<size_t>(1, options_.latency_window), 0);
  if (options_.metrics != nullptr) {
    m_retry_exhausted_ = options_.metrics->counter(obs::LabeledName(
        "silkroute_replica_retry_budget_exhausted_total",
        {{"backend", options_.backend}}));
  }
}

ReplicaSet::~ReplicaSet() { Shutdown(); }

void ReplicaSet::Shutdown() {
  shutdown_.Cancel();
  for (auto& replica : replicas_) {
    if (replica->owned != nullptr) replica->owned->Shutdown();
  }
}

Result<std::vector<std::pair<std::string, uint64_t>>>
ReplicaSet::FetchTableVersions(const std::vector<std::string>& tables) {
  if (shutdown_.cancelled()) return Status::Unavailable("replica set is shut down");
  Status last = Status::Unavailable("no replica answered a versions fetch");
  for (auto& replica : replicas_) {
    if (replica->breaker->WouldFastFail()) continue;
    auto versions = replica->executor->FetchTableVersions(tables);
    if (versions.ok()) return versions;
    last = versions.status();
  }
  return last;
}

bool ReplicaSet::Healthy() const {
  for (const auto& replica : replicas_) {
    if (!replica->breaker->WouldFastFail()) return true;
  }
  return false;
}

service::CircuitBreaker* ReplicaSet::replica_breaker(size_t index) {
  return replicas_[index]->breaker.get();
}

ReplicaStats ReplicaSet::replica_stats(size_t index) const {
  const Replica& replica = *replicas_[index];
  ReplicaStats stats;
  stats.name = replica.name;
  stats.in_flight = replica.in_flight.load();
  {
    std::lock_guard<std::mutex> lock(replica.mu);
    stats.ewma_ms = replica.ewma_ms;
  }
  stats.successes = replica.successes.load();
  stats.failures = replica.failures.load();
  stats.ejections = replica.ejections.load();
  stats.state = replica.breaker->state();
  return stats;
}

bool ReplicaSet::BetterLoaded(const Replica& a, const Replica& b) const {
  int load_a = a.in_flight.load(std::memory_order_relaxed);
  int load_b = b.in_flight.load(std::memory_order_relaxed);
  if (load_a != load_b) return load_a < load_b;
  double ewma_a, ewma_b;
  {
    std::lock_guard<std::mutex> lock(a.mu);
    ewma_a = a.has_ewma ? a.ewma_ms : 0;
  }
  {
    std::lock_guard<std::mutex> lock(b.mu);
    ewma_b = b.has_ewma ? b.ewma_ms : 0;
  }
  return ewma_a <= ewma_b;
}

bool ReplicaSet::ChooseReplica(const std::vector<bool>& exclude,
                               size_t* index, Decision* decision) {
  std::vector<size_t> eligible;
  eligible.reserve(replicas_.size());
  for (size_t i = 0; i < replicas_.size(); ++i) {
    if (i >= exclude.size() || !exclude[i]) eligible.push_back(i);
  }
  if (eligible.empty()) return false;

  // Power-of-two-choices: the better-loaded of two random draws is asked
  // first; the breaker is the admission gate, so an ejected favorite
  // falls through to the other draw and then to a deterministic sweep of
  // the rest (a call is never refused while any replica would admit it).
  std::vector<size_t> order;
  order.reserve(eligible.size());
  if (eligible.size() == 1) {
    order.push_back(eligible[0]);
  } else {
    size_t pick_a = static_cast<size_t>(
        rng_.Uniform(0, static_cast<int64_t>(eligible.size()) - 1));
    size_t pick_b = static_cast<size_t>(
        rng_.Uniform(0, static_cast<int64_t>(eligible.size()) - 2));
    if (pick_b >= pick_a) ++pick_b;
    size_t a = eligible[pick_a];
    size_t b = eligible[pick_b];
    if (!BetterLoaded(*replicas_[a], *replicas_[b])) std::swap(a, b);
    order.push_back(a);
    order.push_back(b);
    for (size_t i : eligible) {
      if (i != a && i != b) order.push_back(i);
    }
  }
  for (size_t i : order) {
    Decision admitted = replicas_[i]->breaker->Admit();
    if (admitted != Decision::kFastFail) {
      *index = i;
      *decision = admitted;
      return true;
    }
  }
  return false;
}

void ReplicaSet::RecordLatencySample(double ms) {
  std::lock_guard<std::mutex> lock(latency_mu_);
  latency_ring_[latency_next_] = ms;
  latency_next_ = (latency_next_ + 1) % latency_ring_.size();
  latency_count_ = std::min(latency_count_ + 1, latency_ring_.size());
}

double ReplicaSet::CurrentHedgeDelayMs() const {
  std::vector<double> samples;
  {
    std::lock_guard<std::mutex> lock(latency_mu_);
    if (latency_count_ == 0 || latency_count_ < options_.hedge_warmup) {
      return options_.hedge_initial_delay_ms;
    }
    samples.assign(latency_ring_.begin(),
                   latency_ring_.begin() +
                       static_cast<ptrdiff_t>(latency_count_));
  }
  size_t rank = static_cast<size_t>(
      0.95 * static_cast<double>(samples.size() - 1) + 0.5);
  std::nth_element(samples.begin(),
                   samples.begin() + static_cast<ptrdiff_t>(rank),
                   samples.end());
  double p95 = samples[rank];
  return std::min(options_.hedge_max_delay_ms,
                  std::max(options_.hedge_min_delay_ms, p95));
}

void ReplicaSet::RunAttempt(Attempt* attempt, std::string_view sql,
                            double timeout_ms) {
  auto t0 = std::chrono::steady_clock::now();
  // The attempt span becomes this thread's current span: a traced remote
  // executor underneath sends its id over the wire and stitches the
  // server's phase spans back under it.
  obs::ScopedCurrentSpan scope(&attempt->span);
  auto result = attempt->replica->executor->ExecuteSqlCancellable(
      sql, timeout_ms, &attempt->cancel);
  double elapsed_ms = std::chrono::duration<double, std::milli>(
                          std::chrono::steady_clock::now() - t0)
                          .count();
  attempt->replica->in_flight.fetch_sub(1);
  if (attempt->replica->m_in_flight != nullptr) {
    attempt->replica->m_in_flight->Add(-1);
  }
  {
    std::lock_guard<std::mutex> lock(*attempt->race_mu);
    attempt->result = std::move(result);
    attempt->elapsed_ms = elapsed_ms;
    attempt->done = true;
  }
  attempt->race_cv->notify_all();
}

void ReplicaSet::SettleAttempt(Attempt* attempt) {
  Replica* replica = attempt->replica;
  if (attempt->result.ok()) {
    replica->breaker->RecordSuccess(attempt->decision);
    replica->successes.fetch_add(1);
    {
      std::lock_guard<std::mutex> lock(replica->mu);
      replica->ewma_ms =
          replica->has_ewma
              ? options_.ewma_alpha * attempt->elapsed_ms +
                    (1 - options_.ewma_alpha) * replica->ewma_ms
              : attempt->elapsed_ms;
      replica->has_ewma = true;
      if (replica->m_ewma != nullptr) {
        replica->m_ewma->Set(static_cast<int64_t>(replica->ewma_ms + 0.5));
      }
    }
    RecordLatencySample(attempt->elapsed_ms);
    return;
  }
  if (attempt->cancelled_by_us.load()) {
    // We abandoned the call (hedge loser, deadline, shutdown): not the
    // replica's failure, so release a probe admission without recording
    // an outcome either way.
    replica->breaker->AbandonProbe(attempt->decision);
    return;
  }
  StatusCode code = attempt->result.status().code();
  if (!IsSourceFailure(code)) {
    // Deterministic error (bad SQL): every replica would fail it — not a
    // health signal.
    replica->breaker->AbandonProbe(attempt->decision);
    return;
  }
  replica->failures.fetch_add(1);
  size_t trips_before = replica->breaker->counters().trips;
  replica->breaker->RecordFailure(attempt->decision);
  if (replica->breaker->counters().trips > trips_before) {
    ejections_.fetch_add(1);
    replica->ejections.fetch_add(1);
    if (replica->m_ejections != nullptr) replica->m_ejections->Add(1);
    obs::AnnotateCurrent("replica.eject", replica->name);
  }
}

Result<engine::Relation> ReplicaSet::RunHedged(
    size_t primary, Decision primary_decision, std::string_view sql,
    bool has_deadline, std::chrono::steady_clock::time_point deadline,
    CancelToken* cancel, std::vector<bool>* failed_replicas) {
  std::mutex race_mu;
  std::condition_variable race_cv;
  Attempt attempts[2];
  for (Attempt& attempt : attempts) {
    attempt.race_mu = &race_mu;
    attempt.race_cv = &race_cv;
  }

  auto launch = [&](Attempt* attempt, size_t index, Decision decision,
                    bool is_hedge) {
    attempt->replica = replicas_[index].get();
    attempt->index = index;
    attempt->decision = decision;
    attempt->is_hedge = is_hedge;
    attempt->launched = true;
    obs::SpanHandle* parent = obs::CurrentSpan();
    if (parent != nullptr && parent->recording() &&
        parent->tracer() != nullptr) {
      attempt->span =
          obs::Tracer::Child(parent->tracer(), parent, "replica_attempt");
      attempt->span.Annotate("replica", attempt->replica->name);
      if (is_hedge) attempt->span.Annotate("hedge", "true");
    }
    attempt->replica->in_flight.fetch_add(1);
    if (attempt->replica->m_in_flight != nullptr) {
      attempt->replica->m_in_flight->Add(1);
    }
    double remaining_ms =
        has_deadline
            ? std::max(0.0, MsUntil(deadline, std::chrono::steady_clock::now()))
            : 0;
    attempt->thread = std::thread(
        [this, attempt, sql, remaining_ms] {
          RunAttempt(attempt, sql, remaining_ms);
        });
  };

  launch(&attempts[0], primary, primary_decision, /*is_hedge=*/false);
  auto t0 = std::chrono::steady_clock::now();
  auto hedge_at = t0 + std::chrono::duration_cast<
                           std::chrono::steady_clock::duration>(
                           std::chrono::duration<double, std::milli>(
                               CurrentHedgeDelayMs()));
  bool hedge_considered = !options_.hedging || replicas_.size() < 2;

  enum class Outcome { kWinner, kAllFailed, kCancelled, kDeadline };
  Outcome outcome = Outcome::kAllFailed;
  int winner = -1;
  {
    std::unique_lock<std::mutex> lock(race_mu);
    for (;;) {
      int ok_index = -1;
      bool any_running = false;
      for (int i = 0; i < 2; ++i) {
        if (!attempts[i].launched) continue;
        if (!attempts[i].done) {
          any_running = true;
        } else if (ok_index < 0 && attempts[i].result.ok()) {
          ok_index = i;
        }
      }
      if (ok_index >= 0) {
        outcome = Outcome::kWinner;
        winner = ok_index;
        break;
      }
      if (!any_running) {
        outcome = Outcome::kAllFailed;
        break;
      }
      if (shutdown_.cancelled() ||
          (cancel != nullptr && cancel->cancelled()) ||
          (options_.cancel != nullptr && options_.cancel->cancelled())) {
        outcome = Outcome::kCancelled;
        break;
      }
      auto now = std::chrono::steady_clock::now();
      if (has_deadline && now >= deadline) {
        outcome = Outcome::kDeadline;
        break;
      }
      if (!hedge_considered && now >= hedge_at && !attempts[0].done) {
        // The primary is past the tracked p95: race a second replica if
        // one is admittable and the hedge budget has a token.
        hedge_considered = true;
        std::vector<bool> exclude = *failed_replicas;
        exclude.resize(replicas_.size(), false);
        exclude[primary] = true;
        size_t hedge_index = 0;
        Decision hedge_decision = Decision::kFastFail;
        if (ChooseReplica(exclude, &hedge_index, &hedge_decision)) {
          if (hedge_budget_.TryTake()) {
            launch(&attempts[1], hedge_index, hedge_decision,
                   /*is_hedge=*/true);
            hedges_fired_.fetch_add(1);
            if (attempts[1].replica->m_hedges_fired != nullptr) {
              attempts[1].replica->m_hedges_fired->Add(1);
            }
            obs::AnnotateCurrent("replica.hedge",
                                 attempts[1].replica->name);
          } else {
            hedges_suppressed_.fetch_add(1);
            replicas_[hedge_index]->breaker->AbandonProbe(hedge_decision);
          }
        }
      }
      double wait_ms = options_.poll_interval_ms;
      if (!hedge_considered) {
        wait_ms = std::min(wait_ms, std::max(0.1, MsUntil(hedge_at, now)));
      }
      if (has_deadline) {
        wait_ms = std::min(wait_ms, std::max(0.1, MsUntil(deadline, now)));
      }
      race_cv.wait_for(lock,
                       std::chrono::duration<double, std::milli>(wait_ms));
    }

    // Cancel whatever is still running (the hedged-race loser, or both on
    // deadline/shutdown); they unblock within one poll interval.
    for (int i = 0; i < 2; ++i) {
      Attempt& attempt = attempts[i];
      if (!attempt.launched || attempt.done) continue;
      attempt.cancelled_by_us.store(true);
      attempt.cancel.Cancel();
      if (outcome == Outcome::kWinner) {
        hedges_cancelled_.fetch_add(1);
        if (attempt.replica->m_hedges_cancelled != nullptr) {
          attempt.replica->m_hedges_cancelled->Add(1);
        }
      }
    }
  }

  for (Attempt& attempt : attempts) {
    if (attempt.thread.joinable()) attempt.thread.join();
  }
  for (Attempt& attempt : attempts) {
    if (attempt.launched) SettleAttempt(&attempt);
  }
  for (Attempt& attempt : attempts) {
    // End attempt spans only after joins: any drained hedge-loser subtree
    // has been stitched by now, so the span's duration covers the whole
    // attempt including the salvage read.
    if (!attempt.launched) continue;
    if (attempt.span.recording()) {
      attempt.span.AnnotateMs("ms", attempt.elapsed_ms);
      attempt.span.Annotate(
          "status", StatusCodeToString(attempt.result.ok()
                                           ? StatusCode::kOk
                                           : attempt.result.status().code()));
      if (attempt.cancelled_by_us.load()) {
        attempt.span.Annotate("cancelled_by_us", "true");
      }
    }
    attempt.span.End();
  }
  for (Attempt& attempt : attempts) {
    // Genuine failures feed the caller's exclude set so a retry tries a
    // different replica; cancelled losers stay eligible.
    if (attempt.launched && !attempt.result.ok() &&
        !attempt.cancelled_by_us.load()) {
      if (attempt.index < failed_replicas->size()) {
        (*failed_replicas)[attempt.index] = true;
      }
    }
  }

  switch (outcome) {
    case Outcome::kWinner: {
      Attempt& win = attempts[winner];
      if (win.is_hedge) {
        hedges_won_.fetch_add(1);
        if (win.replica->m_hedges_won != nullptr) {
          win.replica->m_hedges_won->Add(1);
        }
      }
      obs::AnnotateCurrent("replica", win.replica->name);
      return std::move(win.result);
    }
    case Outcome::kAllFailed:
      // Prefer the primary's status (the hedge may have been refused for
      // unrelated reasons); it is never cancelled on this path.
      return attempts[0].result.status();
    case Outcome::kCancelled:
      return Status::Unavailable("replica set cancelled");
    case Outcome::kDeadline:
      return Status::Timeout("deadline exceeded during replica exchange");
  }
  return Status::Internal("unreachable replica race outcome");
}

Result<engine::Relation> ReplicaSet::ExecuteSqlCancellable(
    std::string_view sql, double timeout_ms, CancelToken* cancel) {
  if (replicas_.empty()) {
    return Status::InvalidArgument("replica set has no replicas");
  }
  if (shutdown_.cancelled()) {
    return Status::Unavailable("replica set is shut down");
  }
  requests_.fetch_add(1);
  hedge_budget_.Deposit();
  retry_budget_.Deposit();

  bool has_deadline = timeout_ms > 0;
  auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::duration_cast<std::chrono::steady_clock::duration>(
          std::chrono::duration<double, std::milli>(timeout_ms));

  int max_attempts = std::max(1, options_.max_attempts);
  max_attempts =
      std::min(max_attempts, static_cast<int>(replicas_.size()));
  std::vector<bool> failed(replicas_.size(), false);
  Status last = Status::Unavailable("no replica attempted");

  for (int attempt = 0; attempt < max_attempts; ++attempt) {
    if (shutdown_.cancelled() ||
        (cancel != nullptr && cancel->cancelled())) {
      return Status::Unavailable("replica set cancelled");
    }
    if (has_deadline && std::chrono::steady_clock::now() >= deadline) {
      return Status::Timeout("deadline exceeded before replica attempt");
    }
    size_t index = 0;
    Decision decision = Decision::kFastFail;
    if (!ChooseReplica(failed, &index, &decision)) {
      // Nothing admittable: everything is ejected or already failed this
      // call. Fail fast and clean — the layer above (backend breaker,
      // local fallback) owns what happens next.
      return attempt == 0
                 ? Status::Unavailable("all replicas of backend '" +
                                       options_.backend + "' are ejected")
                 : last;
    }
    auto result =
        RunHedged(index, decision, sql, has_deadline, deadline, cancel,
                  &failed);
    if (result.ok()) return result;
    last = result.status();
    if (!IsSourceFailure(last.code())) return result;
    if (last.code() == StatusCode::kTimeout) return result;
    if (attempt + 1 >= max_attempts) return result;
    if (has_deadline && std::chrono::steady_clock::now() >= deadline) {
      return result;
    }
    if (!retry_budget_.TryTake()) {
      // Budget dry: during a partial outage the set degrades to one
      // attempt per call instead of multiplying client load by the
      // replica count.
      retry_budget_exhausted_.fetch_add(1);
      if (m_retry_exhausted_ != nullptr) m_retry_exhausted_->Add(1);
      obs::AnnotateCurrent("replica.retry_budget", "exhausted");
      return result;
    }
    retries_.fetch_add(1);
    obs::AnnotateCurrent("replica.retry", replicas_[index]->name);
  }
  return last;
}

}  // namespace silkroute::net
