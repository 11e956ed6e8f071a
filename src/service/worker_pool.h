// WorkerPool: a fixed-size thread pool executing queued tasks in FIFO
// order. The pool bounds the number of component queries in flight at once
// — the service's primary concurrency throttle (admission control bounds
// what may *enter* the queue; the pool bounds what *runs*).
//
// Tasks must never block on other pool tasks (the publishing service obeys
// this: request coordination waits happen on client threads, pool tasks
// only execute queries and enqueue follow-ups), so the pool cannot
// deadlock. Shutdown drains: queued tasks still run, which is cheap
// because the service cancels its CancelToken first and drained tasks
// fail fast. A worker running a task holds a busy core lane
// (common/lanes.h), so the range-parallel tagger only borrows the cores
// the pool leaves idle.
#ifndef SILKROUTE_SERVICE_WORKER_POOL_H_
#define SILKROUTE_SERVICE_WORKER_POOL_H_

#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "obs/metrics.h"

namespace silkroute::service {

class WorkerPool {
 public:
  /// `metrics` (borrowed, may be null) records per-task queue wait — the
  /// time between Submit and a worker picking the task up — into
  /// silkroute_pool_queue_wait_us, plus the live queue depth gauge.
  explicit WorkerPool(size_t num_threads,
                      obs::MetricsRegistry* metrics = nullptr);
  ~WorkerPool();

  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  /// Enqueues a task. Returns false (task dropped) once Shutdown started.
  bool Submit(std::function<void()> task);

  /// Stops accepting tasks, drains the queue, joins all workers.
  /// Idempotent.
  void Shutdown();

  size_t num_threads() const { return threads_.size(); }
  size_t queue_depth() const;

 private:
  struct Entry {
    std::function<void()> task;
    std::chrono::steady_clock::time_point enqueued;
  };

  void WorkerLoop();

  mutable std::mutex mu_;
  std::mutex join_mu_;
  std::condition_variable cv_;
  std::deque<Entry> queue_;
  bool shutdown_ = false;
  std::vector<std::thread> threads_;

  // Registry mirrors (null when disabled), resolved once at construction.
  obs::Counter* m_tasks_ = nullptr;
  obs::Histogram* m_queue_wait_us_ = nullptr;
  obs::Gauge* m_queue_depth_ = nullptr;
};

}  // namespace silkroute::service

#endif  // SILKROUTE_SERVICE_WORKER_POOL_H_
