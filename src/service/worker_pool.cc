#include "service/worker_pool.h"

#include <algorithm>
#include <utility>

#include "common/lanes.h"

namespace silkroute::service {

WorkerPool::WorkerPool(size_t num_threads, obs::MetricsRegistry* metrics) {
  if (metrics != nullptr) {
    m_tasks_ = metrics->counter("silkroute_pool_tasks_total");
    m_queue_wait_us_ = metrics->histogram("silkroute_pool_queue_wait_us");
    m_queue_depth_ = metrics->gauge("silkroute_pool_queue_depth");
  }
  num_threads = std::max<size_t>(num_threads, 1);
  threads_.reserve(num_threads);
  for (size_t i = 0; i < num_threads; ++i) {
    threads_.emplace_back([this] { WorkerLoop(); });
  }
}

WorkerPool::~WorkerPool() { Shutdown(); }

bool WorkerPool::Submit(std::function<void()> task) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (shutdown_) return false;
    queue_.push_back(Entry{std::move(task), std::chrono::steady_clock::now()});
    if (m_queue_depth_ != nullptr) {
      m_queue_depth_->Set(static_cast<int64_t>(queue_.size()));
    }
  }
  cv_.notify_one();
  return true;
}

void WorkerPool::Shutdown() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
  }
  cv_.notify_all();
  // The join mutex makes Shutdown idempotent and safe to race (service
  // Shutdown vs. destructor): exactly one caller joins each thread.
  std::lock_guard<std::mutex> join_lock(join_mu_);
  for (std::thread& t : threads_) {
    if (t.joinable()) t.join();
  }
}

size_t WorkerPool::queue_depth() const {
  std::lock_guard<std::mutex> lock(mu_);
  return queue_.size();
}

void WorkerPool::WorkerLoop() {
  for (;;) {
    Entry entry;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [&] { return shutdown_ || !queue_.empty(); });
      if (queue_.empty()) return;  // shutdown with a drained queue
      entry = std::move(queue_.front());
      queue_.pop_front();
      if (m_queue_depth_ != nullptr) {
        m_queue_depth_->Set(static_cast<int64_t>(queue_.size()));
      }
    }
    if (m_tasks_ != nullptr) {
      m_tasks_->Add();
      m_queue_wait_us_->RecordMicros(
          std::chrono::duration<double, std::micro>(
              std::chrono::steady_clock::now() - entry.enqueued)
              .count());
    }
    BusyLane busy;  // a tag that could fan out sees this core taken
    entry.task();
  }
}

}  // namespace silkroute::service
