#include "common/lanes.h"

#include <algorithm>
#include <atomic>
#include <thread>

namespace silkroute {

namespace {
std::atomic<size_t> busy_lanes{0};
thread_local bool thread_busy = false;
}  // namespace

size_t LaneCapacity() {
  static const size_t capacity = std::clamp<size_t>(
      std::thread::hardware_concurrency(), 1, kMaxLanes);
  return capacity;
}

size_t BusyLanes() { return busy_lanes.load(std::memory_order_relaxed); }

BusyLane::BusyLane() : counted_(!thread_busy) {
  if (counted_) {
    thread_busy = true;
    busy_lanes.fetch_add(1, std::memory_order_relaxed);
  }
}

BusyLane::~BusyLane() {
  if (counted_) {
    busy_lanes.fetch_sub(1, std::memory_order_relaxed);
    thread_busy = false;
  }
}

LaneLoan::LaneLoan(size_t wanted) {
  const size_t capacity = LaneCapacity();
  size_t busy = busy_lanes.load(std::memory_order_relaxed);
  do {
    count_ = std::min(wanted, capacity > busy ? capacity - busy : 0);
  } while (count_ > 0 &&
           !busy_lanes.compare_exchange_weak(busy, busy + count_,
                                             std::memory_order_relaxed));
}

LaneLoan::~LaneLoan() {
  if (count_ > 0) busy_lanes.fetch_sub(count_, std::memory_order_relaxed);
}

}  // namespace silkroute
