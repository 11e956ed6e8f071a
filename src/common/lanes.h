// Core lanes: a process-wide count of the threads doing publishing work,
// so that work which can fan out (the range-parallel tagger) only takes
// cores that nothing else is using.
//
// A thread marks itself busy for a scope with BusyLane: Publisher::Run for
// a whole publish, WorkerPool workers while they run a task, Tagger::Run
// while it tags. Helper threads borrow idle lanes with a LaneLoan: at most
// LaneCapacity() minus the busy count, and LaneCapacity() is the core
// count clamped to kMaxLanes (a container's CPU quota is not visible in
// hardware_concurrency). So a lone publish on idle cores tags on up to
// kMaxLanes threads, while concurrent publishes leave it fewer helpers,
// or none.
//
// The count is a snapshot: a lane that turns busy after a loan was granted
// does not take the loan back. Oversubscription is therefore bounded by
// the lanes on loan, never by the number of concurrent publishes.
#ifndef SILKROUTE_COMMON_LANES_H_
#define SILKROUTE_COMMON_LANES_H_

#include <cstddef>

namespace silkroute {

inline constexpr size_t kMaxLanes = 4;

/// clamp(hardware_concurrency, 1, kMaxLanes).
size_t LaneCapacity();

/// Lanes in use now: busy threads plus lanes on loan.
size_t BusyLanes();

/// Marks the calling thread busy until destroyed. Nested marks on one
/// thread count once.
class BusyLane {
 public:
  BusyLane();
  ~BusyLane();
  BusyLane(const BusyLane&) = delete;
  BusyLane& operator=(const BusyLane&) = delete;

 private:
  bool counted_;
};

/// Borrows up to `wanted` idle lanes until destroyed; count() says how
/// many it got, possibly none.
class LaneLoan {
 public:
  explicit LaneLoan(size_t wanted);
  ~LaneLoan();
  LaneLoan(const LaneLoan&) = delete;
  LaneLoan& operator=(const LaneLoan&) = delete;

  size_t count() const { return count_; }

 private:
  size_t count_ = 0;
};

}  // namespace silkroute

#endif  // SILKROUTE_COMMON_LANES_H_
