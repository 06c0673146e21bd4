// Timestamp locks (§3.3, Algorithms 4/9, Appendix B).
//
// A timestamp lock arbitrates, per writer, between a writer that wants to
// re-execute a write whose guessed timestamp may be stale, and readers that
// want to commit to returning the value at that guessed timestamp. Both
// modes race to CAS (ts, mode) into a majority of 2f+1 per-node CAS words;
// it is impossible for both modes to occupy a majority, which yields the
// True-exclusion property. Locks are never released — only superseded by
// higher timestamps.

#ifndef SWARM_SRC_SWARM_TIMESTAMP_LOCK_H_
#define SWARM_SRC_SWARM_TIMESTAMP_LOCK_H_

#include <cstdint>
#include <utility>

#include "src/sim/task.h"
#include "src/swarm/layout.h"
#include "src/swarm/timestamp.h"
#include "src/swarm/worker.h"

namespace swarm {

struct [[nodiscard]] TryLockResult {
  bool acquired = false;
  // False when no majority of lock replicas answered (crashed fabric); the
  // caller treats this as "not acquired", which is always safe.
  bool quorum_ok = false;
  int rtts = 0;
};

// The lock of writer `owner_tid` on `layout`'s object. Cheap to construct
// per op. Each per-replica CAS loop takes its own share of the layout: the
// loops that outlive TryLock keep reading its records.
class TimestampLock {
 public:
  TimestampLock(Worker* worker, LayoutPin layout, uint32_t owner_tid)
      : worker_(worker), layout_(std::move(layout)), owner_tid_(owner_tid) {}

  // TRYLOCK(ts, mode): returns acquired=true iff no conflicting lock attempt
  // (same ts with the opposite mode, or any higher ts) was observed at a
  // majority of the lock's CAS words.
  sim::Task<TryLockResult> TryLock(uint32_t counter, LockMode mode);

 private:
  // One attempt; TryLock re-runs it through Worker::RetryFenced.
  sim::Task<TryLockResult> TryLockOnce(uint32_t counter, LockMode mode);

  Worker* worker_;
  LayoutPin layout_;
  uint32_t owner_tid_;
};

}  // namespace swarm

#endif  // SWARM_SRC_SWARM_TIMESTAMP_LOCK_H_
