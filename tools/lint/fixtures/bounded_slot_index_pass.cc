// MUST-PASS fixture for swarm-bounded-slot-index: the same slot-address
// arithmetic dominated by a bound check (the PR-9 fix shape: Safe-Guess's
// CheckWriterBound fail-fast guard), plus the assert and named-guard
// variants.

#include <cassert>

#include "fixture_stubs.h"

namespace swarm::fixture {

inline constexpr uint32_t kMaxWriters = 8;

void AbortRun();
void CheckWriterBound(uint32_t tid, uint32_t max_writers);

sim::Task<OpResult> LockSlotCasGuarded(Qp& qp, uint64_t tsl_addr, uint32_t tid,
                                       uint64_t expected, uint64_t desired) {
  // The fail-fast guard dominates the arithmetic: an out-of-range tid can
  // never reach the address computation.
  if (tid >= kMaxWriters) {
    AbortRun();
  }
  uint64_t lock_addr = tsl_addr + tid * 8;
  co_return co_await qp.Cas(lock_addr, expected, desired);
}

sim::Task<OpResult> ReplicaWordReadAsserted(Qp& qp, uint64_t base_addr,
                                            uint32_t slot, Span out) {
  assert(slot < kMaxWriters);
  co_return co_await qp.Read(base_addr + slot * 64, out);
}

sim::Task<OpResult> LockSlotCasNamedGuard(Qp& qp, uint64_t tsl_addr, uint32_t tid,
                                          uint64_t expected, uint64_t desired) {
  CheckWriterBound(tid, kMaxWriters);
  uint64_t lock_addr = tsl_addr + tid * 8;
  co_return co_await qp.Cas(lock_addr, expected, desired);
}

}  // namespace swarm::fixture
