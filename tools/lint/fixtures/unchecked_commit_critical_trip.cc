// MUST-TRIP fixture for swarm-unchecked-commit-critical.
//
// Reconstructs the PR-6 seed-12115 bug: FUSEE Remove's backup index-slot
// clear was fire-and-forget — a dropped CAS completion left the backup slot
// pointing at the removed value's still-byte-valid block, which a later
// failover resurrected. The clear is commit-critical; its status must be
// branched on (and retried) like WriteInternal phase 3.
//
// Fixtures are lint inputs, not build inputs: they carry just enough
// declaration scaffolding to read naturally.

#include "fixture_stubs.h"

namespace swarm::fixture {

sim::Task<KvResult> RemoveKey(Qp& qp, uint64_t primary_slot, uint64_t backup_slot,
                              uint64_t old_word) {
  // Phase 3a: clear the primary slot, checked.
  auto primary = co_await qp.Cas(primary_slot, old_word, 0);
  if (!primary.ok()) {
    co_return KvResult{KvStatus::kUnavailable};
  }

  // Phase 3b: THE BUG — the backup-slot clear's completion is dropped on
  // the floor. A dropped response leaves the backup pointing at the dead
  // block; the next failover serves the removed value.
  co_await qp.Cas(backup_slot, old_word, 0);  // trip: fire-and-forget

  co_return KvResult{KvStatus::kOk};
}

sim::Task<void> EvadedDrop(Qp& qp, uint64_t addr, uint64_t expect) {
  // (void)-casting a commit-critical result evades the [[nodiscard]]
  // contract without leaving a grep-able DiscardStatus marker.
  (void)co_await qp.Cas(addr, expect, 0);  // trip: (void)-cast evasion
}

sim::Task<void> AssignedNeverExamined(Qp& qp, uint64_t addr, uint64_t expect) {
  // Captured but never read again: morally identical to the bare drop.
  auto r = co_await qp.Cas(addr, expect, 0);  // trip: never examined
  co_return;
}

sim::Task<KvResult> DroppedVerdict(const QuorumEngine& q, QuorumPhase* ph) {
  // The quorum verdict IS the commit decision: dropping it acks the write
  // whether or not a majority installed it.
  co_await q.Broadcast(ph, InstallAt);  // trip: quorum verdict dropped
  co_return KvResult{KvStatus::kOk};
}

sim::Task<void> DroppedInstall(Qp& qp, OopPool& pool, uint64_t addr, Meta prev, Meta desired) {
  // CasMax's status and install flag say whether the word now holds ours and
  // which buffer was freed: dropping them acks an install that may not exist.
  Meta seen;
  co_await CasMax(qp, pool, addr, prev, desired, &seen);  // trip: CasMax result dropped
}

}  // namespace swarm::fixture
