// MUST-PASS fixture for swarm-unchecked-commit-critical: the same Remove
// shape with every commit-critical completion either branched on, retried,
// delegated, or routed through the named DiscardStatus() escape hatch.

#include "fixture_stubs.h"

namespace swarm::fixture {

sim::Task<KvResult> RemoveKeyChecked(Qp& qp, uint64_t primary_slot,
                                     uint64_t backup_slot, uint64_t old_word) {
  auto primary = co_await qp.Cas(primary_slot, old_word, 0);
  if (!primary.ok()) {
    co_return KvResult{KvStatus::kUnavailable};
  }

  // The PR-6 fix shape: the backup clear is commit-critical and retried
  // until it definitively succeeded or the op reports unavailability.
  for (int round = 0; round < 8; ++round) {
    auto backup = co_await qp.Cas(backup_slot, old_word, 0);
    if (backup.status == Status::kStaleEpoch) {
      continue;  // Fixture-scale stand-in for RefreshEpoch-and-retry.
    }
    if (backup.ok() || backup.old_value != old_word) {
      co_return KvResult{KvStatus::kOk};
    }
  }
  co_return KvResult{KvStatus::kUnavailable};
}

sim::Task<void> IntentionalDrop(Qp& qp, uint64_t addr) {
  // A best-effort prefetch hint: failure is tolerated by design, and the
  // named hatch makes the drop grep-able and justified.
  DiscardStatus(co_await qp.Read(addr, {}));
}

sim::Task<KvResult> DelegatedResult(Qp& qp, uint64_t addr, uint64_t expect) {
  // Returning the awaited result hands the decision to the caller.
  co_return Classify(co_await qp.Cas(addr, expect, 0));
}

sim::Task<KvResult> ExaminedVerdict(const QuorumEngine& q, QuorumPhase* ph) {
  // The quorum verdict decides what the op reports.
  const QuorumVerdict v = co_await q.Escalate(ph, InstallAt);
  if (!v.reached) {
    co_return KvResult{KvStatus::kUnavailable};
  }
  co_return KvResult{KvStatus::kOk};
}

}  // namespace swarm::fixture
