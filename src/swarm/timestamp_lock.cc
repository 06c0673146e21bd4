#include "src/swarm/timestamp_lock.h"

#include <algorithm>
#include <cassert>
#include <memory>

#include "src/swarm/quorum.h"

namespace swarm {
namespace {

struct LockPhase : QuorumPhase {
  using QuorumPhase::QuorumPhase;

  bool higher_seen = false;    // some CAS word held a timestamp > ts
  bool opposite_seen = false;  // some CAS word held (ts, ¬mode)
  int max_rtts = 0;
};

// One CAS word's loop (Algorithm 9, lines 5–9): CAS until the word holds a
// timestamp >= ts, remembering what was observed.
sim::Task<void> LockOneReplica(Worker* worker, LayoutPin layout, int replica, uint32_t owner_tid,
                               uint32_t counter, LockMode mode, std::shared_ptr<LockPhase> phase) {
  const ReplicaLayout& rep = layout->replica(replica);
  // The protocol entry points (CheckWriterBound in safe_guess.cc) already
  // rejected out-of-range tids; this assert keeps the slab-neighbor CAS
  // (PR-9 seed 47000) from sneaking back in through a new caller. The
  // undersized-writer-bound canary replays the raw misconfiguration
  // deliberately, so the guard stands down with it.
  assert(worker->fabric()->config().canaries.undersized_writer_bound ||
         owner_tid < static_cast<uint32_t>(layout->max_writers));
  const uint64_t addr = layout->tsl_addr(rep) + static_cast<uint64_t>(owner_tid) * 8;
  fabric::Qp& qp = worker->qp(rep.node);
  const TslWord want = TslWord::Pack(counter, mode);

  TslWord seen;  // read[c], starts at bottom.
  int rtts = 0;
  bool ok = true;
  while (seen.counter() < counter) {
    const TslWord expected = seen;
    fabric::OpResult r = co_await qp.Cas(addr, expected.raw(), want.raw());
    ++rtts;
    if (!r.ok()) {
      ok = false;
      break;
    }
    seen = TslWord(r.old_value);
    if (seen == expected) {
      break;  // Our CAS applied; this word now records (ts, mode).
    }
  }

  if (ok) {
    if (seen.counter() > counter) {
      phase->higher_seen = true;
    }
    if (seen.counter() == counter && seen.mode() == Opposite(mode)) {
      phase->opposite_seen = true;
    }
    phase->max_rtts = std::max(phase->max_rtts, rtts);
    phase->ok.Add(1);
  }
}

}  // namespace

sim::Task<TryLockResult> TimestampLock::TryLock(uint32_t counter, LockMode mode) {
  // A kStaleEpoch completion is a membership-staleness signal, never
  // evidence about lock state: the attempt re-runs after the epoch pull
  // (re-CASing (counter, mode) is idempotent). This is exactly the retry that
  // closes the §5.4 window — the stale attempt's votes were rejected at the
  // nodes, so they can never complete a majority that straddles a
  // crash-repair cycle. No live majority means not acquired (safe).
  return worker_->RetryFenced([this, counter, mode] { return TryLockOnce(counter, mode); },
                              [](const TryLockResult& r) { return !r.quorum_ok; });
}

sim::Task<TryLockResult> TimestampLock::TryLockOnce(uint32_t counter, LockMode mode) {
  auto phase = sim::MakePooled<LockPhase>(worker_->sim());
  // Algorithm 9 contacts every replica in one doorbell; only a majority must
  // answer. A repairing replica is skipped outright: its CAS words are
  // mid-restore and counting it could manufacture a majority the opposite
  // mode already holds among the survivors.
  const QuorumEngine q(worker_, *layout_, QuorumEngine::Order::kIndex);
  TryLockResult result;
  result.quorum_ok = co_await q.Broadcast(phase.get(), [&](int r) {
    return LockOneReplica(worker_, layout_, r, owner_tid_, counter, mode, phase);
  });
  result.rtts = phase->max_rtts;
  result.acquired = result.quorum_ok && !phase->higher_seen && !phase->opposite_seen;
  co_return result;
}

}  // namespace swarm
