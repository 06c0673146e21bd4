// MUST-TRIP fixture for swarm-layout-pin.
//
// A straggler is a coroutine that outlives the op that started it: a
// background promotion handed to sim::Spawn, or a per-replica task a quorum
// wave resumed without. The retired-layout GC frees a dropped layout once
// nothing shares its ownership, so a straggler that holds only a bare
// ObjectLayout pointer can resume after the drop and read the freed
// replica records (InOutReplica keeps a pointer into them across its
// co_awaits). Here the Safe-Guess fast path spawns its promotion with the
// bare pointer, and a lock's per-replica CAS loop carries no phase.

#include "fixture_stubs.h"

namespace swarm::fixture {

// trip: spawned by Promote, outlives it, holds only `layout`.
sim::Task<void> PromoteOne(Worker* worker, const ObjectLayout* layout, int r, uint64_t word) {
  const ReplicaLayout& rep = layout->replicas[r];
  auto res = co_await worker->qp(rep.node).Cas(rep.meta_addr, word, word | 1);
  DiscardStatus(res);
}

// trip: spawned by the write's fast path, which returns at once.
sim::Task<void> Promote(Worker* worker, const ObjectLayout* layout, uint64_t word) {
  for (int r = 0; r < layout->num_replicas; ++r) {
    sim::Spawn(PromoteOne(worker, layout, r, word));
  }
  co_return;
}

void WriteFastPath(Worker* worker, const ObjectLayout* layout, uint64_t word) {
  sim::Spawn(Promote(worker, layout, word));
}

// trip: the wave resumes at a majority; the rest of these loops run on
// with a bare reference and nothing of their phase.
sim::Task<void> LockOneReplica(Worker* worker, const ObjectLayout& layout, int r,
                               bool* acquired) {
  const ReplicaLayout& rep = layout.replicas[r];
  auto res = co_await worker->qp(rep.node).Cas(rep.meta_addr, 0, 1);
  *acquired = res.ok();
}

sim::Task<bool> TryLock(Worker* worker, const ObjectLayout* layout, const QuorumEngine& q,
                        QuorumPhase* phase, bool* acquired) {
  co_return co_await q.Broadcast(
      phase, [&](int r) { return LockOneReplica(worker, *layout, r, acquired); });
}

}  // namespace swarm::fixture
