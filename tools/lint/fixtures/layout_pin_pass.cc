// MUST-PASS fixture for swarm-layout-pin.
//
// The pinned forms of the trip fixture's stragglers: the promotion takes a
// LayoutPin by value, and the per-replica lock task co-owns its phase, into
// which the quorum engine stamps its pin. Coroutines that are only awaited,
// or that touch no layout, need no pin.

#include "fixture_stubs.h"

namespace swarm::fixture {

struct LockPhase : QuorumPhase {
  bool higher_seen = false;
};

// `pin` is held, never read: it keeps the layout alive across the CAS.
sim::Task<void> PromoteOne(Worker* worker, const ObjectLayout* layout,
                           [[maybe_unused]] LayoutPin pin, int r, uint64_t word) {
  const ReplicaLayout& rep = layout->replica(r);
  auto res = co_await worker->qp(rep.node).Cas(rep.meta_addr, word, word | 1);
  DiscardStatus(res);
}

sim::Task<void> Promote(Worker* worker, const ObjectLayout* layout, LayoutPin pin,
                        uint64_t word) {
  for (int r = 0; r < layout->num_replicas; ++r) {
    sim::Spawn(PromoteOne(worker, layout, pin, r, word));
  }
  co_return;
}

void WriteFastPath(Worker* worker, LayoutPin layout, uint64_t word) {
  sim::Spawn(Promote(worker, layout.get(), layout, word));
}

sim::Task<void> LockOneReplica(Worker* worker, const ObjectLayout* layout, int r,
                               std::shared_ptr<LockPhase> phase) {
  const ReplicaLayout& rep = layout->replica(r);
  auto res = co_await worker->qp(rep.node).Cas(rep.meta_addr, 0, 1);
  phase->higher_seen = !res.ok();
}

sim::Task<bool> TryLock(Worker* worker, const ObjectLayout* layout, const QuorumEngine& q,
                        std::shared_ptr<LockPhase> phase) {
  co_return co_await q.Broadcast(
      phase.get(), [&](int r) { return LockOneReplica(worker, layout, r, phase); });
}

// Awaited, never spawned: it cannot outlive its caller.
sim::Task<bool> ChaseValue(Worker* worker, const ObjectLayout* layout, int r) {
  auto res = co_await worker->qp(layout->replica(r).node).Cas(0, 0, 0);
  co_return res.ok();
}

// Spawned, but touches no layout.
sim::Task<void> UnmapLater(uint64_t key, uint64_t generation) {
  co_return;
}

void Remove(uint64_t key, uint64_t generation) { sim::Spawn(UnmapLater(key, generation)); }

}  // namespace swarm::fixture
