// MUST-PASS fixture for swarm-layout-pin.
//
// The fixed forms of the trip fixture's stragglers: each takes its own
// share in the layout by value — a LayoutPin, or the SlotCache handle that
// carries one — and reads the layout from it. Coroutines that are only
// awaited, or that touch no layout, may take anything.

#include "fixture_stubs.h"

namespace swarm::fixture {

struct LockPhase : QuorumPhase {
  bool higher_seen = false;
};

sim::Task<void> PromoteOne(Worker* worker, LayoutPin layout, int r, uint64_t word) {
  const ReplicaLayout& rep = layout->replica(r);
  auto res = co_await worker->qp(rep.node).Cas(rep.meta_addr, word, word | 1);
  DiscardStatus(res);
}

sim::Task<void> Promote(Worker* worker, LayoutPin layout, uint64_t word) {
  for (int r = 0; r < layout->num_replicas; ++r) {
    sim::Spawn(PromoteOne(worker, layout, r, word));
  }
  co_return;
}

void WriteFastPath(Worker* worker, LayoutPin layout, uint64_t word) {
  sim::Spawn(Promote(worker, layout, word));
}

sim::Task<void> LockOneReplica(Worker* worker, LayoutPin layout, int r,
                               std::shared_ptr<LockPhase> phase) {
  const ReplicaLayout& rep = layout->replica(r);
  auto res = co_await worker->qp(rep.node).Cas(rep.meta_addr, 0, 1);
  phase->higher_seen = !res.ok();
}

// Awaited, never spawned: it may take the layout by reference.
sim::Task<bool> TryLock(Worker* worker, const LayoutPin& layout, const QuorumEngine& q,
                        std::shared_ptr<LockPhase> phase) {
  co_return co_await q.Broadcast(
      phase.get(), [&](int r) { return LockOneReplica(worker, layout, r, phase); });
}

// The writer's handle: a share in the layout beside its slot-cache words.
sim::Task<void> ReadOne(Worker* worker, SlotCache cache, int r, std::shared_ptr<LockPhase> ph) {
  const ReplicaLayout& rep = cache.pin()->replica(r);
  auto res = co_await worker->qp(rep.node).Cas(rep.meta_addr, 0, 0);
  cache[r] = res.old_value;
  ph->higher_seen = !res.ok();
}

sim::Task<bool> ReadQuorum(Worker* worker, const SlotCache& cache, const QuorumEngine& q,
                           std::shared_ptr<LockPhase> ph) {
  co_return (co_await q.Escalate(
      ph.get(), [&](int r) { return ReadOne(worker, cache, r, ph); })).reached;
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
