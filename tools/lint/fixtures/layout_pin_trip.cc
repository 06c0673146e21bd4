// MUST-TRIP fixture for swarm-layout-pin.
//
// A straggler is a coroutine that outlives the op that started it: a
// background promotion handed to sim::Spawn, or a per-replica task a quorum
// wave resumed without. The retired-layout GC frees a dropped layout once
// nothing shares its ownership, so a straggler that reaches the layout
// through a pointer or reference can resume after the drop and read the
// freed replica records (InOutReplica keeps a pointer into them across its
// co_awaits). Here the Safe-Guess fast path spawns its promotion with the
// bare pointer, a write-back takes only a reference to its caller's pin, a
// lock's per-replica CAS loop takes a bare reference, and — a share beside
// the pointer does not make the pointer one — a promotion and a read task
// take the bare pointer next to a pin by value and next to their phase. A
// task that takes its caller's pin or handle by reference holds no share
// either.

#include "fixture_stubs.h"

namespace swarm::fixture {

struct RdPhase : QuorumPhase {
  bool seen = false;
};

// trip: spawned by Promote, outlives it, holds only `layout`.
sim::Task<void> PromoteOne(Worker* worker, const ObjectLayout* layout, int r, uint64_t word) {
  const ReplicaLayout& rep = layout->replica(r);
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

// trip: a reference to a pin is no share in the layout; the caller's pin
// is gone once the read that spawned the write-back returns.
sim::Task<void> WriteBack(Worker* worker, const ObjectLayout* layout, const LayoutPin& pin,
                          uint64_t word) {
  const ReplicaLayout& rep = layout->replica(0);
  auto res = co_await worker->qp(rep.node).Cas(rep.meta_addr, 0, word);
  DiscardStatus(res);
}

void ReadSlowPath(Worker* worker, LayoutPin pin, uint64_t word) {
  sim::Spawn(WriteBack(worker, pin.get(), pin, word));
}

// trip: the wave resumes at a majority; the rest of these loops run on
// with a bare reference and nothing of their phase.
sim::Task<void> LockOneReplica(Worker* worker, const ObjectLayout& layout, int r,
                               bool* acquired) {
  const ReplicaLayout& rep = layout.replica(r);
  auto res = co_await worker->qp(rep.node).Cas(rep.meta_addr, 0, 1);
  *acquired = res.ok();
}

sim::Task<bool> TryLock(Worker* worker, const ObjectLayout* layout, const QuorumEngine& q,
                        QuorumPhase* phase, bool* acquired) {
  co_return co_await q.Broadcast(
      phase, [&](int r) { return LockOneReplica(worker, *layout, r, acquired); });
}

// trip: the pin keeps the layout alive, but the task still reads it through
// the bare pointer beside it — the shape the pin stops excusing.
sim::Task<void> FlipOne(Worker* worker, const ObjectLayout* layout, LayoutPin pin, int r) {
  const ReplicaLayout& rep = layout->replica(r);
  auto res = co_await worker->qp(rep.node).Cas(rep.meta_addr, 0, 1);
  DiscardStatus(res);
}

void Flip(Worker* worker, LayoutPin pin) { sim::Spawn(FlipOne(worker, pin.get(), pin, 0)); }

// trip: co-owning its phase is no share in the layout.
sim::Task<void> ReadWordOne(Worker* worker, const ObjectLayout* layout, int r,
                            std::shared_ptr<RdPhase> ph) {
  const ReplicaLayout& rep = layout->replica(r);
  auto res = co_await worker->qp(rep.node).Cas(rep.meta_addr, 0, 0);
  ph->seen = res.ok();
}

sim::Task<bool> ReadQuorum(Worker* worker, const LayoutPin& layout, const QuorumEngine& q,
                           std::shared_ptr<RdPhase> ph) {
  co_return (co_await q.Escalate(
      ph.get(), [&](int r) { return ReadWordOne(worker, layout.get(), r, ph); })).reached;
}

// trip: the handle by reference is the caller's, gone when the op returns.
sim::Task<void> WriteOne(Worker* worker, const SlotCache& cache, int r,
                         std::shared_ptr<RdPhase> ph) {
  const ReplicaLayout& rep = cache.pin()->replica(r);
  auto res = co_await worker->qp(rep.node).Cas(rep.meta_addr, cache[r], 1);
  ph->seen = res.ok();
}

sim::Task<bool> Write(Worker* worker, const SlotCache& cache, const QuorumEngine& q,
                      std::shared_ptr<RdPhase> ph) {
  co_return co_await q.Broadcast(ph.get(), [&](int r) { return WriteOne(worker, cache, r, ph); });
}

}  // namespace swarm::fixture
