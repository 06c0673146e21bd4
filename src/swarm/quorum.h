// The quorum engine: one implementation of the decisions every replicated
// phase makes (Safe-Guess's max register, timestamp locks, DM-ABD).
//
//  * Contact set and order. Live replicas come first, in index order
//    (replica 0 is the designated in-place holder and must lead), then the
//    known-failed ones. Repair-excluded replicas (Worker::NodeQuorumExcluded)
//    are never contacted and never count toward a majority: their slots are
//    mid-rebuild and would miss committed writes. Timestamp locks keep
//    Algorithm 9's set instead: every non-excluded replica, in index order.
//  * One doorbell per wave. A wave spawns one task per contacted replica
//    under a single CpuBatch, so all their first verbs share one submit_cost
//    (§7.2).
//  * Escalation (§6). An optimistic-majority phase contacts the first
//    `majority` replicas and broadens to every contact only when they miss
//    `escalation_timeout` — SWARM's no-downtime failover (§7.7). It does not
//    broaden after a QP was revoked (the caller's epoch-refresh retry is the
//    productive path, not a grace wait on fail-fast completions), nor when
//    kMovedReplica NACKs leave fewer than a majority of contacts: then the
//    caller's re-locate is the productive path. A SWARM-KV or DM-ABD move
//    fences one slot, so a stale-cached client still commits through the
//    shared slots, which the replacement layout lists too
//    (src/repair/migration.h).
//
// The per-replica tasks record what they learn into their phase and signal
// its `ok` counter; stragglers keep doing so after the engine resumed, so a
// phase lives in a pooled shared block the tasks co-own (sim::MakePooled).
// Every wave stamps the engine's LayoutPin into its phase: a straggler reads
// the layout's records after each resume (InOutReplica keeps a pointer into
// them), and co-owning the pinned phase keeps the layout alive until the
// last straggler is done.

#ifndef SWARM_SRC_SWARM_QUORUM_H_
#define SWARM_SRC_SWARM_QUORUM_H_

#include <algorithm>
#include <array>
#include <utility>

#include "src/fabric/fabric.h"
#include "src/sim/sync.h"
#include "src/sim/task.h"
#include "src/swarm/layout.h"
#include "src/swarm/timestamp.h"
#include "src/swarm/worker.h"

namespace swarm {

// Replica indices of one object, in the order a wave contacts them.
struct Contacts {
  std::array<int, kMaxReplicas> replica{};
  int size = 0;

  void Add(int r) { replica[static_cast<size_t>(size++)] = r; }

  // The contacts `keep` accepts, in the same order.
  template <typename Keep>
  Contacts Where(Keep keep) const {
    Contacts out;
    for (int i = 0; i < size; ++i) {
      const int r = replica[static_cast<size_t>(i)];
      if (keep(r)) {
        out.Add(r);
      }
    }
    return out;
  }
};

// State a phase shares with its per-replica tasks: they Add(1) to `ok` for
// every useful answer and count kMovedReplica NACKs in `moved`, at most one
// per replica.
struct QuorumPhase {
  explicit QuorumPhase(sim::Simulator* sim) : ok(sim) {}

  sim::Counter ok;
  int moved = 0;
  LayoutPin pin;  // Stamped by every wave: the per-replica tasks' layout.
};

// A phase whose replicas answer with a metadata word, plus the tallies
// every protocol runs over the answers.
struct WordPhase : QuorumPhase {
  using QuorumPhase::QuorumPhase;

  std::array<Meta, kMaxReplicas> words{};
  std::array<bool, kMaxReplicas> oks{};

  void Record(int r, Meta word) {
    words[static_cast<size_t>(r)] = word;
    oks[static_cast<size_t>(r)] = true;
  }
  // ts-max over the replicas that answered.
  Meta Max() const {
    Meta m;
    for (int r = 0; r < kMaxReplicas; ++r) {
      if (oks[static_cast<size_t>(r)]) {
        m = TsMax(m, words[static_cast<size_t>(r)]);
      }
    }
    return m;
  }
  // Replica r answered with m's timestamp.
  bool Holds(int r, Meta m) const {
    const auto idx = static_cast<size_t>(r);
    return oks[idx] && words[idx].ts_order_key() == m.ts_order_key();
  }
  int Holders(Meta m) const {
    int n = 0;
    for (int r = 0; r < kMaxReplicas; ++r) {
      n += Holds(r, m) ? 1 : 0;
    }
    return n;
  }
  // Replica r answered with m's write and an out-of-place pointer to chase.
  bool Carries(int r, Meta m) const {
    const auto idx = static_cast<size_t>(r);
    return oks[idx] && words[idx].same_write_key() == m.same_write_key() &&
           words[idx].oop() != 0;
  }
  // The replicas that answered, in index order.
  Contacts Answered() const {
    Contacts out;
    for (int r = 0; r < kMaxReplicas; ++r) {
      if (oks[static_cast<size_t>(r)]) {
        out.Add(r);
      }
    }
    return out;
  }
};

struct [[nodiscard]] QuorumVerdict {
  bool reached = false;  // A majority answered.
  int waves = 0;         // 1, or 2 when the phase escalated.
  int launched = 0;      // Replicas contacted.
};

// One object's quorum engine for one attempt: the contact set is fixed at
// construction, so every wave of the attempt (escalation, tombstone fence,
// write-back) walks the order the attempt started with.
class QuorumEngine {
 public:
  enum class Order {
    kLiveFirst,  // Live replicas in index order, then known-failed (§6).
    kIndex,      // Every contactable replica in index order (Algorithm 9).
  };

  // `pin` keeps `layout` alive while stragglers run: the caller's slot-cache
  // handle (SlotCache::pin) or its own pin. Callers that own the layout
  // outright (tests) may pass none.
  QuorumEngine(Worker* worker, const ObjectLayout* layout, LayoutPin pin,
               Order order = Order::kLiveFirst)
      : worker_(worker), majority_(layout->majority()), pin_(std::move(pin)) {
    Contacts failed;
    for (int r = 0; r < layout->num_replicas; ++r) {
      const int node = layout->replica(r).node;
      if (worker->NodeQuorumExcluded(node)) {
        continue;  // Mid-repair: not contacted, never counted.
      }
      if (order == Order::kLiveFirst && worker->NodeKnownFailed(node)) {
        failed.Add(r);
      } else {
        contacts_.Add(r);
      }
    }
    for (int i = 0; i < failed.size; ++i) {
      contacts_.Add(failed.replica[static_cast<size_t>(i)]);
    }
  }

  const Contacts& contacts() const { return contacts_; }
  int majority() const { return majority_; }

  // The optimistic-majority phase: `make(r)` for the first `majority`
  // contacts, then — if they miss escalation_timeout — for the rest, whose
  // wave waits up to quorum_timeout (a pure grace wait when the first wave
  // already covered every contact).
  template <typename Make>
  sim::Task<QuorumVerdict> Escalate(QuorumPhase* ph, Make make) const {
    QuorumVerdict v;
    v.waves = 1;
    v.launched = std::min(majority_, contacts_.size);
    v.reached = co_await Post(ph, majority_, worker_->config().escalation_timeout, contacts_, 0,
                              v.launched, make);
    const bool fenced_out = ph->moved > 0 && contacts_.size - ph->moved < majority_;
    if (!v.reached && !worker_->EpochRefreshNeeded() && !fenced_out) {
      const int first = v.launched;
      ++v.waves;
      v.launched = contacts_.size;
      v.reached = co_await Post(ph, majority_, worker_->config().quorum_timeout, contacts_, first,
                                v.launched, make);
    }
    co_return v;
  }

  // One wave to every contact; resumes at a majority or quorum_timeout.
  template <typename Make>
  sim::Task<bool> Broadcast(QuorumPhase* ph, Make make) const {
    return Post(ph, majority_, worker_->config().quorum_timeout, contacts_, 0, contacts_.size, make);
  }

  // One wave to `to`; resumes once `ph->ok` reaches `need` or quorum_timeout.
  template <typename Make>
  sim::Task<bool> Wave(QuorumPhase* ph, int need, const Contacts& to, Make make) const {
    return Post(ph, need, worker_->config().quorum_timeout, to, 0, to.size, make);
  }

 private:
  template <typename Make>
  sim::Task<bool> Post(QuorumPhase* ph, int need, sim::Time timeout, const Contacts& to, int from,
                       int end, Make& make) const {
    ph->pin = pin_;
    {
      fabric::CpuBatch batch(worker_->cpu());
      for (int i = from; i < end; ++i) {
        sim::Spawn(make(to.replica[static_cast<size_t>(i)]));
      }
    }
    return ph->ok.WaitFor(need, timeout);
  }

  Worker* worker_;
  int majority_;
  LayoutPin pin_;
  Contacts contacts_;
};

}  // namespace swarm

#endif  // SWARM_SRC_SWARM_QUORUM_H_
