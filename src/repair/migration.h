// Elastic membership: live replica migration for node admission, drain, and
// decommission — under full traffic, for every replicated store.
//
// Crash repair (repair.h) rebuilds a replica IN PLACE after a node loses its
// DRAM. Migration MOVES a replica somewhere else while every client keeps
// operating: admit a brand-new memory node and rebalance keys onto it, or
// drain every replica off a node so it can be decommissioned. Both directions
// are the same per-key primitive run in bulk, and the split mirrors repair's:
// MigratableStore is the per-store primitive (which keys a node hosts, how
// one key's replica is grafted, fenced, copied and flipped), MigrationService
// the one lifecycle engine (arbitration, destination pick, epoch bumps, copy
// rounds, abort, the bulk flows and the counters). One key moves by
//
//   plan  — the store looks the key up and finds the replica hosted by the
//           source node; the service picks a destination (serving, not under
//           repair, and one the store's ReplicaMove::CanHost accepts),
//   graft — the store allocates the replacement replica on the destination.
//           Nothing is published yet,
//   fence — retire the vacated slot's region on the source node
//           (MemoryNode::RetireRegion). From here no stale client can commit
//           at the old slot: its verbs bounce with kMovedReplica (a no-effect
//           NACK) and the client re-resolves. Then, unless the fence covers
//           every replica, bump the membership epoch (NoteOwnershipFlip) so
//           fenced QP holders re-learn promptly,
//   copy  — harvest the key's authoritative state through the coordinator,
//           which rides the repair channel and so passes the fence, and
//           install it at the destination. Re-run in bounded rounds,
//   flip  — publish the new home iff the key is still the one planned (the
//           store's guard: index generation, FUSEE move count). A failed
//           guard — a racing delete, re-insert or move — aborts,
//   abort — restore the fence and release the destination allocation. The
//           cluster is left EXACTLY as before the attempt: same mapping, old
//           slot serving again.
//
// The quorum stores (SWARM-KV, DM-ABD; IndexMigrationSource) move one
// replica slot of an ObjectLayout: L' is built from the live layout L's
// records (GraftReplica) with the vacated slot's buffers swapped for fresh
// ones on the destination, every other slot SHARED, and the flip is IndexService::ReplaceLayout(key, G, L'),
// which retires L as MOVED (repair skips it; caches are invalidated through
// the retired-layout GC listeners). Why fencing one slot is enough: clients
// on stale L can still commit via the (num_replicas - 1) shared slots, so
// traffic is never stalled during the copy. Any majority of L that excludes
// the fenced slot is a subset of the shared slots, and every majority of L'
// contains at least one shared slot — so all pre-flip and post-flip quorums
// intersect, which is all the protocols ever needed.
//
// FUSEE (kv::FuseeStore) replicates synchronously with a primary and a
// backup index slot, so it fences and re-homes BOTH 8 B slots: with no
// commit possible after the fence, one harvest of the primary word is final,
// and every pre-flip verb bounces off a fence — no epoch bump needed.
//
// Arbitration with crash repair: a source or destination under repair is
// simply not migrated from / onto (the key is skipped this pass; bulk flows
// revisit it next round). A node crash DURING a copy fails the harvest or
// the install, and the bounded round budget turns that into a graceful
// abort. The reverse — repair walking a layout whose slot a migration just
// fenced — is benign: before the flip the layout is live and repair may
// rewrite the vacated slot through the repair channel (harmless: the fence
// keeps clients out), after the flip the layout is retired as moved and the
// repair walk skips it.
//
// One key moves at a time per service: a key already in flight (an
// admission's rebalance racing a drain over the same key) is skipped, so two
// coordinators never fence the same slot and one's abort can never lift a
// fence the other's flip made permanent.
//
// The recycler's horizon does not wait for a move, though its harvest chases
// out-of-place pointers like a reader: a move pins its source layout, which
// the retired-layout GC therefore cannot free (FUSEE's directory is never
// collected), and out-of-place buffers recycle on OopPool's own quarantine.

#ifndef SWARM_SRC_REPAIR_MIGRATION_H_
#define SWARM_SRC_REPAIR_MIGRATION_H_

#include <array>
#include <cstdint>
#include <limits>
#include <memory>
#include <unordered_set>
#include <vector>

#include "src/index/index_service.h"
#include "src/membership/membership.h"
#include "src/repair/repair.h"
#include "src/sim/task.h"
#include "src/sim/time.h"
#include "src/swarm/layout.h"
#include "src/swarm/worker.h"

namespace swarm::repair {

struct MigrationConfig {
  // Copy attempts per key before the migration aborts (fences restored).
  int max_rounds = 10;
  sim::Time round_retry_delay = 30 * sim::kMicrosecond;
};

// Per-key outcome of one migration attempt.
enum class [[nodiscard]] MigrateStatus : uint8_t {
  kMoved,          // Copied, flipped; the old slot is fenced for good.
  kSkipped,        // Key unmapped, not hosted by the source, source busy
                   // (under repair), or already moving — nothing changed.
  kNoDestination,  // No serving, non-repairing node the store can use.
  kAborted,        // Copy gave up or the flip guard failed; fences restored,
                   // cluster exactly as before.
};

// One planned replica move of one key (MigratableStore::PlanMove), driven
// phase by phase by MigrationService::MigrateKey.
class ReplicaMove {
 public:
  virtual ~ReplicaMove() = default;

  // Store-side destination filter, on top of the service's (serving, not
  // repairing): false for a node that already hosts one of the key's
  // replicas or that the store cannot use right now.
  virtual bool CanHost(int node) const = 0;
  // True when the fence covers EVERY replica of the key, so no verb issued
  // before the flip can commit anywhere and the move needs no membership
  // epoch bump. A move that fences only the vacated slot (the other slots
  // keep serving) bumps the epoch at the fence and again at an abort.
  virtual bool FencesEveryReplica() const { return false; }
  // graft: allocates the replacement replica on `dest`; publishes nothing.
  virtual void Graft(int dest) = 0;
  // fence: retires (true) or restores (false) the vacated region(s).
  virtual void SetFence(bool fenced) = 0;
  // copy: one attempt to install the key's authoritative state at the
  // destination. Re-runnable: a later round overwrites a partial install.
  virtual sim::Task<bool> Copy() = 0;
  // flip: publishes the new home iff the key is still as planned; false when
  // the guard failed (nothing published).
  virtual sim::Task<bool> Flip() = 0;
  // abort: releases the destination allocation (the fence is already
  // restored). Never called after a successful flip.
  virtual void Abandon() = 0;
};

// One mapped key and the nodes hosting its replicas, in replica order.
struct KeyPlacement {
  uint64_t key = 0;
  std::array<int, kMaxReplicas> nodes{};
  int num_replicas = 0;
};

// A store whose replicas the migration coordinator can move: the migration
// counterpart of RepairableStore.
class MigratableStore {
 public:
  virtual ~MigratableStore() = default;

  // Keys with a live replica slot on `node` inside [lo, hi) of the node's
  // address space, in a deterministic order. A key hosting two replicas on
  // the node is listed twice. The result is O(slots on the node); finding it
  // may filter the whole store on the host (IndexMigrationSource does).
  virtual std::vector<uint64_t> KeysOn(
      int node, uint64_t lo = 0, uint64_t hi = std::numeric_limits<uint64_t>::max()) const = 0;

  // Every mapped key with its replica nodes, key-sorted (admission's
  // rebalance scan).
  virtual std::vector<KeyPlacement> Placements() const = 0;

  // Plans moving `key`'s replica off `from`, reading through `worker` (the
  // coordinator). Null when there is nothing to move: the key is unmapped,
  // not hosted by `from`, or belongs to a crash repair right now.
  virtual sim::Task<std::unique_ptr<ReplicaMove>> PlanMove(uint64_t key, int from,
                                                           Worker* worker) = 0;
};

// Moves replicas of objects reachable through an IndexService (the SWARM-KV
// and DM-ABD layouts): the migration counterpart of IndexRepairSource.
class IndexMigrationSource : public MigratableStore {
 public:
  IndexMigrationSource(index::IndexService* index, LayoutProtocol protocol)
      : index_(index), protocol_(protocol) {}

  std::vector<uint64_t> KeysOn(int node, uint64_t lo, uint64_t hi) const override;
  std::vector<KeyPlacement> Placements() const override;
  sim::Task<std::unique_ptr<ReplicaMove>> PlanMove(uint64_t key, int from,
                                                   Worker* worker) override;

 private:
  index::IndexService* index_;
  LayoutProtocol protocol_;
};

// The migration coordinator. Like RepairService it owns a dedicated Worker
// whose repair-excluded set is the membership's `repairing` vector and whose
// verbs ride the repair channel (they must pass both the rejoin fence and
// the region fence this service itself plants). Run one per cluster: the
// one-move-per-key guard is the service's own.
class MigrationService {
 public:
  MigrationService(membership::MembershipService* membership, MigratableStore* store,
                   Worker* worker, MigrationConfig config = {})
      : membership_(membership), store_(store), worker_(worker), config_(config) {
    worker_->set_repair_excluded(membership_->repairing());
    worker_->MarkRepairChannel();
  }

  // Moves the key's replica off `from`. `onto` >= 0 pins the destination
  // (admission fills a node that is not serving yet); -1 picks one
  // deterministically from the serving set.
  sim::Task<MigrateStatus> MigrateKey(uint64_t key, int from, int onto = -1);

  // Extent-granularity move: migrates every key with a live replica slot in
  // the slab extent containing `addr` on `from` (the store lists them as one
  // contiguous address range). Per-slot flip fences coalesce in the node's
  // retired map into a single interval covering the vacated range. Returns
  // the number of keys moved.
  sim::Task<uint64_t> MigrateExtent(int from, uint64_t addr, int onto = -1);

  // Node admission: adds a fresh node to the fabric + membership (kJoining,
  // excluded from new placements), migrates up to `max_keys` keys onto it,
  // then marks it serving. Returns the new node id.
  sim::Task<int> AdmitAndRebalance(uint64_t max_keys);

  // Drain: marks the node draining (new placements skip it), then migrates
  // every replica it hosts elsewhere. On success the node is retired when
  // `decommission` is set, else left drained-but-present. If any key cannot
  // be moved within the round budget the drain aborts gracefully: the node
  // returns to serving and keeps its remaining replicas (the keys already
  // moved stay moved — each flip was individually complete).
  sim::Task<bool> Drain(int node, bool decommission);

  uint64_t keys_moved() const { return keys_moved_; }
  uint64_t keys_skipped() const { return keys_skipped_; }
  uint64_t keys_aborted() const { return keys_aborted_; }
  uint64_t drains_completed() const { return drains_completed_; }
  uint64_t drains_aborted() const { return drains_aborted_; }
  uint64_t nodes_admitted() const { return nodes_admitted_; }
  uint64_t extents_moved() const { return extents_moved_; }

  const MigrationConfig& config() const { return config_; }

 private:
  // Destination-pick stack buffer bound.
  static constexpr size_t kMaxNodes = 256;

  // Deterministic destination pick: serving, not repairing, and accepted by
  // the store. -1 when no node qualifies.
  int PickDestination(uint64_t key, const ReplicaMove& move) const;

  // Graft → fence → copy rounds → flip, or abort. Returns kMoved/kAborted.
  sim::Task<MigrateStatus> Move(ReplicaMove& move, int dest);

  membership::MembershipService* membership_;
  MigratableStore* store_;
  Worker* worker_;
  MigrationConfig config_;
  std::unordered_set<uint64_t> moving_;  // Keys with a move in flight.
  uint64_t keys_moved_ = 0;
  uint64_t keys_skipped_ = 0;
  uint64_t keys_aborted_ = 0;
  uint64_t drains_completed_ = 0;
  uint64_t drains_aborted_ = 0;
  uint64_t nodes_admitted_ = 0;
  uint64_t extents_moved_ = 0;
};

}  // namespace swarm::repair

#endif  // SWARM_SRC_REPAIR_MIGRATION_H_
