#include "src/repair/migration.h"

#include <memory>
#include <utility>
#include <vector>

#include "src/repair/quorum_copy.h"
#include "src/util/discard.h"

namespace swarm::repair {

namespace {

// One replica slot of an index-mapped ObjectLayout moving to a fresh slot on
// the destination: L' = L with the vacated slot's buffers replaced, every
// other slot shared with L byte-for-byte.
class LayoutMove final : public ReplicaMove {
 public:
  LayoutMove(index::IndexService* index, LayoutProtocol protocol, Worker* worker, uint64_t key,
             index::IndexEntry entry, int slot)
      : index_(index), protocol_(protocol), worker_(worker), key_(key),
        src_(std::move(entry.layout)), generation_(entry.generation), slot_(slot),
        vacated_(src_->replica(slot)) {}

  bool CanHost(int node) const override {
    for (int r = 0; r < src_->num_replicas; ++r) {
      if (src_->replica(r).node == node) {
        return false;
      }
    }
    return true;
  }

  void Graft(int dest) override { dst_ = GraftReplica(*worker_->fabric(), *src_, slot_, dest); }

  // A replica is ONE contiguous slab slot ([meta | in-place? | tsl], see
  // AllocateObject), so one interval covers it.
  void SetFence(bool fenced) override {
    fabric::MemoryNode& node = worker_->fabric()->node(vacated_.node);
    const uint64_t len = src_->replica_slot_bytes(vacated_.has_inplace());
    if (fenced) {
      node.RetireRegion(vacated_.meta_addr, len);
    } else {
      node.RestoreRegion(vacated_.meta_addr, len);
    }
  }

  sim::Task<bool> Copy() override {
    co_return co_await CopyReplica(protocol_, worker_, src_, dst_.get(), slot_);
  }

  // ReplaceLayout retires L as moved: the repair walk skips it, cache GC
  // listeners invalidate it, and the old slot's fence is PERMANENT (it
  // survives even a crash-recover of the source node — the state behind it
  // is dead).
  sim::Task<bool> Flip() override {
    co_return co_await index_->ReplaceLayout(key_, generation_, dst_, worker_->cpu()) != 0;
  }

  // The fresh destination slot was never published — no directory entry, no
  // cached Located, and the coordinator's copy verbs have all completed — so
  // it goes straight back to the slab (through its quarantine).
  void Abandon() override {
    const ReplicaLayout& fresh = dst_->replica(slot_);
    // False only when a plain restart of the destination reset its allocator
    // since Graft allocated the slot: there is nothing left to give back.
    DiscardStatus(worker_->fabric()->node(fresh.node).FreeSlot(fresh.meta_addr));
  }

 private:
  index::IndexService* index_;
  LayoutProtocol protocol_;
  Worker* worker_;
  uint64_t key_;
  LayoutPin src_;
  uint64_t generation_;
  int slot_;
  ReplicaLayout vacated_;
  LayoutPin dst_;
};

}  // namespace

std::vector<uint64_t> IndexMigrationSource::KeysOn(int node, uint64_t lo, uint64_t hi) const {
  // The node's slots in [lo, hi), address-ordered (deterministic for seed
  // replay), counting only slots of the key's CURRENT mapping: retired
  // layouts pinned by stale caches are released by the retired-layout GC,
  // not moved. Finding them filters the whole index on the host, O(store);
  // the keys returned, and the moves made, are O(slots on the node).
  std::vector<uint64_t> keys;
  index_->ForEachSlotOn(node, lo, hi, [&](const index::IndexService::SlotOn& slot) {
    if (slot.mapped) {
      keys.push_back(slot.key);
    }
  });
  return keys;
}

std::vector<KeyPlacement> IndexMigrationSource::Placements() const {
  const auto snapshot = index_->SnapshotSorted();
  std::vector<KeyPlacement> out;
  out.reserve(snapshot.size());
  for (const auto& [key, entry] : snapshot) {
    KeyPlacement p;
    p.key = key;
    p.num_replicas = entry.layout->num_replicas;
    for (int r = 0; r < p.num_replicas; ++r) {
      p.nodes[static_cast<size_t>(r)] = entry.layout->replica(r).node;
    }
    out.push_back(p);
  }
  return out;
}

sim::Task<std::unique_ptr<ReplicaMove>> IndexMigrationSource::PlanMove(uint64_t key, int from,
                                                                       Worker* worker) {
  auto idx = co_await index_->Lookup(key, worker->cpu());
  if (!idx.has_value()) {
    co_return nullptr;
  }
  for (int r = 0; r < idx->layout->num_replicas; ++r) {
    if (idx->layout->replica(r).node == from) {
      co_return std::make_unique<LayoutMove>(index_, protocol_, worker, key, std::move(*idx), r);
    }
  }
  co_return nullptr;  // Already elsewhere (or a racing move beat us).
}

int MigrationService::PickDestination(uint64_t key, const ReplicaMove& move) const {
  // Stack buffer: the pick runs per migrated key inside bulk flows and must
  // not allocate (the zero-alloc guard covers the chaos hot loops).
  int candidates[kMaxNodes];
  size_t num_candidates = 0;
  const int n = worker_->fabric()->num_nodes();
  for (int i = 0; i < n && num_candidates < kMaxNodes; ++i) {
    if (membership_->IsServing(i) && !membership_->IsRepairing(i) && move.CanHost(i)) {
      candidates[num_candidates++] = i;
    }
  }
  if (num_candidates == 0) {
    return -1;
  }
  const uint64_t h = key * 0x9E3779B97F4A7C15ull;
  return candidates[h % num_candidates];
}

sim::Task<MigrateStatus> MigrationService::MigrateKey(uint64_t key, int from, int onto) {
  // --- plan ---------------------------------------------------------------
  // A source under repair is the repair's to arbitrate: its slots are being
  // rebuilt in place and the node is quorum-excluded, so a concurrent move
  // would harvest around it anyway only to fight the rebuild. Skip; bulk
  // flows revisit the key after the repair readmits. A key another flow of
  // this service is already moving is skipped the same way.
  if (membership_->IsRepairing(from) || !moving_.insert(key).second) {
    ++keys_skipped_;
    co_return MigrateStatus::kSkipped;
  }
  MigrateStatus status = MigrateStatus::kSkipped;
  std::unique_ptr<ReplicaMove> move = co_await store_->PlanMove(key, from, worker_);
  if (move == nullptr) {
    ++keys_skipped_;
  } else {
    const int dest = onto >= 0 ? onto : PickDestination(key, *move);
    if (dest < 0 || dest == from || membership_->IsRepairing(dest) || !move->CanHost(dest)) {
      status = MigrateStatus::kNoDestination;
    } else {
      status = co_await Move(*move, dest);
    }
  }
  moving_.erase(key);
  co_return status;
}

sim::Task<MigrateStatus> MigrationService::Move(ReplicaMove& move, int dest) {
  // --- graft + fence + epoch bump -----------------------------------------
  move.Graft(dest);
  const bool fenced = !worker_->fabric()->config().canaries.unfenced_flip;
  const bool bump_epoch = !move.FencesEveryReplica();
  if (fenced) {
    move.SetFence(true);
  }
  if (bump_epoch) {
    membership_->NoteOwnershipFlip();
  }

  // --- copy ---------------------------------------------------------------
  bool copied = false;
  for (int round = 0; round < config_.max_rounds && !copied; ++round) {
    if (round > 0) {
      co_await worker_->sim()->Delay(config_.round_retry_delay);
    }
    copied = co_await move.Copy();
  }

  // --- flip ---------------------------------------------------------------
  bool flipped = false;
  if (copied) {
    flipped = co_await move.Flip();
  }
  if (flipped) {
    ++keys_moved_;
    co_return MigrateStatus::kMoved;
  }

  // --- abort --------------------------------------------------------------
  // Copy gave up (no surviving source within budget) or the flip guard
  // failed (racing delete / re-insert). Restore the fences and abandon the
  // destination: the cluster is exactly as before the attempt.
  if (fenced) {
    move.SetFence(false);
  }
  move.Abandon();
  if (bump_epoch) {
    membership_->NoteOwnershipFlip();  // Un-fenced: stale holders re-learn again.
  }
  ++keys_aborted_;
  co_return MigrateStatus::kAborted;
}

sim::Task<uint64_t> MigrationService::MigrateExtent(int from, uint64_t addr, int onto) {
  // --- plan: the extent's keys --------------------------------------------
  // One slab extent holds same-sized replica slots back to back, so an
  // extent's live keys are exactly the store's keys in its address range.
  const auto* ext = worker_->fabric()->node(from).SlotExtentOf(addr);
  if (ext == nullptr) {
    co_return 0;
  }
  const std::vector<uint64_t> keys = store_->KeysOn(from, ext->base, ext->base + ext->bytes);
  // --- fence + copy + flip, one slot at a time ----------------------------
  // Each flip plants its own slot fence; the retired map COALESCES adjacent
  // slots, so as the extent empties the fences merge into a single interval
  // covering the vacated range — admission checks stay O(log intervals) no
  // matter how many slots moved. Per-slot (rather than one up-front
  // extent-wide) fencing keeps the extent's still-free slots allocatable and
  // each aborted key's slot serving, with no fence fragments to reconcile.
  uint64_t moved = 0;
  for (uint64_t key : keys) {
    if (co_await MigrateKey(key, from, onto) == MigrateStatus::kMoved) {
      ++moved;
    }
  }
  if (moved > 0) {
    ++extents_moved_;
  }
  co_return moved;
}

sim::Task<int> MigrationService::AdmitAndRebalance(uint64_t max_keys) {
  const int node = membership_->AdmitNode();
  if (node < 0) {
    co_return -1;  // Fabric at its lifetime bound; nothing changed.
  }
  ++nodes_admitted_;
  // The node is kJoining: new placements skip it, clients know its epoch.
  // Fill it by pulling keys over — destination pinned, source picked per key
  // as the replica the key hashes to, spreading the unload evenly.
  uint64_t moved = 0;
  const std::vector<KeyPlacement> placements = store_->Placements();
  for (const KeyPlacement& p : placements) {
    if (moved >= max_keys) {
      break;
    }
    bool hosts = false;
    for (int r = 0; r < p.num_replicas; ++r) {
      hosts = hosts || p.nodes[static_cast<size_t>(r)] == node;
    }
    if (hosts) {
      continue;
    }
    const int from = p.nodes[p.key % static_cast<uint64_t>(p.num_replicas)];
    if (co_await MigrateKey(p.key, from, node) == MigrateStatus::kMoved) {
      ++moved;
    }
  }
  membership_->CompleteJoin(node);
  co_return node;
}

sim::Task<bool> MigrationService::Drain(int node, bool decommission) {
  membership_->BeginDrain(node);
  bool clean = false;
  for (int round = 0; round < config_.max_rounds && !clean; ++round) {
    if (round > 0) {
      co_await worker_->sim()->Delay(config_.round_retry_delay);
    }
    clean = true;
    // Snapshot the node's live keys — O(slots on the node) of them,
    // deterministic for seed replay — so the moves touch only this node's
    // keys. A key hosting two replicas here is listed twice; the second
    // MigrateKey simply moves the second replica.
    const std::vector<uint64_t> keys = store_->KeysOn(node);
    for (uint64_t key : keys) {
      const MigrateStatus st = co_await MigrateKey(key, node, -1);
      clean = clean && (st == MigrateStatus::kMoved || st == MigrateStatus::kSkipped);
    }
    // Keys placed after the snapshot went to the serving set, which has
    // excluded `node` since BeginDrain — but a key skipped above (its source
    // was mid-repair, or it was already moving) may still live here.
    clean = clean && store_->KeysOn(node).empty();
  }
  if (clean) {
    if (decommission) {
      membership_->Decommission(node);
    }
    ++drains_completed_;
    co_return true;
  }
  // Graceful abort: the node returns to serving with whatever replicas it
  // still hosts. Keys already moved stay moved — each flip was individually
  // complete, so no state is half-transferred.
  membership_->CompleteJoin(node);
  ++drains_aborted_;
  co_return false;
}

}  // namespace swarm::repair
