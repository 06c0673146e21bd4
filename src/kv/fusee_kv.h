// FUSEE baseline (§7, "Baselines"; Shen et al., FAST '23): a fully
// memory-disaggregated key-value store with a synchronous replication
// scheme, re-implemented as a roundtrip-faithful model on our fabric.
//
// Characteristics reproduced from the paper's description and Table 2:
//  * 2 replicas tolerate 1 failure (synchronous replication needs only f+1).
//  * updates are out-of-place and take 4 roundtrips (write blocks to both
//    replicas; CAS the primary index slot; update backup slot + invalidate
//    the old block; commit), 5 on CAS conflicts (hot keys).
//  * gets take 1 roundtrip when the client's cached block location is
//    fresh; keys recently modified by other clients cost a second roundtrip
//    (the old block forwards to the index/new block). Uncached gets read
//    the on-node index slot first: 2 roundtrips.
//  * a memory-node failure stops progress until a multi-phase recovery
//    (log scanning, state transfer, role changes) completes — tens of
//    milliseconds (§7.7), vs. SWARM-KV's no-downtime failover.

#ifndef SWARM_SRC_KV_FUSEE_KV_H_
#define SWARM_SRC_KV_FUSEE_KV_H_

#include <memory>
#include <set>
#include <unordered_map>
#include <vector>

#include "src/index/client_cache.h"
#include "src/kv/kv_types.h"
#include "src/repair/migration.h"
#include "src/repair/repair.h"
#include "src/swarm/worker.h"

namespace swarm::kv {

// State shared by every FUSEE client: key directory (bucket addresses are
// computable from key hashes in real FUSEE, so lookups cost no roundtrip),
// and the recovery state machine.
//
// As a RepairableStore, FUSEE's crash-recover repair is the paper's
// log-scan recovery made index-guided: the directory names every index slot
// and block the recovered node hosted, and each is rebuilt from the
// surviving replica. All client progress blocks while a repair runs —
// FUSEE's synchronous-replication recovery semantics (§7.7) — and the node
// resumes its roles only when the repair completed. As a MigratableStore it
// moves through the same MigrationService lifecycle as the quorum stores.
//
// The per-node tables (failed roles, the inverse key registry, each
// session's log slots) span the fabric's node-id space, Fabric::max_nodes(),
// from construction: a node admitted later is indexed like any other.
class FuseeStore : public repair::RepairableStore, public repair::MigratableStore {
 public:
  FuseeStore(fabric::Fabric* fabric, sim::Time recovery_duration = 40 * sim::kMillisecond)
      : fabric_(fabric), recovery_duration_(recovery_duration),
        failed_nodes_(static_cast<size_t>(fabric->max_nodes()), false),
        node_keys_(static_cast<size_t>(fabric->max_nodes())) {}

  struct KeyMeta {
    int primary = -1;
    int backup = -1;
    uint64_t index_addr_primary = 0;  // 8 B index slot on the primary node.
    uint64_t index_addr_backup = 0;
    // Bookkeeping stand-in for FUSEE's log-based GC: the backup-side block of
    // the current version, recycled when the next update supersedes it.
    uint32_t last_backup_oop = 0;
    // Bumped by every migration flip. Sessions snapshot it per attempt: GC
    // bookkeeping observed across a flip must be skipped — the fields now
    // describe the NEW home, and "freeing the superseded backup block" would
    // free the migration's live copy.
    uint64_t moves = 0;
  };

  fabric::Fabric* fabric() { return fabric_; }
  sim::Time recovery_duration() const { return recovery_duration_; }

  // Finds or creates the per-key metadata (bucket allocation). New keys are
  // placed on the serving set (set_serving); hot-added or draining nodes
  // receive no new keys.
  KeyMeta& MetaFor(uint64_t key);

  // Which nodes receive NEW key placements (membership's `serving` vector).
  // Unset = every fabric node, the pre-elasticity behavior.
  void set_serving(std::shared_ptr<const std::vector<bool>> serving) {
    serving_ = std::move(serving);
  }

  // --- Live migration (src/repair/migration.h: MigrationService drives) ---
  //
  // A move re-homes BOTH index slots to freshly allocated ones (the
  // surviving role keeps its node but still gets a new slot address): the
  // fence retires both old 8 B slots (MemoryNode::RetireRegion) so no client
  // CAS can commit any more, the copy harvests the primary slot's word once
  // through the coordinator (which rides the repair channel, passing the
  // fence) — final, because post-fence commits are impossible — and installs
  // fresh block copies + words at the new home, and the flip rewrites the
  // directory entry in place. Block regions are never fenced: a block is
  // unreachable without an index word, and generation checks make recycling
  // safe. Keys are listed from the inverse registry below, so drains and
  // extent moves stay O(keys-on-node).
  std::vector<uint64_t> KeysOn(int node, uint64_t lo, uint64_t hi) const override;
  std::vector<repair::KeyPlacement> Placements() const override;
  // Null (nothing to move) when the key was never placed, is not hosted by
  // `from`, or belongs to the recovery path: the store is recovering, or
  // either home failed or is mid-repair.
  sim::Task<std::unique_ptr<repair::ReplicaMove>> PlanMove(uint64_t key, int from,
                                                           Worker* worker) override;

  // --- Recovery state machine (§7.7) ---
  bool InRecovery() const {
    return fabric_->sim()->Now() < recovering_until_ || repairing_ > 0;
  }
  sim::Time recovering_until() const { return recovering_until_; }
  void StartRecovery(int failed_node);
  bool NodeFailed(int node) const { return failed_nodes_[static_cast<size_t>(node)]; }

  // --- Crash-recover repair (src/repair/repair.h) ---
  sim::Task<repair::RepairOutcome> RepairNode(int node, Worker* worker) override;
  void OnRepairBegin(int node) override {
    (void)node;
    ++repairing_;  // Synchronous replication: all progress stops. Counted,
                   // not a flag: concurrent repairs of DIFFERENT nodes
                   // (max_crashed > 1) must each hold the gate.
  }
  void OnRepairComplete(int node, bool readmitted) override {
    --repairing_;
    if (readmitted) {
      failed_nodes_[static_cast<size_t>(node)] = false;  // Roles restored.
    }
  }

  uint64_t NextGeneration() { return next_gen_++; }

 private:
  class KeyMove;  // One key's two-slot re-homing (fusee_kv.cc).

  void RegisterKey(uint64_t key, int primary, int backup);
  void ReplaceHome(uint64_t key, int old_primary, int old_backup, int new_primary, int new_backup);
  fabric::Fabric* fabric_;
  sim::Time recovery_duration_;
  sim::Time recovering_until_ = 0;
  int repairing_ = 0;
  std::vector<bool> failed_nodes_;
  uint64_t next_gen_ = 1;
  std::shared_ptr<const std::vector<bool>> serving_;
  std::unordered_map<uint64_t, KeyMeta> directory_;
  // Inverse placement registry: the ordered key set each node hosts (as
  // primary or backup). Repair and migration walk THIS — O(keys-on-node),
  // not O(directory) — and migration flips keep it current.
  std::vector<std::set<uint64_t>> node_keys_;
};

class FuseeKvSession : public KvSession {
 public:
  FuseeKvSession(Worker* worker, FuseeStore* store, index::ClientCache* cache)
      : worker_(worker), store_(store), cache_(cache),
        log_slots_(static_cast<size_t>(worker->fabric()->max_nodes()), 0) {}

  sim::Task<KvResult> Get(uint64_t key) override;
  sim::Task<KvResult> Update(uint64_t key, std::span<const uint8_t> value) override;
  sim::Task<KvResult> Insert(uint64_t key, std::span<const uint8_t> value) override;
  sim::Task<KvResult> Remove(uint64_t key) override;

 private:
  // Blocks until any ongoing recovery completes; returns false if the key is
  // wholly unavailable (both replicas failed).
  sim::Task<bool> AwaitUsable(const FuseeStore::KeyMeta& meta);

  // The node currently serving a key's index + primary blocks.
  int ActingPrimary(const FuseeStore::KeyMeta& meta) const;

  // Reacts to a failed fabric op: kicks off recovery.
  sim::Task<void> OnNodeFailure(int node);

  // A commit-critical backup-slot write bounced off a migration fence AFTER
  // the primary commit. Re-posts it until it lands (the move aborted and
  // lifted the fence) or the key's home flipped (`meta.moves` moved on: the
  // harvest carried the commit to both new slots). A result still
  // kMovedReplica with an unchanged `meta.moves` means the wait ran out.
  sim::Task<fabric::OpResult> WriteBackupThroughMove(const FuseeStore::KeyMeta& meta,
                                                     uint64_t moves_at_start, int backup_node,
                                                     uint64_t backup_slot,
                                                     std::span<const uint8_t> word);

  sim::Task<KvResult> WriteInternal(uint64_t key, std::span<const uint8_t> value, bool expect_new);

  // The per-node commit-log slot this session reuses (FUSEE's log is
  // circular; one slot models its tail), allocated on first use.
  uint32_t LogSlot(int node);

  Worker* worker_;
  FuseeStore* store_;
  index::ClientCache* cache_;
  std::vector<uint32_t> log_slots_;
};

}  // namespace swarm::kv

#endif  // SWARM_SRC_KV_FUSEE_KV_H_
