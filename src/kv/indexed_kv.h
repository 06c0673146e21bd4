// The index-backed key-value session engine shared by SWARM-KV (§5) and the
// DM-ABD baseline (§7).
//
// Both stores are the same key-value layer — an index service mapping keys
// to replica locations, a client-side location cache, and §5.3's insert /
// tombstone / unmap rules — run over a different replicated register, so
// the paper's comparisons (Figs. 5–13, Table 2) isolate the replication
// protocol. IndexedKvSession<Protocol> is that layer; a Protocol traits
// struct holds exactly what differs:
//
//   Object                     the register bound to one layout (Write,
//                              Delete and Read returning Sg*Result),
//   kPlacementSalt             AllocateForKey's replica-placement hash salt,
//   Allocate(fabric, nodes, cfg)  a fresh object's layout shape,
//   kSeedMetadataOnUpdateMiss  an update's cache miss also reads the latest
//                              metadata buffers (§7.1, In-n-Out only),
//   kTombstoneBounceMayApply   an update that bounced off a tombstone may
//                              still have taken effect (KvResult::ambiguous).

#ifndef SWARM_SRC_KV_INDEXED_KV_H_
#define SWARM_SRC_KV_INDEXED_KV_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "src/index/client_cache.h"
#include "src/index/index_service.h"
#include "src/kv/kv_types.h"
#include "src/swarm/abd.h"
#include "src/swarm/safe_guess.h"
#include "src/swarm/worker.h"

namespace swarm::kv {

// SWARM-KV: Safe-Guess over In-n-Out max registers (K metadata buffers, W
// timestamp locks, in-place value copies).
struct SafeGuessProtocol {
  using Object = SafeGuessObject;
  static constexpr uint64_t kPlacementSalt = 0x535741524d;  // "SWARM"
  static LayoutPin Allocate(fabric::Fabric& fabric, const int* nodes, const ProtocolConfig& cfg) {
    return AllocateObject(fabric, nodes, cfg.replicas, cfg.meta_slots, cfg.max_writers,
                          cfg.max_value, cfg.inplace_copies);
  }
  // §7.1: updates on a cache miss pay 2 extra roundtrips (index + latest
  // metadata buffer), seeding the In-n-Out slot caches for the
  // one-roundtrip CAS-max.
  static constexpr bool kSeedMetadataOnUpdateMiss = true;
  // A Safe-Guess write INSTALLS its guessed word before it can observe a
  // tombstone, and a reader that had already fetched metadata may commit it.
  static constexpr bool kTombstoneBounceMayApply = true;
};

// DM-ABD: classic ABD with pure out-of-place updates.
struct AbdProtocol {
  using Object = AbdObject;
  static constexpr uint64_t kPlacementSalt = 0x414244;  // "ABD"
  // One shared metadata word, no in-place region: pure out-of-place ABD.
  static LayoutPin Allocate(fabric::Fabric& fabric, const int* nodes, const ProtocolConfig& cfg) {
    return AllocateObject(fabric, nodes, cfg.replicas, /*meta_slots=*/1, /*max_writers=*/1,
                          cfg.max_value, /*inplace_copies=*/0);
  }
  static constexpr bool kSeedMetadataOnUpdateMiss = false;
  // ABD meets a tombstone in phase 1, while no metadata word points at its
  // out-of-place buffers yet: a bounced update took no effect.
  static constexpr bool kTombstoneBounceMayApply = false;
};

template <typename Protocol>
class IndexedKvSession : public KvSession {
 public:
  // `cache` is shared among all sessions of one client process.
  IndexedKvSession(Worker* worker, index::IndexService* index, index::ClientCache* cache)
      : worker_(worker), index_(index), cache_(cache) {}

  sim::Task<KvResult> Get(uint64_t key) override;
  sim::Task<KvResult> Update(uint64_t key, std::span<const uint8_t> value) override;
  sim::Task<KvResult> Insert(uint64_t key, std::span<const uint8_t> value) override;
  sim::Task<KvResult> Remove(uint64_t key) override;

  // Placement filter for fresh inserts: only nodes marked serving receive new
  // extents (MembershipService::serving()). Unset = place on all nodes.
  void set_serving(std::shared_ptr<const std::vector<bool>> serving) {
    serving_ = std::move(serving);
  }

 private:
  // A self-contained copy of a key's location (safe across co_awaits even if
  // the shared cache evicts the entry meanwhile).
  struct Located {
    bool found = false;
    LayoutPin layout;
    SlotCache obj_cache;  // Also pins `layout` for the op's stragglers.
    uint64_t generation = 0;
  };

  // The location of `layout` at `generation`, with this worker's slot cache.
  Located At(LayoutPin layout, uint64_t generation);
  // Publishes `loc` to the shared client cache.
  void Cache(uint64_t key, const Located& loc);

  // Resolves a key's location, falling back to the index (+1 RT).
  // `seed_metadata`: additionally performs the weak metadata read that
  // updates In-n-Out slot caches (Protocol::kSeedMetadataOnUpdateMiss).
  sim::Task<Located> Locate(uint64_t key, bool seed_metadata, KvResult* result);

  // Picks replica nodes for a fresh insert by key hash.
  LayoutPin AllocateForKey(uint64_t key);

  // Handles a read/write that discovered a tombstone: flush the cache, ask
  // the index, and schedule the stale mapping's unmap (§5.3.3/§5.3.4).
  sim::Task<Located> HandleDeleted(uint64_t key, uint64_t stale_generation, KvResult* result);

  // Handles an op that bounced off a migration fence (SgStatus::kMoved):
  // flush the cache and chase the index until the ownership flip commits
  // under a new generation (or the fence lifts after an abort). Unlike
  // HandleDeleted this never unmaps the entry — the key is alive, in transit.
  sim::Task<Located> HandleMoved(uint64_t key, uint64_t stale_generation, KvResult* result);

  Worker* worker_;
  index::IndexService* index_;
  index::ClientCache* cache_;
  std::shared_ptr<const std::vector<bool>> serving_;
};

extern template class IndexedKvSession<SafeGuessProtocol>;
extern template class IndexedKvSession<AbdProtocol>;

// Best-effort background unmap of a tombstoned mapping (§5.3.2), shared by
// every index-backed store: the generation guard makes a lost or duplicated
// attempt harmless (a newer mapping wins).
sim::Task<void> UnmapLater(index::IndexService* index, uint64_t key, uint64_t generation);

}  // namespace swarm::kv

#endif  // SWARM_SRC_KV_INDEXED_KV_H_
