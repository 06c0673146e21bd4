// Reliable index service (§5.1/§5.2).
//
// SWARM-KV needs "a fast index ... which can run on traditional servers and
// [is] fault-tolerant", reachable in one roundtrip, mapping keys to the
// locations of their replicas. SWARM-KV is oblivious to the index's
// implementation (the paper reuses FUSEE's resizable index hardened to strong
// consistency), so we model it as a linearizable map service with
// fabric-like access latency: every operation costs one client submission
// plus a network roundtrip.
//
// Sharding models server occupancy and nothing else. The keyspace splits
// across shards by consistent hash of the key (ShardRouter), and an optional
// per-shard service time (set_shard_service_time) makes each shard's server
// serialize the ops on its own keys, FIFO — N shards give N-way service
// parallelism, which is what lets lookup/insert/retire throughput scale past
// one server. The records themselves live in one map and one retired list:
// which shard owns a key changes when its op is served, nothing else.
//
// The service's own records also say which replica slots sit on a node
// (ForEachSlotOn): a mapped layout owns every replica slot it lists, and a
// retired layout owns the slots marked in its record — all of them after a
// remove or a lost insert race, only the vacated one (marked moved) after a
// migration flip, whose replacement shares the others. The retired-layout GC
// frees a dropped layout's owned slots back to the node allocators, lifting
// the migration fences that protected them. Repair and drain walk these
// records: the walk filters the whole store on the host (O(store)), while
// the repair or move work per slot stays O(slots-on-node).
//
// Entries carry a generation number so that a delete's background unmap
// (§5.3.2) cannot erase a newer mapping racing in from a re-insert.

#ifndef SWARM_SRC_INDEX_INDEX_SERVICE_H_
#define SWARM_SRC_INDEX_INDEX_SERVICE_H_

#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <optional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/fabric/fabric.h"
#include "src/index/shard_router.h"
#include "src/sim/simulator.h"
#include "src/sim/task.h"
#include "src/swarm/layout.h"

namespace swarm::index {

struct IndexEntry {
  std::shared_ptr<const ObjectLayout> layout;
  uint64_t generation = 0;
};

struct IndexStats {
  uint64_t lookups = 0;
  uint64_t inserts = 0;
  uint64_t removes = 0;
};

class IndexService {
 public:
  // With `fabric` set, index RPCs ride the chaos fault hooks on the fabric's
  // dedicated index link (Fabric::index_link()): delay spikes stretch each
  // leg and drop bursts trigger RPC retransmissions (the transport is
  // reliable, so a drop costs a retransmission timeout rather than losing
  // the operation — but the fault windows it opens between the data path and
  // the index are real). Null keeps the service fault-free. `shards` > 1
  // splits the keyspace across shard servers (consistent hash).
  // The default RPC timings equal FabricConfig's verb defaults.
  static constexpr sim::Time kOneWayDelay = 680;
  static constexpr sim::Time kJitter = 90;
  static constexpr sim::Time kSubmitCost = 200;

  IndexService(sim::Simulator* sim, fabric::Fabric* fabric = nullptr,
               sim::Time one_way_delay = kOneWayDelay, sim::Time jitter = kJitter,
               sim::Time submit_cost = kSubmitCost, int shards = 1)
      : sim_(sim), fabric_(fabric), one_way_(one_way_delay), jitter_(jitter),
        submit_cost_(submit_cost), router_(shards),
        busy_until_(static_cast<size_t>(router_.shards()), 0) {}

  // One-roundtrip lookup. nullopt = key not mapped.
  sim::Task<std::optional<IndexEntry>> Lookup(uint64_t key, fabric::ClientCpu* cpu);

  // Insert-if-absent (§5.3.1). Returns {true, entry-as-inserted} on success,
  // or {false, existing entry} when a mapping already exists (the caller then
  // recycles its buffers and turns the insert into an update).
  sim::Task<std::pair<bool, IndexEntry>> InsertIfAbsent(
      uint64_t key, std::shared_ptr<const ObjectLayout> layout, fabric::ClientCpu* cpu);

  // Removes the mapping only if its generation still matches (used by the
  // background unmap after a delete). Returns true if removed.
  sim::Task<bool> RemoveIfGeneration(uint64_t key, uint64_t generation, fabric::ClientCpu* cpu);

  // The migration flip's index half: atomically swaps the key's layout for
  // `layout` (the destination replica set) iff the mapping still exists at
  // `expected_generation`, bumping the generation so every cached Located
  // goes stale. Returns the new generation, or 0 when the guard failed (a
  // concurrent delete unmapped the key, or a racing re-insert replaced it) —
  // the migration then aborts and the destination copy is abandoned. The old
  // layout enters the retired list as MOVED: still referenceable by stale
  // caches (so GC keeps it quarantined), and owning only the slots the
  // replacement does not share — the vacated ones, fenced on their source
  // nodes, which repair must NOT restore.
  sim::Task<uint64_t> ReplaceLayout(uint64_t key, uint64_t expected_generation,
                                    std::shared_ptr<const ObjectLayout> layout,
                                    fabric::ClientCpu* cpu);

  // Keeps a layout alive after its mapping is removed: background straggler
  // tasks (verified promotions, write-backs) and stale-cached clients may
  // still reference it, so repair must keep restoring it. Retirement is
  // coupled to the memory recycler's epochs (set_retirement_horizon): each
  // entry is tagged with the recycler epoch current at retirement, and once
  // the safe horizon passes it the layout is dropped for good.
  //
  // This overload retires an insert loser, a layout that never got a
  // mapping: its record owns every replica slot, so the GC frees them all.
  void Retire(std::shared_ptr<const ObjectLayout> layout) {
    RetireOwned(std::move(layout), kAllReplicas, /*moved=*/false);
  }

  // One unmapped-but-still-referenceable layout: the recycler epoch that was
  // current at its retirement bounds which clients can still reference it.
  struct RetiredLayout {
    std::shared_ptr<const ObjectLayout> layout;
    uint64_t epoch = 0;
    bool caches_notified = false;  // §4.5 drop message sent (GC listeners ran).
    // Migrated away: the owned slots are fenced on their nodes
    // (kMovedReplica) and the replacement layout holds the authoritative
    // state, so repair must not restore them.
    bool moved = false;
    // Bit r set: replica r's slot belongs to this record, which frees it on
    // drop. All replicas for a remove or an insert loser; for a migration
    // flip only the slots the replacement does not share.
    uint8_t owned = 0;
  };

  // Retired layouts still inside the recycler's safe horizon, in retirement
  // order.
  const std::vector<RetiredLayout>& retired() const { return retired_; }

  // Couples retirement to the recycler (§4.5): `current_epoch` tags new
  // retirements, `safe_before` is Recycler::SafeReclaimBefore. SAFETY of the
  // drop — a repair stops restoring a dropped layout, so a stale reader that
  // could still reach it might pair wiped replicas into a bogus quorum — so
  // a layout is only dropped once NOTHING can reference it again:
  //   1. the safe horizon passed its retire epoch (every live client
  //      acknowledged draining accesses from before the retirement; clients
  //      that never acknowledged are sticky-fenced),
  //   2. the GC listeners ran (§4.5's "stop accessing the to-be-recycled
  //      buffers" message: client LOCATION CACHES drop their entries for the
  //      layout — the model must enforce the premise the ack claims), and
  //   3. no in-flight operation or straggler still holds the layout (its
  //      shared_ptr use-count has fallen to the retired list's own
  //      reference) — a long-stuck op that located the key before the round
  //      keeps the layout repairable until it completes, and a straggler
  //      coroutine (a per-replica task or a background promotion that
  //      outlived its op) holds a LayoutPin until it is done.
  void set_retirement_horizon(std::function<uint64_t()> current_epoch,
                              std::function<uint64_t()> safe_before) {
    retire_epoch_fn_ = std::move(current_epoch);
    safe_before_fn_ = std::move(safe_before);
  }

  // Registers a §4.5 drop listener, called for each layout the GC is about
  // to drop (chaos harnesses wire every client cache's InvalidateLayout).
  void add_gc_listener(std::function<void(const std::shared_ptr<const ObjectLayout>&)> fn) {
    gc_listeners_.push_back(std::move(fn));
  }

  // Drops retired layouts the safe horizon has passed; returns how many were
  // dropped. Called opportunistically on Retire and by the repair walk.
  //
  // Dropping a layout frees the slots its record owns, in replica order: the
  // node-side fences over vacated (moved) slots are lifted and the slots go
  // back to the slab allocator (through its quarantine). Slots a migration
  // flip's replacement shares are not freed: the replacement owns them.
  // Then the layout itself is freed, with every writer's slot-cache words:
  // the use-count gate saw no other holder, and every coroutine that can
  // still dereference a layout holds a share in it (LayoutPin,
  // src/swarm/layout.h), so nothing can reach the freed object.
  size_t GcRetired();

  uint64_t retired_dropped() const { return retired_dropped_; }

  // Direct (zero-roundtrip) inspection, used by the benchmark harness to
  // pre-warm client caches as an infinitely long warm-up phase would.
  const IndexEntry* Peek(uint64_t key) const {
    auto it = map_.find(key);
    return it == map_.end() ? nullptr : &it->second;
  }

  const IndexStats& stats() const { return stats_; }
  size_t size() const { return map_.size(); }

  // Models the per-shard server occupancy: every op holds its shard for
  // `t` ns of service time (FIFO). 0 (default) = infinitely fast servers,
  // the pre-sharding behavior. With it, N shards give N-way parallelism —
  // the scalability the fig8 key-count axis measures.
  void set_shard_service_time(sim::Time t) { service_time_ = t; }

  // One replica slot on a node that the index's records own.
  struct SlotOn {
    uint64_t addr = 0;
    // The owning record's pin (the index entry's or the retired record's):
    // copy it to keep the layout alive after the walk.
    const std::shared_ptr<const ObjectLayout>* layout = nullptr;
    uint64_t key = 0;      // Set for mapped slots; retired records keep no key.
    int replica = 0;       // Index into (*layout)->replicas.
    bool mapped = false;   // Owned by the key's current mapping.
    bool moved = false;    // Vacated by a migration flip: never restore.
  };

  // The owned slots on `node` inside [lo, hi), in address order
  // (deterministic for seed replay): every slot of each mapped layout, and
  // the owned slots of each retired layout — deleted layouts pinned by stale
  // caches, and migration-vacated slots (`moved`). fn(const SlotOn&); fn
  // must not mutate the index.
  //
  // The walk filters every mapped and retired record on the host, O(store),
  // and sorts only the slots in range. One address owned twice aborts: the
  // records hold each slot once, unless a plain restart
  // (MemoryNode::Recover() without preserved reservations) handed an address
  // a layout still lists to a new one. Plain restarts are outside this
  // model: workers' out-of-place chunks from before the reset already
  // overlap the reset allocator's new allocations there.
  template <typename Fn>
  void ForEachSlotOn(int node, uint64_t lo, uint64_t hi, Fn&& fn) const {
    for (const SlotOn& slot : SortedSlotsOn(node, lo, hi)) {
      fn(slot);
    }
  }
  template <typename Fn>
  void ForEachSlotOn(int node, Fn&& fn) const {
    ForEachSlotOn(node, 0, std::numeric_limits<uint64_t>::max(), std::forward<Fn>(fn));
  }

  // Deterministic (key-sorted) snapshot of the live mappings — admission
  // rebalancing scans this; repair walks ForEachSlotOn.
  // Entries inserted after the snapshot need no repair: their writes
  // quorum-excluded the recovering node, so any future majority intersects
  // the replicas that did ack.
  std::vector<std::pair<uint64_t, IndexEntry>> SnapshotSorted() const;

  // Approximate per-key memory footprint on the index servers (24 B location
  // record, as §5.2), for the resource accounting of Table 3.
  uint64_t ModeledBytes() const { return size() * 24; }

 private:
  // One network roundtrip to the index server, including client submission.
  // The request leg completes before the caller's map access; the response
  // leg after it — so chaos faults can delay a mutation's acknowledgement
  // past the instant the mapping became visible to other clients.
  sim::Task<void> Roundtrip(fabric::ClientCpu* cpu);
  sim::Task<void> Leg(bool response);
  // FIFO occupancy of one shard's server (no-op when service_time_ == 0).
  sim::Task<void> Occupy(int shard);

  static constexpr uint8_t kAllReplicas = 0xff;
  static_assert(kMaxReplicas <= 8, "RetiredLayout::owned holds one bit per replica");

  void RetireOwned(std::shared_ptr<const ObjectLayout> layout, uint8_t owned, bool moved) {
    retired_.push_back(
        {std::move(layout), retire_epoch_fn_ ? retire_epoch_fn_() : 0, false, moved, owned});
    GcRetired();  // Opportunistic: churn keeps the list bounded by itself.
  }

  std::vector<SlotOn> SortedSlotsOn(int node, uint64_t lo, uint64_t hi) const;

  sim::Simulator* sim_;
  fabric::Fabric* fabric_;
  sim::Time one_way_;
  sim::Time jitter_;
  sim::Time submit_cost_;
  sim::Time service_time_ = 0;
  uint64_t next_generation_ = 1;
  ShardRouter router_;
  std::vector<sim::Time> busy_until_;  // Per shard: when its server frees up.
  std::unordered_map<uint64_t, IndexEntry> map_;
  std::vector<RetiredLayout> retired_;
  std::function<uint64_t()> retire_epoch_fn_;
  std::function<uint64_t()> safe_before_fn_;
  std::vector<std::function<void(const std::shared_ptr<const ObjectLayout>&)>> gc_listeners_;
  uint64_t retired_dropped_ = 0;
  IndexStats stats_;
};

}  // namespace swarm::index

#endif  // SWARM_SRC_INDEX_INDEX_SERVICE_H_
