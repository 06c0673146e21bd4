// Extent + slab allocation for memory-node server memory.
//
// ExtentAllocator owns one contiguous byte range [base, limit) of a memory
// node and hands out variable-size extents by best-fit search over a
// coalescing FreeMap. Freed extents pass through a VIRTUAL-TIME quarantine
// before becoming allocatable again: the simulation's straggler lifetimes
// (retry budgets, chaos delay spikes, in-flight verbs pinned behind an epoch
// fence) are bounded by hundreds of microseconds, so a multi-millisecond
// quarantine guarantees that by the time an address is reused, no verb issued
// against its previous owner can still be in flight. That is what lets the
// system recycle addresses at all — the seed's bump allocator upheld
// "addresses are never reused" by never freeing.
//
// SlabAllocator sits on top for the fixed-size replica/log slots every store
// allocates per object: it carves uniform extents from the ExtentAllocator,
// divides each into slots of one size class, and serves AllocSlot/FreeSlot
// from per-extent free masks. Wholly-free extents are returned (through the
// quarantine). The extent is also the unit of repair harvests and migration
// fences: all slots of an extent are contiguous, so one RetireRegion interval
// fences a whole extent's worth of slots.
//
// Everything here is deterministic: ordered containers, no wall clock, no
// randomness — same call sequence, same addresses.

#ifndef SWARM_SRC_ALLOC_EXTENT_ALLOCATOR_H_
#define SWARM_SRC_ALLOC_EXTENT_ALLOCATOR_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <set>
#include <vector>

#include "src/alloc/free_map.h"

namespace swarm::alloc {

class ExtentAllocator {
 public:
  static constexpr uint64_t kNone = FreeMap::kNone;
  // Quarantine delay for freed extents, in virtual nanoseconds. Stragglers
  // that can still touch a freed range are bounded by retry budgets
  // (~12 x 10 us) plus extreme chaos spikes (>100 us); 5 ms dominates both
  // with an order of magnitude to spare and costs nothing in virtual time.
  static constexpr int64_t kQuarantineNs = 5'000'000;

  ExtentAllocator() = default;

  // (Re)initializes the allocator to own [base, limit), all free.
  void Reset(uint64_t base, uint64_t limit);

  // `now_fn` enables the free quarantine (virtual time source, usually the
  // simulator clock). Without it, Free() returns bytes to the free map
  // immediately — acceptable only for unit fixtures with no concurrency.
  void set_now_fn(std::function<int64_t()> now_fn) { now_fn_ = std::move(now_fn); }

  // Best-fit allocation; returns kNone when no extent fits even after
  // draining the ripe part of the quarantine.
  uint64_t Allocate(uint64_t size, uint64_t align = 8);

  // Returns [addr, addr+size) to the allocator, via quarantine if a time
  // source is wired.
  void Free(uint64_t addr, uint64_t size);

  uint64_t live_bytes() const { return live_bytes_; }
  // High-water end address: 1 + the highest byte ever handed out. The memory
  // node's Recover() memsets this range, and Table 3 reports it as the
  // allocated footprint, so it must be monotone even when extents are freed.
  uint64_t high_water() const { return high_water_; }
  uint64_t quarantined_bytes() const { return quarantined_bytes_; }
  const FreeMap& free_map() const { return free_; }
  uint64_t allocs() const { return allocs_; }
  uint64_t frees() const { return frees_; }

 private:
  void DrainRipe(bool force);

  struct Quarantined {
    uint64_t addr = 0;
    uint64_t size = 0;
    int64_t ripe_at = 0;
  };

  FreeMap free_;
  std::deque<Quarantined> quarantine_;  // FIFO by free time; ripe from front.
  std::function<int64_t()> now_fn_;
  uint64_t base_ = 0;
  uint64_t limit_ = 0;
  uint64_t live_bytes_ = 0;
  uint64_t high_water_ = 0;
  uint64_t quarantined_bytes_ = 0;
  uint64_t allocs_ = 0;
  uint64_t frees_ = 0;
};

// Fixed-size slot allocation over uniform extents.
class SlabAllocator {
 public:
  static constexpr uint64_t kNone = FreeMap::kNone;
  static constexpr int kSlotsPerExtent = 64;  // One free mask word per extent.

  SlabAllocator() = default;
  explicit SlabAllocator(ExtentAllocator* extents) : extents_(extents) {}
  void Reset(ExtentAllocator* extents);

  // Virtual-time source enabling the per-slot free quarantine. Freed slots
  // must not be reused while a straggler (a coroutine holding a raw layout
  // pointer past the layout's GC) could still touch them; the quarantine
  // outlives every bounded straggler, exactly like the extent-level one.
  void set_now_fn(std::function<int64_t()> fn) { now_fn_ = std::move(fn); }

  // Allocates one slot of `slot_bytes` (rounded up to 8). Returns kNone when
  // the underlying extent allocator is exhausted.
  uint64_t AllocSlot(uint64_t slot_bytes);

  // Frees the slot starting at `addr` (must be a slot address previously
  // returned by AllocSlot). The slot becomes reusable once its quarantine
  // ripens; wholly-free extents then go back to the extent allocator.
  // Returns false if `addr` is not a live slab slot.
  [[nodiscard]] bool FreeSlot(uint64_t addr);

  struct Extent {
    uint64_t base = 0;
    uint64_t bytes = 0;       // base..base+bytes covers all slots.
    uint64_t slot_bytes = 0;  // Size class.
    int live_slots = 0;
  };

  // Extent descriptor for any address inside a slab extent, or nullptr.
  const Extent* ExtentOf(uint64_t addr) const;

  uint64_t live_slots() const { return live_slots_; }
  size_t extent_count() const { return extents_by_base_.size(); }

 private:
  struct ExtentState {
    Extent ext;
    uint64_t free_mask = 0;  // Bit i set = slot i free.
  };
  struct SizeClass {
    std::vector<uint64_t> partial;  // Extent bases with at least one free slot.
  };

  void DrainRipeSlots(bool force);
  bool ReleaseSlot(uint64_t addr);

  struct QuarantinedSlot {
    uint64_t addr = 0;
    int64_t ripe_at = 0;
  };

  ExtentAllocator* extents_ = nullptr;
  std::map<uint64_t, ExtentState> extents_by_base_;
  std::map<uint64_t, SizeClass> classes_;  // slot_bytes -> state
  std::deque<QuarantinedSlot> slot_quarantine_;  // FIFO by free time.
  std::set<uint64_t> quarantined_addrs_;  // Double-free guard while pending.
  std::function<int64_t()> now_fn_;
  uint64_t live_slots_ = 0;
};

}  // namespace swarm::alloc

#endif  // SWARM_SRC_ALLOC_EXTENT_ALLOCATOR_H_
