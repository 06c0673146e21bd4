// Memory layout of a SWARM-replicated object on its memory nodes.
//
// Each replica of an object occupies, on its node (Fig. 3 + §4.4 + §3.3):
//
//   meta_addr:      K × 8 B   In-n-Out metadata words (one per writer subset,
//                             §4.4's contention-reduction array),
//   tsl_addr():     W × 8 B   timestamp-lock CAS words (one lock per writer,
//                             §3.3; Safe-Guess state, co-located for locality),
//   inplace_addr():           [hash 8 B][len 8 B][data max_value] — only at the
//                             object's designated replica (§6: in-place data
//                             is stored at one replica chosen by key hash).
//
// Out-of-place buffers are NOT part of the per-object layout: writers carve
// them from per-(client, node) pre-allocated pools (§4.3: "writers
// pre-allocate large memory chunks").

#ifndef SWARM_SRC_SWARM_LAYOUT_H_
#define SWARM_SRC_SWARM_LAYOUT_H_

#include <array>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <new>
#include <utility>
#include <vector>

#include "src/fabric/fabric.h"
#include "src/sim/simulator.h"
#include "src/swarm/timestamp.h"

namespace swarm {

inline constexpr int kMaxReplicas = 8;

// In-place region header: [hash][len].
inline constexpr uint64_t kInPlaceHeaderBytes = 16;
// Out-of-place buffer header: [meta word][len].
inline constexpr uint64_t kOopHeaderBytes = 16;

// One replica's record, 8 B: the base of its slab slot (which is where the
// metadata array starts), its node, and whether the slot holds the in-place
// region. The in-place and TSL regions' addresses follow from the layout's
// geometry (ObjectLayout::inplace_addr and tsl_addr). Every client keeps one
// ObjectLayout per key it has touched, so the record stays this small;
// AllocateObject aborts on a node id or a node size the fields cannot hold.
struct ReplicaLayout {
  static constexpr int kAddrBits = 47;
  static constexpr int kNodeBits = 16;

  uint64_t meta_addr : kAddrBits = 0;  // Slot base = metadata array.
  uint64_t inplace : 1 = 0;            // The slot holds the in-place region.
  int64_t node : kNodeBits = -1;

  bool has_inplace() const { return inplace != 0; }
};
static_assert(sizeof(ReplicaLayout) == 8, "replica record must stay 8 B");

// A writer's slot-cache words for one layout, one 8 B word per replica
// (Algorithm 7's cached previous value of the writer's metadata slot).
// Each writer that touches the object gets a block [next | writer | words],
// created zeroed on its first SlotWordBlocks::For and freed with the layout,
// so a dropped layout takes its words with it and a layout later built at
// the same address starts from zeroed words. A copy starts with none: the
// copy (a migration's replacement layout) addresses slots of its own.
class SlotWordBlocks {
 public:
  SlotWordBlocks() = default;
  SlotWordBlocks(const SlotWordBlocks&) {}
  SlotWordBlocks& operator=(const SlotWordBlocks& other) {
    if (this != &other) {
      Clear();
    }
    return *this;
  }
  ~SlotWordBlocks() { Clear(); }

  // `writer`'s `count` words; zeroed when this is the writer's first call.
  Meta* For(const void* writer, int count) {
    for (Block* b = head_; b != nullptr; b = b->next) {
      if (b->writer == writer) {
        return b->words();
      }
    }
    void* mem = ::operator new(sizeof(Block) + static_cast<size_t>(count) * sizeof(Meta));
    head_ = new (mem) Block{head_, writer};
    for (int i = 0; i < count; ++i) {
      new (head_->words() + i) Meta();
    }
    return head_->words();
  }

 private:
  struct Block {
    Block* next;
    const void* writer;
    Meta* words() { return std::launder(reinterpret_cast<Meta*>(this + 1)); }
  };

  void Clear() {
    while (head_ != nullptr) {
      Block* next = head_->next;
      ::operator delete(head_);
      head_ = next;
    }
  }

  Block* head_ = nullptr;
};

struct ObjectLayout {
  std::array<ReplicaLayout, kMaxReplicas> replicas;
  int32_t num_replicas = 0;
  int32_t meta_slots = 1;   // K metadata buffers (§4.4).
  int32_t max_writers = 1;  // W timestamp locks.
  uint32_t max_value = 0;   // capacity of value buffers, bytes.
  // Every writer's slot-cache words (Worker::SlotCacheFor): client-side
  // state that changes while the layout itself is shared read-only.
  mutable SlotWordBlocks slot_words;

  int majority() const { return num_replicas / 2 + 1; }
  uint64_t meta_region_bytes() const { return static_cast<uint64_t>(meta_slots) * 8; }
  uint64_t tsl_region_bytes() const { return static_cast<uint64_t>(max_writers) * 8; }
  uint64_t inplace_region_bytes() const { return kInPlaceHeaderBytes + max_value; }

  // One replica occupies ONE contiguous slab slot:
  //   [meta | in-place (designated replicas only) | tsl]
  // so a single interval fences it and a single FreeSlot releases it. The
  // in-place region is padded to 8 B so the TSL words stay aligned.
  uint64_t tsl_region_offset(bool with_inplace) const {
    return meta_region_bytes() +
           (with_inplace ? (inplace_region_bytes() + 7) & ~uint64_t{7} : 0);
  }
  uint64_t replica_slot_bytes(bool with_inplace) const {
    return tsl_region_offset(with_inplace) + tsl_region_bytes();
  }
  // [addr, addr+len) of replica r's slot, for fencing/freeing.
  std::pair<uint64_t, uint64_t> replica_slot(int r) const {
    const ReplicaLayout& rep = replicas[static_cast<size_t>(r)];
    return {rep.meta_addr, replica_slot_bytes(rep.has_inplace())};
  }
  // Where the packing puts a replica's in-place region (meaningful only
  // when rep.has_inplace()) and its TSL region.
  uint64_t inplace_addr(const ReplicaLayout& rep) const {
    return rep.meta_addr + meta_region_bytes();
  }
  uint64_t tsl_addr(const ReplicaLayout& rep) const {
    return rep.meta_addr + tsl_region_offset(rep.has_inplace());
  }
};

// The record's fields hold node ids up to 2^15 - 1 and addresses below
// 2^47; the largest node configured anywhere is 8 GiB. A node id or a node
// size they cannot hold is a deployment misconfiguration, like a writer past
// the TSL bound (CheckWriterBound in safe_guess.cc): abort with a message
// rather than truncate an address into another object's slot.
inline void CheckReplicaRecordFits(const int* nodes, int count, uint64_t node_capacity) {
  const auto fail = [](const char* what, unsigned long long value, unsigned long long limit) {
    std::fprintf(stderr, "layout: %s %llu does not fit the replica record (limit %llu)\n", what,
                 value, limit);
    std::abort();
  };
  constexpr int kMaxNode = (1 << (ReplicaLayout::kNodeBits - 1)) - 1;
  constexpr uint64_t kAddrLimit = uint64_t{1} << ReplicaLayout::kAddrBits;
  for (int r = 0; r < count; ++r) {
    if (nodes[r] < 0 || nodes[r] > kMaxNode) {
      fail("node id", static_cast<unsigned long long>(nodes[r]), kMaxNode);
    }
  }
  if (node_capacity > kAddrLimit) {
    fail("node capacity", node_capacity, kAddrLimit);
  }
}

// Allocates one object's replicas on the given nodes. `inplace_copies`
// replicas (starting from replica 0, the designated one) get an in-place
// region; the paper uses one (§6), the failover experiment can provision a
// standby. Buffers come back zeroed, i.e. "empty" (§5.3.1).
inline ObjectLayout AllocateObject(fabric::Fabric& fabric, const int* nodes, int num_replicas,
                                   int meta_slots, int max_writers, uint32_t max_value,
                                   int inplace_copies = 1) {
  ObjectLayout layout;
  layout.num_replicas = num_replicas;
  layout.meta_slots = meta_slots;
  layout.max_writers = max_writers;
  layout.max_value = max_value;
  CheckReplicaRecordFits(nodes, num_replicas, fabric.config().node_capacity_bytes);
  for (int r = 0; r < num_replicas; ++r) {
    ReplicaLayout& rep = layout.replicas[static_cast<size_t>(r)];
    rep.node = nodes[r];
    fabric::MemoryNode& node = fabric.node(nodes[r]);
    // One slab slot per replica: [meta | in-place? | tsl]. The in-place
    // region sits contiguously after the metadata array so both can be
    // fetched in a single READ (§4.3: "the in-place data buffer is located
    // next to the 8 B metadata"); the timestamp locks ride in the same slot
    // so the whole replica is one fence/free interval.
    const bool with_inplace = r < inplace_copies;
    rep.meta_addr = node.AllocSlot(layout.replica_slot_bytes(with_inplace));
    rep.inplace = with_inplace;
  }
  return layout;
}

// Slot-cache words a caller keeps for itself instead of in the layout (tests
// and microbenchmarks that build layouts by hand): one word per replica.
struct ObjectCache {
  std::array<Meta, kMaxReplicas> slot{};
};

// A share in the ownership of a layout. A coroutine that can outlive the op
// that started it (a straggler: a per-replica task still in flight after its
// quorum resumed, or a background promotion) holds one, so the retired-layout
// GC (IndexService::GcRetired), whose use-count gate counts every share,
// keeps the layout and its slots until the straggler is done.
using LayoutPin = std::shared_ptr<const void>;

// A protocol object's handle on one writer's slot-cache words for one
// object (Algorithm 7's cached previous values, 8 B per replica; the
// "In-n-Out metadata" part of a SWARM-KV cache entry, §7.1). It shares the
// ownership of whatever holds the words: the object's layout
// (Worker::SlotCacheFor), which makes the handle a LayoutPin too, or the
// caller's own ObjectCache. Null for a promotion that tracks no words.
class SlotCache {
 public:
  SlotCache() = default;
  SlotCache(std::nullptr_t) {}
  SlotCache(LayoutPin owner, Meta* words) : owner_(std::move(owner)), words_(words) {}
  SlotCache(const std::shared_ptr<ObjectCache>& own)
      : owner_(own), words_(own == nullptr ? nullptr : own->slot.data()) {}

  Meta& operator[](int r) const { return words_[r]; }
  explicit operator bool() const { return words_ != nullptr; }
  const LayoutPin& pin() const { return owner_; }

 private:
  LayoutPin owner_;
  Meta* words_ = nullptr;
};

// Which metadata slot a writer CASes (§4.4: each buffer is updated by a
// subset of the writers).
inline int SlotOf(uint32_t tid, int meta_slots) {
  return static_cast<int>(tid % static_cast<uint32_t>(meta_slots));
}

// Client-side pool of out-of-place buffers on one node (§4.3: "writers
// pre-allocate large memory chunks"). Allocation is a client-local free-list
// pop / bump, never a roundtrip. A slot is recycled ONLY when the value it
// held has been superseded — the writer whose CAS replaced a metadata word
// frees the replaced word's buffer (Free()). A slow reader that still chases
// a freed-and-reused slot detects the reuse through the buffer's embedded
// header and retries; the recycler extension (src/swarm/recycler.h) layers
// the paper's polite membership-based protocol (§4.5) on top.
// Freed buffers sit in quarantine before reuse: a reader that picked up the
// superseded metadata word just before the free must be given time to finish
// its (single-roundtrip) pointer chase. This is the practical trade-off of
// §4.5 — recycling relies on partial synchrony, the read/write protocol does
// not. The quarantine must exceed the worst believable chase latency.
inline constexpr sim::Time kOopQuarantineNs = 200 * 1000;

class OopPool {
 public:
  OopPool(fabric::MemoryNode* node, sim::Simulator* sim, uint32_t max_value, int slots)
      : node_(node), sim_(sim),
        slot_bytes_((kOopHeaderBytes + max_value + kOopGranuleBytes - 1) & ~(kOopGranuleBytes - 1)),
        chunk_slots_(slots > 0 ? slots : 1) {
    AddChunk();
  }

  // Returns the granule index to embed in a metadata word.
  uint32_t AllocIdx() {
    if (head_ < quarantine_.size() && quarantine_[head_].ripe_at <= sim_->Now()) {
      const uint32_t idx = quarantine_[head_].idx;
      if (++head_ == quarantine_.size()) {
        quarantine_.clear();
        head_ = 0;
      } else if (head_ >= 64 && head_ * 2 >= quarantine_.size()) {
        // Compact the consumed prefix. Under steady churn the queue never
        // fully drains (pushes and pops run at matched rates), so without
        // this the dead prefix — and the vector — would grow forever. The
        // erase shifts in place: capacity sticks at its high-water mark and
        // steady-state recycling stays allocation-free.
        quarantine_.erase(quarantine_.begin(), quarantine_.begin() + static_cast<long>(head_));
        head_ = 0;
      }
      return idx;
    }
    if (next_in_chunk_ == chunk_slots_) {
      AddChunk();  // Exhausted: pre-allocate another chunk (no roundtrip).
    }
    const uint64_t addr = chunk_base_ + static_cast<uint64_t>(next_in_chunk_++) * slot_bytes_;
    return static_cast<uint32_t>(addr / kOopGranuleBytes);
  }

  // Recycles a superseded buffer (after quarantine). Accepts slots that were
  // originally allocated by other pools of the same geometry (write-backs
  // install words with buffers from the repairer's pool).
  void Free(uint32_t oop_idx) {
    if (oop_idx != 0) {
      quarantine_.push_back(Quarantined{oop_idx, sim_->Now() + kOopQuarantineNs});
    }
  }

  uint64_t slot_bytes() const { return slot_bytes_; }

 private:
  struct Quarantined {
    uint32_t idx;
    sim::Time ripe_at;
  };

  void AddChunk() {
    // Granule alignment is essential: metadata words address buffers in
    // kOopGranuleBytes units, so a misaligned base would truncate pointers.
    chunk_base_ = node_->Allocate(static_cast<uint64_t>(chunk_slots_) * slot_bytes_,
                                  kOopGranuleBytes);
    next_in_chunk_ = 0;
  }

  fabric::MemoryNode* node_;
  sim::Simulator* sim_;
  uint64_t slot_bytes_;
  int chunk_slots_;
  uint64_t chunk_base_ = 0;
  int next_in_chunk_ = 0;
  sim::PoolVec<Quarantined> quarantine_;
  size_t head_ = 0;
};

}  // namespace swarm

#endif  // SWARM_SRC_SWARM_LAYOUT_H_
