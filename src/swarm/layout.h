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
//
// On the host, every client keeps one layout per key it has touched, so a
// layout is one heap block sized to its replica count R (ObjectLayout::Build
// is the only way to make one):
//
//   [geometry 8 B][refs 4 B | first writer 4 B][later writers' words 8 B]
//   [R × 8 B replica records][R × 8 B the first writer's slot-cache words]
//
// 24 + 16·R bytes: 72 B for 3 replicas, an 80 B malloc chunk. The block is
// shared through LayoutPin, an 8 B handle whose reference count is the
// block's own `refs`; nothing copies a layout or holds one by value.

#ifndef SWARM_SRC_SWARM_LAYOUT_H_
#define SWARM_SRC_SWARM_LAYOUT_H_

#include <array>
#include <cstddef>
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

// A value a layout's packed fields cannot hold is a deployment
// misconfiguration, like a writer past the TSL bound (CheckWriterBound in
// safe_guess.cc): abort with a message rather than truncate it.
[[noreturn]] inline void LayoutFieldOverflow(const char* what, unsigned long long value,
                                             const char* field, unsigned long long limit) {
  std::fprintf(stderr, "layout: %s %llu does not fit the %s (limit %llu)\n", what, value, field,
               limit);
  std::abort();
}

// One replica's record, 8 B: the base of its slab slot (which is where the
// metadata array starts), its node, and whether the slot holds the in-place
// region. The in-place and TSL regions' addresses follow from the layout's
// geometry (ObjectLayout::inplace_addr and tsl_addr). AllocateObject aborts
// on a node id or a node size the fields cannot hold.
struct ReplicaLayout {
  static constexpr int kAddrBits = 47;
  static constexpr int kNodeBits = 16;

  uint64_t meta_addr : kAddrBits = 0;  // Slot base = metadata array.
  uint64_t inplace : 1 = 0;            // The slot holds the in-place region.
  int64_t node : kNodeBits = -1;

  bool has_inplace() const { return inplace != 0; }
};
static_assert(sizeof(ReplicaLayout) == 8, "replica record must stay 8 B");

// The record's fields hold node ids up to 2^15 - 1 and addresses below
// 2^47; the largest node configured anywhere is 8 GiB.
inline void CheckReplicaRecordFits(const int* nodes, int count, uint64_t node_capacity) {
  constexpr int kMaxNode = (1 << (ReplicaLayout::kNodeBits - 1)) - 1;
  constexpr uint64_t kAddrLimit = uint64_t{1} << ReplicaLayout::kAddrBits;
  for (int r = 0; r < count; ++r) {
    if (nodes[r] < 0 || nodes[r] > kMaxNode) {
      LayoutFieldOverflow("node id", static_cast<unsigned long long>(nodes[r]), "replica record",
                          kMaxNode);
    }
  }
  if (node_capacity > kAddrLimit) {
    LayoutFieldOverflow("node capacity", node_capacity, "replica record", kAddrLimit);
  }
}

// An object's geometry in one 8 B word: R replicas (up to kMaxReplicas), K
// metadata slots and W timestamp locks (up to 16,383 each; a 64 KiB
// metadata array is 8,192 slots) and the value capacity. Bitfields, so call
// sites read layout->num_replicas like plain fields; Of() checks the fit.
struct LayoutGeometry {
  static constexpr int kReplicaBits = 4;
  static constexpr int kSlotBits = 14;

  uint32_t num_replicas : kReplicaBits = 0;
  uint32_t meta_slots : kSlotBits = 1;   // K metadata buffers (§4.4).
  uint32_t max_writers : kSlotBits = 1;  // W timestamp locks.
  uint32_t max_value = 0;                // capacity of value buffers, bytes.

  static LayoutGeometry Of(int num_replicas, int meta_slots, int max_writers,
                           uint32_t max_value) {
    constexpr int kSlotLimit = (1 << kSlotBits) - 1;
    const auto check = [](const char* what, int value, int limit) {
      if (value < 0 || value > limit) {
        LayoutFieldOverflow(what, static_cast<unsigned long long>(value), "geometry word",
                            static_cast<unsigned long long>(limit));
      }
    };
    check("replica count", num_replicas, kMaxReplicas);
    check("meta_slots", meta_slots, kSlotLimit);
    check("max_writers", max_writers, kSlotLimit);
    LayoutGeometry g;
    g.num_replicas = static_cast<uint32_t>(num_replicas);
    g.meta_slots = static_cast<uint32_t>(meta_slots);
    g.max_writers = static_cast<uint32_t>(max_writers);
    g.max_value = max_value;
    return g;
  }

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
};
static_assert(kMaxReplicas < (1 << LayoutGeometry::kReplicaBits));
static_assert(sizeof(LayoutGeometry) == 8, "the geometry must stay one word");

class ObjectLayout;

// A share in the ownership of a layout, 8 B: the count lives in the layout's
// block. Every holder of a layout holds one: index entries, client-cache
// entries, a located op, the retired list, the repair and migration walks,
// and the quorum phases. A coroutine that can outlive the op that started it
// (a straggler: a per-replica task still in flight after its quorum resumed,
// or a background promotion) holds one too, so the retired-layout GC
// (IndexService::GcRetired), whose use-count gate counts every share, keeps
// the layout and its slots until the straggler is done. The last share
// frees the block with every writer's slot-cache words.
class LayoutPin {
 public:
  LayoutPin() = default;
  LayoutPin(std::nullptr_t) {}
  LayoutPin(const LayoutPin& other) : layout_(other.layout_) { Retain(); }
  LayoutPin(LayoutPin&& other) noexcept : layout_(std::exchange(other.layout_, nullptr)) {}
  LayoutPin& operator=(LayoutPin other) noexcept {
    std::swap(layout_, other.layout_);
    return *this;
  }
  ~LayoutPin() { Release(); }

  const ObjectLayout* get() const { return layout_; }
  const ObjectLayout& operator*() const { return *layout_; }
  const ObjectLayout* operator->() const { return layout_; }
  // The layout's shares, this one included; 0 for an empty pin.
  uint32_t use_count() const;
  void reset() { *this = nullptr; }

  friend bool operator==(const LayoutPin& a, const LayoutPin& b) {
    return a.layout_ == b.layout_;
  }

 private:
  friend class ObjectLayout;
  // Adopts the reference ObjectLayout::Build created.
  explicit LayoutPin(const ObjectLayout* built) : layout_(built) {}
  void Retain() const;
  void Release();

  const ObjectLayout* layout_ = nullptr;
};
static_assert(sizeof(LayoutPin) == 8, "a layout share must stay one pointer");

// One object's layout: its geometry, its replica records and its writers'
// slot-cache words, in one block (see the top of this file).
class ObjectLayout : public LayoutGeometry {
 public:
  // The block for R replicas.
  static constexpr size_t BlockBytes(int num_replicas) {
    return sizeof(ObjectLayout) +
           static_cast<size_t>(num_replicas) * (sizeof(ReplicaLayout) + sizeof(Meta));
  }

  // The one factory: a block holding `geometry` and its num_replicas
  // records copied from `records`, with zeroed words and no writer yet.
  static LayoutPin Build(const LayoutGeometry& geometry, const ReplicaLayout* records) {
    const int n = geometry.num_replicas;
    auto* layout = new (::operator new(BlockBytes(n))) ObjectLayout(geometry);
    for (int r = 0; r < n; ++r) {
      new (layout->trailing(r)) ReplicaLayout(records[r]);
      new (layout->trailing(n + r)) Meta();
    }
    ++live_.layouts;
    return LayoutPin(layout);
  }

  const ReplicaLayout& replica(int r) const {
    return *std::launder(reinterpret_cast<const ReplicaLayout*>(trailing(r)));
  }
  // [addr, addr+len) of replica r's slot, for fencing/freeing.
  std::pair<uint64_t, uint64_t> replica_slot(int r) const {
    const ReplicaLayout& rep = replica(r);
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

  // `writer`'s slot-cache words for this object (Worker::SlotCacheFor),
  // num_replicas of them, zeroed on the writer's first call. The first
  // writer gets the block's inline words; each later one a block
  // [next | writer | words] chained to the layout and freed with it. These
  // are client-side state that changes while the layout is shared read-only.
  // Writers are told apart by tid, which no two live workers share (a
  // timestamp's tid breaks ties between writers, §3.3).
  Meta* SlotWords(uint32_t writer) const {
    if (first_writer_ == writer || first_writer_ == kNoWriter) {
      first_writer_ = writer;
      return inline_words();
    }
    for (WordBlock* b = chain_; b != nullptr; b = b->next) {
      if (b->writer == writer) {
        return b->words();
      }
    }
    const int n = num_replicas;
    void* mem = ::operator new(sizeof(WordBlock) + static_cast<size_t>(n) * sizeof(Meta));
    chain_ = new (mem) WordBlock{chain_, writer};
    for (int r = 0; r < n; ++r) {
      new (chain_->words() + r) Meta();
    }
    ++live_.word_blocks;
    return chain_->words();
  }

  // Blocks alive in this process (the simulation is single-threaded): what
  // tests watch to see a layout and its words freed.
  struct Live {
    uint64_t layouts;
    uint64_t word_blocks;
  };
  static const Live& live() { return live_; }

 private:
  friend class LayoutPin;

  static constexpr uint32_t kNoWriter = UINT32_MAX;

  struct WordBlock {
    WordBlock* next;
    uint32_t writer;
    Meta* words() { return std::launder(reinterpret_cast<Meta*>(this + 1)); }
  };

  explicit ObjectLayout(const LayoutGeometry& geometry) : LayoutGeometry(geometry) {}
  ObjectLayout(const ObjectLayout&) = delete;
  ObjectLayout& operator=(const ObjectLayout&) = delete;
  ~ObjectLayout() = default;

  // Word i past the header: the records are words [0, R), the first
  // writer's slot-cache words [R, 2R).
  static_assert(sizeof(ReplicaLayout) == 8 && sizeof(Meta) == 8 && alignof(Meta) == 8);
  uint64_t* trailing(int i) const {
    return reinterpret_cast<uint64_t*>(const_cast<ObjectLayout*>(this) + 1) + i;
  }
  Meta* inline_words() const {
    return std::launder(reinterpret_cast<Meta*>(trailing(num_replicas)));
  }

  // The last share is gone: free the later writers' words, then the block.
  // Out of line: it runs once per layout, and inlined into every handle's
  // destructor it lets GCC's -Wuse-after-free flag the sibling handles that
  // are destroyed after it although their count kept the block alive.
  [[gnu::noinline]] static void Free(const ObjectLayout* layout) {
    for (WordBlock* b = layout->chain_; b != nullptr;) {
      WordBlock* next = b->next;
      ::operator delete(b);
      --live_.word_blocks;
      b = next;
    }
    ObjectLayout* block = const_cast<ObjectLayout*>(layout);
    block->~ObjectLayout();
    ::operator delete(block);
    --live_.layouts;
  }

  mutable uint32_t refs_ = 1;
  mutable uint32_t first_writer_ = kNoWriter;
  mutable WordBlock* chain_ = nullptr;

  static inline Live live_{};
};
static_assert(sizeof(ObjectLayout) == 24, "geometry, count, first writer, word chain");
static_assert(ObjectLayout::BlockBytes(3) == 72, "a 3-replica layout is an 80 B malloc chunk");

inline uint32_t LayoutPin::use_count() const { return layout_ == nullptr ? 0 : layout_->refs_; }
inline void LayoutPin::Retain() const {
  if (layout_ != nullptr) {
    ++layout_->refs_;
  }
}
inline void LayoutPin::Release() {
  if (layout_ != nullptr && --layout_->refs_ == 0) {
    ObjectLayout::Free(layout_);
  }
}

// Allocates one object's replicas on the given nodes. `inplace_copies`
// replicas (starting from replica 0, the designated one) get an in-place
// region; the paper uses one (§6), the failover experiment can provision a
// standby. Buffers come back zeroed, i.e. "empty" (§5.3.1).
inline LayoutPin AllocateObject(fabric::Fabric& fabric, const int* nodes, int num_replicas,
                                int meta_slots, int max_writers, uint32_t max_value,
                                int inplace_copies = 1) {
  const LayoutGeometry geometry =
      LayoutGeometry::Of(num_replicas, meta_slots, max_writers, max_value);
  CheckReplicaRecordFits(nodes, num_replicas, fabric.config().node_capacity_bytes);
  std::array<ReplicaLayout, kMaxReplicas> records;
  for (int r = 0; r < num_replicas; ++r) {
    ReplicaLayout& rep = records[static_cast<size_t>(r)];
    rep.node = nodes[r];
    // One slab slot per replica: [meta | in-place? | tsl]. The in-place
    // region sits contiguously after the metadata array so both can be
    // fetched in a single READ (§4.3: "the in-place data buffer is located
    // next to the 8 B metadata"); the timestamp locks ride in the same slot
    // so the whole replica is one fence/free interval.
    const bool with_inplace = r < inplace_copies;
    rep.meta_addr = fabric.node(nodes[r]).AllocSlot(geometry.replica_slot_bytes(with_inplace));
    rep.inplace = with_inplace;
  }
  return ObjectLayout::Build(geometry, records.data());
}

// A migration's replacement layout (src/repair/migration.h): `layout`'s
// geometry and records, but replica `r` in a fresh slot on node `dest`, of
// the vacated slot's size and in-place role. The other slots are shared
// with `layout`; its writers' words are not, so the replacement starts with
// none.
inline LayoutPin GraftReplica(fabric::Fabric& fabric, const ObjectLayout& layout, int r,
                              int dest) {
  CheckReplicaRecordFits(&dest, 1, fabric.config().node_capacity_bytes);
  std::array<ReplicaLayout, kMaxReplicas> records;
  for (int q = 0; q < layout.num_replicas; ++q) {
    records[static_cast<size_t>(q)] = layout.replica(q);
  }
  ReplicaLayout& fresh = records[static_cast<size_t>(r)];
  fresh.node = dest;
  fresh.meta_addr = fabric.node(dest).AllocSlot(layout.replica_slot_bytes(fresh.has_inplace()));
  return ObjectLayout::Build(layout, records.data());
}

// Slot-cache words a caller keeps for itself instead of in the layout (tests
// and microbenchmarks that start each op from cold words): one word per
// replica.
struct ObjectCache {
  std::array<Meta, kMaxReplicas> slot{};
};

// A protocol object's handle on one writer's slot-cache words for one
// object (Algorithm 7's cached previous values, 8 B per replica; the
// "In-n-Out metadata" part of a SWARM-KV cache entry, §7.1). It shares the
// ownership of whatever holds the words: the object's layout
// (Worker::SlotCacheFor), which makes pin() a share in it, or the caller's
// own ObjectCache. Null for a promotion that tracks no words.
class SlotCache {
 public:
  SlotCache() = default;
  SlotCache(std::nullptr_t) {}
  SlotCache(LayoutPin pin, Meta* words) : pin_(std::move(pin)), words_(words) {}
  SlotCache(std::shared_ptr<ObjectCache> own)
      : own_(std::move(own)), words_(own_ == nullptr ? nullptr : own_->slot.data()) {}

  Meta& operator[](int r) const { return words_[r]; }
  explicit operator bool() const { return words_ != nullptr; }
  const LayoutPin& pin() const { return pin_; }

 private:
  LayoutPin pin_;
  std::shared_ptr<ObjectCache> own_;
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
