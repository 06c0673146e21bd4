// Free-list slab pool for the steady-state hot path.
//
// PR 1 pooled the simulator's callback slots; this module generalizes that
// discipline to every remaining per-op allocation: coroutine frames (via
// Task's promise operator new), the Counter state and per-verb OpState (via
// std::allocate_shared), and value byte buffers (via the Bytes/PoolVec
// vector aliases). With all of them on the pool, a
// quorum-of-3 write performs ZERO heap allocations at steady state — the
// zero_alloc_test guard enforces this for all three KV stores.
//
// Design:
//  * Power-of-two size classes from 64 B to 256 KB, each a singly-linked
//    free list carved from slabs (one ::operator new per slab refill, never
//    returned). Alloc/Free are O(1) pointer pops/pushes.
//  * The simulation is strictly single-threaded, so the pool is one global
//    set of shelves (equivalent to per-Worker/per-ClientCpu ownership, with
//    none of the plumbing). The shelves are a leaky heap singleton reachable
//    from a static pointer: free-listed memory is "still reachable" to leak
//    checkers, and no static-destruction-order hazard exists for late frees.
//  * Under AddressSanitizer the pool delegates straight to ::operator
//    new/delete. Pooled memory would otherwise mask use-after-free (a
//    recycled slot is live memory), so the ASan CI jobs run with full
//    allocator fidelity while production builds run allocation-free. The
//    zero-allocation guard test skips itself under ASan for the same reason.

#ifndef SWARM_SRC_SIM_POOL_H_
#define SWARM_SRC_SIM_POOL_H_

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <utility>
#include <vector>

#if defined(__SANITIZE_ADDRESS__)
#define SWARM_POOL_BYPASS 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define SWARM_POOL_BYPASS 1
#endif
#endif

namespace swarm::sim {

class FramePool {
 public:
  struct Stats {
    uint64_t allocs = 0;        // Pool hits (free-list pops).
    uint64_t frees = 0;         // Free-list pushes.
    uint64_t slab_refills = 0;  // ::operator new calls for slab growth.
    uint64_t slab_bytes = 0;    // Total bytes owned by slabs.
    uint64_t oversize = 0;      // Requests beyond the largest class.
  };

  static void* Alloc(size_t n) {
#ifdef SWARM_POOL_BYPASS
    return ::operator new(n);
#else
    const size_t cls = ClassOf(n);
    Shelves& s = S();
    if (cls >= kNumClasses) {
      ++s.stats.oversize;
      return ::operator new(n);
    }
    FreeNode*& head = s.head[cls];
    if (head == nullptr) {
      Refill(s, cls);
    }
    FreeNode* node = head;
    head = node->next;
    ++s.stats.allocs;
    return node;
#endif
  }

  static void Free(void* p, [[maybe_unused]] size_t n) {
#ifdef SWARM_POOL_BYPASS
    ::operator delete(p);
#else
    if (p == nullptr) {
      return;
    }
    const size_t cls = ClassOf(n);
    Shelves& s = S();
    if (cls >= kNumClasses) {
      ::operator delete(p);
      return;
    }
    FreeNode* node = static_cast<FreeNode*>(p);
    node->next = s.head[cls];
    s.head[cls] = node;
    ++s.stats.frees;
#endif
  }

  static Stats stats() {
#ifdef SWARM_POOL_BYPASS
    return Stats{};
#else
    return S().stats;
#endif
  }

 private:
  // 64 B .. 256 KB in power-of-two classes; larger requests (none on the hot
  // path) fall through to the system allocator.
  static constexpr size_t kMinBits = 6;
  static constexpr size_t kMaxBits = 18;
  static constexpr size_t kNumClasses = kMaxBits - kMinBits + 1;
  static constexpr size_t kMinSlabBytes = size_t{1} << 16;  // 64 KB per refill.

  struct FreeNode {
    FreeNode* next;
  };

  struct Shelves {
    FreeNode* head[kNumClasses] = {};
    std::vector<void*> slabs;
    Stats stats;
  };

  static size_t ClassOf(size_t n) {
    const size_t bits = static_cast<size_t>(std::bit_width(n > 1 ? n - 1 : size_t{1}));
    return bits <= kMinBits ? 0 : bits - kMinBits;
  }

  static Shelves& S() {
    // Leaky singleton: reachable forever via this static, so leak checkers
    // stay quiet and frees after main() cannot touch a destroyed pool.
    static Shelves* s = new Shelves;
    return *s;
  }

  static void Refill(Shelves& s, size_t cls) {
    const size_t node_bytes = size_t{1} << (cls + kMinBits);
    const size_t slab_bytes = node_bytes < kMinSlabBytes ? kMinSlabBytes : node_bytes;
    auto* base = static_cast<unsigned char*>(::operator new(slab_bytes));
    s.slabs.push_back(base);
    for (size_t off = 0; off + node_bytes <= slab_bytes; off += node_bytes) {
      auto* node = reinterpret_cast<FreeNode*>(base + off);
      node->next = s.head[cls];
      s.head[cls] = node;
    }
    ++s.stats.slab_refills;
    s.stats.slab_bytes += slab_bytes;
  }
};

// Minimal std allocator over FramePool. All instances are interchangeable
// (the pool is global), so container moves/swaps never copy elements.
template <typename T>
struct PoolAlloc {
  using value_type = T;

  PoolAlloc() = default;
  template <typename U>
  PoolAlloc(const PoolAlloc<U>&) {}  // NOLINT(google-explicit-constructor)

  T* allocate(size_t n) { return static_cast<T*>(FramePool::Alloc(n * sizeof(T))); }
  void deallocate(T* p, size_t n) { FramePool::Free(p, n * sizeof(T)); }

  template <typename U>
  bool operator==(const PoolAlloc<U>&) const {
    return true;
  }
};

// Pool-backed vector aliases for hot-path buffers. A fresh Bytes per op is
// allocation-free at steady state: its buffer comes off the size-class free
// list and returns there on destruction.
template <typename T>
using PoolVec = std::vector<T, PoolAlloc<T>>;

// Byte buffer on the pool. A subclass (not an alias) so it converts both ways
// with plain std::vector<uint8_t>: protocol results flow into cold-path
// consumers (tests, examples, the verification history) that hold ordinary
// vectors, and literals flow in. The conversions copy — acceptable off the
// hot path, where only pool-to-pool moves occur.
class Bytes : public PoolVec<uint8_t> {
 public:
  using PoolVec<uint8_t>::PoolVec;
  Bytes() = default;
  Bytes(const PoolVec<uint8_t>& v) : PoolVec<uint8_t>(v) {}             // NOLINT
  Bytes(PoolVec<uint8_t>&& v) : PoolVec<uint8_t>(std::move(v)) {}       // NOLINT
  Bytes(const std::vector<uint8_t>& v) : PoolVec<uint8_t>(v.begin(), v.end()) {}  // NOLINT
  operator std::vector<uint8_t>() const { return {begin(), end()}; }    // NOLINT
};

// allocate_shared over the pool: one pooled block holds control block +
// object, refcount semantics unchanged. The drop-in replacement for
// std::make_shared on hot-path shared state (phase structs, verb OpState).
template <typename T, typename... Args>
std::shared_ptr<T> MakePooled(Args&&... args) {
  return std::allocate_shared<T>(PoolAlloc<T>{}, std::forward<Args>(args)...);
}

// Equality bridges so call sites (mostly tests) comparing protocol results
// against plain std::vector<uint8_t> literals keep working. Found via ADL:
// Bytes' template arguments put swarm::sim in the lookup set.
inline bool operator==(const Bytes& a, const std::vector<uint8_t>& b) {
  return a.size() == b.size() && std::equal(a.begin(), a.end(), b.begin());
}
inline bool operator==(const std::vector<uint8_t>& a, const Bytes& b) { return b == a; }

}  // namespace swarm::sim

#endif  // SWARM_SRC_SIM_POOL_H_
