// Discrete-event simulator core.
//
// The simulator owns a virtual clock and a timer queue. Actors (clients,
// protocol operations, background tasks) are C++20 coroutines that suspend on
// awaitables which schedule their resumption at a future virtual time.
// Execution is strictly single-threaded: exactly one event runs at a time,
// events with equal timestamps run in scheduling order, and the whole run is
// reproducible from the Rng seed.
//
// Hot-path design (the event loop dominates every benchmark's host time):
//  * An event's payload is a tagged pointer: either a coroutine handle
//    (ResumeAt — the overwhelmingly common case, scheduled with ZERO
//    allocations) or a type-erased callback stored in a pooled slab slot.
//    Callback slots are recycled through a free list; slabs grow in chunks,
//    so steady-state scheduling never touches the allocator. Callables
//    larger than the inline slot storage (rare) fall back to one heap
//    allocation held inside the slot.
//  * Near events — almost everything, since fabric RTTs are ~2 us — live in
//    a timing wheel: one FIFO bucket per virtual nanosecond over a 2048 ns
//    window, with an occupancy bitmap for cursor advancement. Push and pop
//    are O(1); bucket FIFO order IS (time, seq) order because a bucket holds
//    a single timestamp and appends happen in scheduling order.
//  * Mid-range events (protocol timeouts, detection sweeps, lease and
//    recycler rounds — everything from 2 us to ~2 ms) live in a SECOND,
//    coarse wheel level: 1024 buckets of 2048 ns each, covering a ~2.1 ms
//    horizon past the fine window. A coarse bucket spans exactly one fine
//    window; when the fine wheel drains, the next nonempty coarse bucket is
//    promoted wholesale (bucket append order is (time, seq) order, see
//    Push), so ms-scale timers never touch the comparison-based heap.
//  * Far events (beyond the coarse horizon) overflow into a flat 4-ary
//    min-heap of 24-byte PODs ordered by (time, seq); when both wheels
//    drain, the coarse level is re-based onto the earliest far event and
//    every event inside the new horizon migrates up in (time, seq) order, so
//    the global dispatch order is exactly the seed's.

#ifndef SWARM_SRC_SIM_SIMULATOR_H_
#define SWARM_SRC_SIM_SIMULATOR_H_

#include <array>
#include <coroutine>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "src/sim/pool.h"
#include "src/sim/random.h"
#include "src/sim/time.h"

namespace swarm::sim {

class Simulator {
 public:
  explicit Simulator(uint64_t seed = 1) : rng_(seed) {
    heap_.reserve(1024);
    // Pre-size every bucket to one pool node (8 fine payloads / 4 coarse
    // items fill a 64 B class exactly). Rebasing re-anchors the windows, so
    // over a long run every bucket index gets touched eventually; paying the
    // ~190 KB up front keeps first-touch growth off the steady-state path.
    for (Bucket& b : buckets_) {
      b.items.reserve(8);
    }
    for (L2Bucket& b : l2_buckets_) {
      b.items.reserve(4);
    }
  }
  ~Simulator();

  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  Time Now() const { return now_; }
  Rng& rng() { return rng_; }

  // Schedules `fn` to run at virtual time `when` (clamped to Now()). The
  // callable is moved into a pooled slot; scheduling allocates only when the
  // callable outgrows the inline slot storage or every slab slot is in use.
  template <typename F>
  void At(Time when, F&& fn) {
    Push(when, TagCallback(MakeSlot(std::forward<F>(fn))));
  }

  // Schedules `fn` to run `delay` ns from now.
  template <typename F>
  void After(Time delay, F&& fn) {
    At(now_ + delay, std::forward<F>(fn));
  }

  // Schedules resumption of a suspended coroutine. Never allocates: the
  // handle itself is the event payload.
  void ResumeAt(Time when, std::coroutine_handle<> h) {
    Push(when, reinterpret_cast<uintptr_t>(h.address()));
  }

  // Runs events until the queue is empty.
  void Run();

  // Runs events with timestamp <= `t`, then sets the clock to `t`.
  void RunUntil(Time t);

  // Runs a single event. Returns false if the queue was empty.
  bool Step();

  uint64_t events_processed() const { return events_processed_; }
  uint64_t coroutine_events() const { return coroutine_events_; }
  uint64_t callback_events() const { return events_processed_ - coroutine_events_; }
  size_t queue_depth() const { return wheel_count_ + l2_count_ + heap_.size(); }
  // Callback slots ever carved from slabs (pool high-water mark).
  size_t callback_pool_slots() const { return pool_slots_; }

  // Awaitable: suspends the current coroutine for `delay` virtual ns.
  auto Delay(Time delay) {
    struct Awaiter {
      Simulator* sim;
      Time at;
      bool await_ready() const noexcept { return false; }
      void await_suspend(std::coroutine_handle<> h) { sim->ResumeAt(at, h); }
      void await_resume() const noexcept {}
    };
    return Awaiter{this, now_ + (delay > 0 ? delay : 0)};
  }

  // Awaitable: suspends the current coroutine until virtual time `t`.
  auto WaitUntil(Time t) { return Delay(t - now_); }

 private:
  // Sized so every callback the fabric and protocol layers schedule stays
  // inline. The fabric's arrival and landing callbacks carry a verb's whole
  // journey: 128 bytes for a pipelined WRITE→CAS series.
  static constexpr size_t kInlineCallbackBytes = 184;
  static constexpr size_t kSlabSlots = 256;

  // Wheel geometry: 1 ns buckets over a 2048 ns window, base-aligned so
  // bucket index == at & kWheelMask with no wrap inside a window.
  static constexpr size_t kWheelBits = 11;
  static constexpr size_t kWheelSize = size_t{1} << kWheelBits;
  static constexpr Time kWheelMask = static_cast<Time>(kWheelSize - 1);
  static constexpr size_t kBitmapWords = kWheelSize / 64;

  // Coarse level: 1024 buckets, each spanning one fine window (2048 ns), for
  // a ~2.1 ms horizon. Anchored (not circular): promotion consumes buckets
  // front to back and the level re-bases off the heap when it drains.
  static constexpr size_t kL2Bits = 10;
  static constexpr size_t kL2Buckets = size_t{1} << kL2Bits;
  static constexpr Time kL2Span = static_cast<Time>(kL2Buckets) << kWheelBits;
  static constexpr size_t kL2BitmapWords = kL2Buckets / 64;

  struct CallbackSlot {
    // Invokes (when `run`) and destroys the stored callable. Set by MakeSlot.
    void (*op)(CallbackSlot*, bool run);
    CallbackSlot* next_free;
    alignas(std::max_align_t) unsigned char storage[kInlineCallbackBytes];
  };

  struct Event {
    Time at;
    uint64_t seq;
    // Low bit set: CallbackSlot*. Low bit clear: coroutine frame address.
    // Both are at least 8-byte aligned, so the bit is free for the tag.
    uintptr_t payload;
  };

  struct Bucket {
    PoolVec<uintptr_t> items;  // FIFO: appended in scheduling order.
    size_t head = 0;
  };

  // Coarse-bucket entry: events in one coarse bucket carry mixed timestamps
  // inside the bucket's 2048 ns span, so the time rides along. No seq: the
  // bucket's append order IS (time, seq) order for same-time events (direct
  // pushes append in seq order, and heap migration — which only happens into
  // an empty level — pops in (time, seq) order).
  struct L2Item {
    Time at;
    uintptr_t payload;
  };

  struct L2Bucket {
    PoolVec<L2Item> items;
  };

  static bool IsCallback(uintptr_t payload) { return (payload & 1) != 0; }
  static uintptr_t TagCallback(CallbackSlot* s) { return reinterpret_cast<uintptr_t>(s) | 1; }
  static CallbackSlot* SlotOf(uintptr_t payload) {
    return reinterpret_cast<CallbackSlot*>(payload & ~uintptr_t{1});
  }

  template <typename F>
  CallbackSlot* MakeSlot(F&& fn) {
    using Fn = std::decay_t<F>;
    CallbackSlot* slot = AllocSlot();
    if constexpr (sizeof(Fn) <= kInlineCallbackBytes && alignof(Fn) <= alignof(std::max_align_t)) {
      ::new (static_cast<void*>(slot->storage)) Fn(std::forward<F>(fn));
      slot->op = [](CallbackSlot* s, bool run) {
        Fn* f = std::launder(reinterpret_cast<Fn*>(s->storage));
        if (run) {
          (*f)();
        }
        f->~Fn();
      };
    } else {
      // Oversized callable: one pooled allocation, owned by the slot. Still
      // allocation-free at steady state — the spill block comes off the
      // size-class free list like everything else.
      void* mem = FramePool::Alloc(sizeof(Fn));
      ::new (static_cast<void*>(slot->storage)) Fn*(::new (mem) Fn(std::forward<F>(fn)));
      slot->op = [](CallbackSlot* s, bool run) {
        Fn* f = *std::launder(reinterpret_cast<Fn**>(s->storage));
        if (run) {
          (*f)();
        }
        f->~Fn();
        FramePool::Free(f, sizeof(Fn));
      };
    }
    return slot;
  }

  CallbackSlot* AllocSlot();
  void FreeSlot(CallbackSlot* slot) {
    slot->next_free = free_slots_;
    free_slots_ = slot;
  }

  static bool Before(const Event& a, const Event& b) {
    return a.at != b.at ? a.at < b.at : a.seq < b.seq;
  }

  // Wheel events need no seq: bucket order is scheduling order. Heap events
  // get one so far-future ties dispatch in scheduling order after migration.
  void Push(Time when, uintptr_t payload) {
    if (when < now_) {
      when = now_;
    }
    // The fine wheel only accepts events inside its window. `when >= base_`
    // holds whenever the wheel is nonempty (pushes clamp to now_, and
    // now_ >= base_ then); it is checked anyway so an invariant break cannot
    // write outside the bitmap. The coarse level accepts events from its
    // first UNPROMOTED bucket (l2_cursor_) to its horizon; everything else —
    // beyond the horizon, or landing in the already-promoted gap while the
    // fine wheel is empty — overflows to the heap, where RefillL1 picks it
    // up in (time, seq) order.
    if (wheel_count_ > 0 && when >= base_ && when < base_ + static_cast<Time>(kWheelSize)) {
      WheelAppend(when, payload);
    } else if (l2_count_ > 0 && when >= l2_cursor_ && when < l2_base_ + kL2Span) {
      L2Append(when, payload);
    } else {
      HeapPush(Event{when, seq_++, payload});
    }
  }

  void WheelAppend(Time at, uintptr_t payload) {
    Bucket& b = buckets_[static_cast<size_t>(at & kWheelMask)];
    b.items.push_back(payload);
    const size_t idx = static_cast<size_t>(at - base_);
    bitmap_[idx >> 6] |= uint64_t{1} << (idx & 63);
    ++wheel_count_;
  }

  void L2Append(Time at, uintptr_t payload) {
    const size_t idx = static_cast<size_t>((at - l2_base_) >> kWheelBits);
    l2_buckets_[idx].items.push_back(L2Item{at, payload});
    l2_bitmap_[idx >> 6] |= uint64_t{1} << (idx & 63);
    ++l2_count_;
  }

  // Refills the (empty) fine wheel from the earliest pending source: gap
  // events from the heap, the next nonempty coarse bucket, or — when the
  // coarse level itself is empty — a coarse re-base off the heap. Returns
  // false when nothing is pending anywhere.
  bool RefillL1();

  // Promotes the first nonempty coarse bucket into the fine wheel (append
  // order preserved) and anchors the fine window on its span.
  void PromoteNextL2Bucket();

  // Re-anchors the (empty) coarse level at the earliest far event and
  // migrates every heap event inside the new horizon, in (time, seq) order.
  void RebaseL2();

  // First nonempty bucket time at or after `from` (wheel must be nonempty).
  Time NextBucketTime(Time from) const;

  // Earliest pending event time across all three levels; false when empty.
  // Pure peek: used by RunUntil, which must not re-anchor windows without
  // immediately dispatching (Push's invariants key off fresh anchors).
  bool PeekNextTime(Time* out) const;

  void HeapPush(Event ev);
  Event HeapPopTop();
  void Dispatch(uintptr_t payload);

  Time now_ = 0;
  Time base_ = 0;
  uint64_t seq_ = 0;
  uint64_t events_processed_ = 0;
  uint64_t coroutine_events_ = 0;
  size_t wheel_count_ = 0;
  size_t pool_slots_ = 0;
  // Coarse level state; meaningful only while l2_count_ > 0. l2_cursor_ is
  // the start of the first unpromoted bucket (== base_ + kWheelSize whenever
  // a bucket has been promoted, because a coarse bucket IS a fine window).
  Time l2_base_ = 0;
  Time l2_cursor_ = 0;
  size_t l2_count_ = 0;
  PoolVec<Event> heap_;
  std::array<Bucket, kWheelSize> buckets_;
  std::array<uint64_t, kBitmapWords> bitmap_{};
  std::array<L2Bucket, kL2Buckets> l2_buckets_;
  std::array<uint64_t, kL2BitmapWords> l2_bitmap_{};
  std::vector<std::unique_ptr<CallbackSlot[]>> slabs_;
  CallbackSlot* free_slots_ = nullptr;
  Rng rng_;
};

}  // namespace swarm::sim

#endif  // SWARM_SRC_SIM_SIMULATOR_H_
