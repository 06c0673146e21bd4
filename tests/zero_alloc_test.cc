// Zero-allocation guard for the steady-state hot path.
//
// The allocation purge (ROADMAP item 3) moved every per-op allocation —
// coroutine frames, Counter/Waiter/OpState shared blocks, phase structs,
// value byte buffers — onto the FramePool's free-list slabs. This guard
// pins that property: after a warmup phase populates caches, pools, and
// container capacities, a steady-state read/write workload against each KV
// store (SWARM, DM-ABD, FUSEE) must perform ZERO heap allocations. Any
// regression (a stray make_shared, a std::vector on a hot struct, a
// std::function capture) shows up as a nonzero delta with op-granular
// attribution.
//
// Scope: the STEADY-STATE data path only. Chaos, crash repair, migration,
// and membership churn are exempt — they are rare, inherently allocating
// control paths (fresh layouts, history logs, repair queues) and are covered
// by their own suites. Under AddressSanitizer the pool intentionally
// delegates to ::operator new/delete to preserve use-after-free detection
// (see src/sim/pool.h), so the guard skips itself there.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>
#include <vector>

#include "src/index/client_cache.h"
#include "src/index/index_service.h"
#include "src/kv/dm_abd_kv.h"
#include "src/kv/fusee_kv.h"
#include "src/kv/swarm_kv.h"
#include "src/sim/pool.h"
#include "src/swarm/placement.h"
#include "tests/support/test_env.h"

// --- Global operator-new counting hooks (whole-binary, this TU defines). ---

// The replaced operators intentionally pair malloc/aligned_alloc with free;
// GCC's new/delete matcher cannot see that pairing and warns at inlined
// call sites in this TU.
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"

namespace {
uint64_t g_heap_allocs = 0;
bool g_trace = false;  // Set by SWARM_ZERO_ALLOC_TRACE: backtrace each alloc.
}  // namespace

#include <execinfo.h>
#include <malloc.h>

void* operator new(std::size_t n) {
  ++g_heap_allocs;
  if (g_trace) {
    g_trace = false;  // backtrace() itself may allocate; no recursion.
    void* frames[24];
    const int depth = backtrace(frames, 24);
    backtrace_symbols_fd(frames, depth, 2);
    const char nl = '\n';
    (void)!write(2, &nl, 1);
    g_trace = true;
  }
  void* p = std::malloc(n ? n : 1);
  if (p == nullptr) {
    throw std::bad_alloc();
  }
  return p;
}
void* operator new[](std::size_t n) { return operator new(n); }
void* operator new(std::size_t n, std::align_val_t al) {
  ++g_heap_allocs;
  void* p = std::aligned_alloc(static_cast<std::size_t>(al), n);
  if (p == nullptr) {
    throw std::bad_alloc();
  }
  return p;
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }

namespace swarm {
namespace {

using sim::Spawn;
using sim::Task;
using testing::TestEnv;
using testing::ValN;

#ifdef SWARM_POOL_BYPASS
constexpr bool kPoolBypassed = true;
#else
constexpr bool kPoolBypassed = false;
#endif

// One steady-state phase: a fixed mix of updates and gets over a key set the
// warmup already created. Writes a fresh value each round so out-of-place
// buffers, promotions, and slot-cache CASes all stay exercised.
template <typename Session>
Task<void> SteadyPhase(TestEnv* env, Session* kv, int rounds, int keys) {
  sim::Bytes value(48);  // Pooled: refilling it each op is heap-free.
  for (int i = 0; i < rounds; ++i) {
    for (uint64_t key = 0; key < static_cast<uint64_t>(keys); ++key) {
      std::fill(value.begin(), value.end(), static_cast<uint8_t>(i + key));
      kv::KvResult wr = co_await kv->Update(key, value);
      EXPECT_TRUE(wr.ok());
      kv::KvResult rd = co_await kv->Get(key);
      EXPECT_TRUE(rd.ok());
      EXPECT_EQ(rd.value.size(), 48u);
    }
    co_await env->sim.Delay(2000);
  }
}

// Drives warmup + measured steady state for one store; returns the number of
// heap allocations observed during the measured phase.
template <typename Session>
uint64_t MeasureSteadyState(TestEnv* env, Session* kv, int keys) {
  // Warmup: create the keys, then run enough steady rounds that every lazy
  // structure (caches, pool slabs, bucket capacities, QP state) reaches its
  // steady footprint.
  auto warmup = [](TestEnv* e, Session* s, int nkeys) -> Task<void> {
    for (uint64_t key = 0; key < static_cast<uint64_t>(nkeys); ++key) {
      kv::KvResult r = co_await s->Insert(key, ValN(48, static_cast<uint8_t>(key)));
      EXPECT_TRUE(r.ok());
    }
    // 60 rounds: long enough for slow-converging structures (the oop
    // quarantine queue recycles only after its ripening delay, so its
    // high-water mark takes tens of rounds to reach) to stop growing.
    co_await SteadyPhase(e, s, /*rounds=*/60, nkeys);
  };
  Spawn(warmup(env, kv, keys));
  env->sim.Run();

  const uint64_t before = g_heap_allocs;
  g_trace = std::getenv("SWARM_ZERO_ALLOC_TRACE") != nullptr;
  Spawn(SteadyPhase(env, kv, /*rounds=*/40, keys));
  env->sim.Run();
  g_trace = false;
  return g_heap_allocs - before;
}

TEST(ZeroAlloc, SwarmSteadyStateReadWriteIsHeapFree) {
  if (kPoolBypassed) {
    GTEST_SKIP() << "pool bypassed under ASan; allocation counting is meaningless";
  }
  TestEnv env(7);
  index::IndexService index(&env.sim);
  index::ClientCache cache;
  Worker& w = env.MakeWorker();
  kv::SwarmKvSession kv(&w, &index, &cache);
  EXPECT_EQ(MeasureSteadyState(&env, &kv, /*keys=*/4), 0u);
}

TEST(ZeroAlloc, DmAbdSteadyStateReadWriteIsHeapFree) {
  if (kPoolBypassed) {
    GTEST_SKIP() << "pool bypassed under ASan; allocation counting is meaningless";
  }
  TestEnv env(11);
  index::IndexService index(&env.sim);
  index::ClientCache cache;
  Worker& w = env.MakeWorker();
  kv::DmAbdKvSession kv(&w, &index, &cache);
  EXPECT_EQ(MeasureSteadyState(&env, &kv, /*keys=*/4), 0u);
}

TEST(ZeroAlloc, FuseeSteadyStateReadWriteIsHeapFree) {
  if (kPoolBypassed) {
    GTEST_SKIP() << "pool bypassed under ASan; allocation counting is meaningless";
  }
  TestEnv env(13);
  kv::FuseeStore store(&env.fabric);
  index::ClientCache cache;
  Worker& w = env.MakeWorker();
  kv::FuseeKvSession kv(&w, &store, &cache);
  EXPECT_EQ(MeasureSteadyState(&env, &kv, /*keys=*/4), 0u);
}

// Fresh-key inserts are not heap-free: each one allocates its layout block
// (which holds the inserting writer's slot-cache words inline) and its index
// and client-cache map nodes. Their number per insert is fixed, though, so
// the mean over 1,000 inserts is pinned: a new per-key block (a separate
// word block for the first writer again, say) fails here.
Task<void> FreshInserts(kv::SwarmKvSession* s, uint64_t first, uint64_t count) {
  sim::Bytes value(48);
  for (uint64_t key = first; key < first + count; ++key) {
    std::fill(value.begin(), value.end(), static_cast<uint8_t>(key));
    kv::KvResult r = co_await s->Insert(key, value);
    EXPECT_TRUE(r.ok());
  }
}

TEST(ZeroAlloc, SwarmFreshInsertAllocationBudget) {
  if (kPoolBypassed) {
    GTEST_SKIP() << "pool bypassed under ASan; allocation counting is meaningless";
  }
  TestEnv env(19);
  index::IndexService index(&env.sim);
  index::ClientCache cache;
  Worker& w = env.MakeWorker();
  kv::SwarmKvSession kv(&w, &index, &cache);
  constexpr uint64_t kInserts = 1000;
  Spawn(FreshInserts(&kv, 0, kInserts));  // Warm-up: pools, slabs, table sizes.
  env.sim.Run();
  const uint64_t before = g_heap_allocs;
  Spawn(FreshInserts(&kv, kInserts, kInserts));
  env.sim.Run();
  // 3.154 per insert: the three blocks above, one rehash each of the index
  // and the client cache, and the memory nodes' slab bookkeeping for the
  // extents the window opens (0.152). The first writer's slot-cache words
  // are the layout block's own: no block, no map node and no rehash. A
  // separate block for them would make it 4.154, and an index that kept a
  // map node per replica slot (three per insert) 6.154.
  constexpr uint64_t kBudget = 3154;
  EXPECT_LE(g_heap_allocs - before, kBudget)
      << "mean heap allocations per fresh-key insert: "
      << static_cast<double>(g_heap_allocs - before) / kInserts;
}

// The same inserts' heap footprint: bytes in use (glibc's mallinfo2, chunk
// sizes included) per live fresh key, with one worker and 3 replicas. The
// layout block with its 8 B replica records and the writer's inline words,
// and the index and client-cache entries are what a key costs the host;
// swarmbench's large_churn peak_rss_mb is dominated by them, and this is its
// tier-1 guard.
TEST(ZeroAlloc, SwarmFreshInsertHostBytesBudget) {
  if (kPoolBypassed) {
    GTEST_SKIP() << "pool bypassed under ASan; heap accounting is meaningless";
  }
  TestEnv env(19);
  ASSERT_EQ(env.proto.replicas, 3);
  index::IndexService index(&env.sim);
  index::ClientCache cache;
  Worker& w = env.MakeWorker();
  kv::SwarmKvSession kv(&w, &index, &cache);
  constexpr uint64_t kInserts = 4000;
  Spawn(FreshInserts(&kv, 0, kInserts));  // Warm-up: pools, slabs, table sizes.
  env.sim.Run();
  const size_t before = mallinfo2().uordblks;
  Spawn(FreshInserts(&kv, kInserts, kInserts));
  env.sim.Run();
  const double per_key = static_cast<double>(mallinfo2().uordblks - before) / kInserts;
  // 201.2 B: an 80 B chunk for the 72 B layout block (24 B header, 3
  // records, 3 inline words), 48 B index and 48 B client-cache map nodes
  // (16 B entries and 24 B entries behind their key and link), their
  // buckets and slab bookkeeping. An 88 B layout for kMaxReplicas records
  // under a shared_ptr, a separate word block and 32 B cache entries would
  // take 297.2 B; 16 B records and a per-worker map of 8-word slot caches
  // 419.6 B.
  constexpr double kBudget = 205;
  EXPECT_LE(per_key, kBudget) << "heap bytes per live fresh key";
}

// Placement is on the insert/migration planning path: the serving-probe
// pick must stay heap-free — it keeps no state, so it gets no warmup
// allowance at all.
TEST(ZeroAlloc, PlacementPickIsHeapFree) {
  if (kPoolBypassed) {
    GTEST_SKIP() << "pool bypassed under ASan; allocation counting is meaningless";
  }
  std::vector<bool> serving(16, true);
  serving[3] = false;
  int nodes[4];
  const uint64_t before = g_heap_allocs;
  for (uint64_t h = 0; h < 10000; ++h) {
    PlaceReplicas(h, 3, 16, &serving, nodes);
  }
  EXPECT_EQ(g_heap_allocs - before, 0u);
}

// The pool itself must also be quiescent at steady state: no slab refills
// once warm (free lists recycle), confirming the zero heap delta is "pool
// absorbs everything", not "pool grows forever".
TEST(ZeroAlloc, PoolStopsRefillingOnceWarm) {
  if (kPoolBypassed) {
    GTEST_SKIP() << "pool bypassed under ASan";
  }
  TestEnv env(17);
  index::IndexService index(&env.sim);
  index::ClientCache cache;
  Worker& w = env.MakeWorker();
  kv::SwarmKvSession kv(&w, &index, &cache);
  (void)MeasureSteadyState(&env, &kv, /*keys=*/4);
  const uint64_t refills_before = sim::FramePool::stats().slab_refills;
  Spawn(SteadyPhase(&env, &kv, /*rounds=*/40, /*keys=*/4));
  env.sim.Run();
  EXPECT_EQ(sim::FramePool::stats().slab_refills, refills_before);
}

}  // namespace
}  // namespace swarm
