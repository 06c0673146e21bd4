// Doorbell batching (§7.2): a quorum operation posts verbs to R replicas
// under ONE amortized submit_cost, the generic PostMany/PostBoth helpers ring
// one doorbell for arbitrary verb sets, and batching is semantics-preserving:
// a single-writer workload produces identical per-operation results with
// batching on and off (only virtual time shifts, and only downwards).

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <memory>
#include <vector>

#include "src/index/client_cache.h"
#include "src/index/index_service.h"
#include "src/kv/swarm_kv.h"
#include "src/sim/sync.h"
#include "src/swarm/quorum_max.h"
#include "src/swarm/timestamp_lock.h"
#include "tests/support/test_env.h"

namespace swarm {
namespace {

using sim::Spawn;
using sim::Task;
using testing::TestEnv;
using testing::ValN;

// A quorum-of-3 verified write posts its per-replica verb pipelines (a
// WRITE→CAS per replica, plus the in-place refresh at the designated one)
// under a single doorbell: the ClientCpu is charged exactly one submit_cost.
TEST(DoorbellBatching, QuorumWriteConsumesOneSubmitCost) {
  TestEnv env;
  Worker& w = env.MakeWorker();
  const LayoutPin layout = env.MakeObject();
  const sim::Time submit = env.fabric.config().submit_cost;

  auto driver = [](TestEnv* env, Worker* w, LayoutPin layout2, sim::Time submit2) -> Task<void> {
    QuorumMax reg(w, w->SlotCacheFor(layout2));
    const sim::Time busy_before = w->cpu()->busy_ns();
    const uint64_t verbs_before = env->fabric.stats().ops_issued;
    WriteReadOutcome wr = co_await reg.WriteAndRead(Meta::Pack(5, 0, false, 0), ValN(32, 0xC3));
    EXPECT_TRUE(wr.ok);
    // The first wave reached a majority without retries: one doorbell.
    EXPECT_EQ(w->cpu()->busy_ns() - busy_before, submit2);
    // ... despite posting several verbs (a WriteThenCas counts two).
    EXPECT_GE(env->fabric.stats().ops_issued - verbs_before, 4u);
  };
  Spawn(driver(&env, &w, layout, submit));
  env.sim.Run();
  EXPECT_GE(env.fabric.stats().batches, 1u);
  EXPECT_GE(env.fabric.stats().batched_verbs, 3u);
}

// TRYLOCK contacts ALL R replicas — R CAS verbs, one submit_cost.
TEST(DoorbellBatching, LockMulticastsToAllReplicasUnderOneDoorbell) {
  TestEnv env;
  Worker& w = env.MakeWorker();
  const LayoutPin layout = env.MakeObject();

  auto driver = [](TestEnv* env, Worker* w, LayoutPin layout2) -> Task<void> {
    const sim::Time busy_before = w->cpu()->busy_ns();
    const uint64_t cas_before = env->fabric.stats().casses;
    const uint64_t doorbells_before = env->fabric.stats().doorbells;
    TimestampLock lock(w, layout2, w->tid());
    TryLockResult r = co_await lock.TryLock(3, LockMode::kWrite);
    EXPECT_TRUE(r.quorum_ok);
    EXPECT_TRUE(r.acquired);
    EXPECT_EQ(env->fabric.stats().casses - cas_before,
              static_cast<uint64_t>(layout2->num_replicas));
    EXPECT_EQ(env->fabric.stats().doorbells - doorbells_before, 1u);
    EXPECT_EQ(w->cpu()->busy_ns() - busy_before, env->fabric.config().submit_cost);
  };
  Spawn(driver(&env, &w, layout));
  env.sim.Run();
}

// Fabric::PostMany posts N verbs to DIFFERENT nodes under one doorbell and
// returns their results in order.
TEST(DoorbellBatching, PostManySpansNodes) {
  TestEnv env;
  Worker& w = env.MakeWorker();
  const int n = env.fabric.num_nodes();
  std::vector<uint64_t> addrs;
  for (int i = 0; i < n; ++i) {
    addrs.push_back(env.fabric.node(i).Allocate(8));
    env.fabric.node(i).StoreWord(addrs.back(), 100 + static_cast<uint64_t>(i));
  }

  auto driver = [](TestEnv* env, Worker* w, std::vector<uint64_t> addrs2, int n2) -> Task<void> {
    std::vector<std::vector<uint8_t>> bufs(static_cast<size_t>(n2), std::vector<uint8_t>(8));
    sim::PoolVec<sim::Task<fabric::OpResult>> verbs;
    for (int i = 0; i < n2; ++i) {
      verbs.push_back(w->qp(i).Read(addrs2[static_cast<size_t>(i)], bufs[static_cast<size_t>(i)]));
    }
    const sim::Time busy_before = w->cpu()->busy_ns();
    sim::PoolVec<fabric::OpResult> results =
        co_await fabric::PostMany(w->cpu(), &env->sim, std::move(verbs));
    EXPECT_EQ(w->cpu()->busy_ns() - busy_before, env->fabric.config().submit_cost);
    EXPECT_EQ(results.size(), static_cast<size_t>(n2));
    for (int i = 0; i < n2 && results.size() == static_cast<size_t>(n2); ++i) {
      EXPECT_TRUE(results[static_cast<size_t>(i)].ok());
      uint64_t word = 0;
      std::memcpy(&word, bufs[static_cast<size_t>(i)].data(), 8);
      EXPECT_EQ(word, 100 + static_cast<uint64_t>(i));
    }
  };
  Spawn(driver(&env, &w, addrs, n));
  env.sim.Run();
  EXPECT_EQ(env.fabric.stats().batched_verbs, static_cast<uint64_t>(n));
  EXPECT_EQ(env.fabric.stats().batches, 1u);
}

// The per-doorbell WQE budget (FabricConfig::max_wqe_per_doorbell, 16 by
// default): a batch whose WQEs would overflow it rings a fresh doorbell and
// pays submit_cost again. A pipelined WRITE->CAS series carries two WQEs, so
// eight series fill one doorbell and a ninth splits it.
TEST(DoorbellBatching, WqeBudgetSplitsOversizedDoorbells) {
  TestEnv env;
  Worker& w = env.MakeWorker();
  ASSERT_EQ(env.fabric.config().max_wqe_per_doorbell, 16);
  const uint64_t addr = env.fabric.node(0).Allocate(16);

  struct Case {
    bool series;  // WriteThenCas (2 WQEs) instead of Read (1 WQE).
    int verbs;
    uint64_t doorbells;
  };
  auto driver = [](TestEnv* env, Worker* w, uint64_t addr2, Case c) -> Task<void> {
    std::vector<std::vector<uint8_t>> bufs(static_cast<size_t>(c.verbs),
                                           std::vector<uint8_t>(8));
    sim::PoolVec<sim::Task<fabric::OpResult>> verbs;
    for (auto& buf : bufs) {
      verbs.push_back(c.series ? w->qp(0).WriteThenCas(addr2, buf, addr2 + 8, 0, 0)
                               : w->qp(0).Read(addr2, buf));
    }
    const fabric::FabricStats before = env->fabric.stats();
    const sim::Time busy_before = w->cpu()->busy_ns();
    sim::PoolVec<fabric::OpResult> results =
        co_await fabric::PostMany(w->cpu(), &env->sim, std::move(verbs));
    const fabric::FabricStats& after = env->fabric.stats();
    for (const fabric::OpResult& r : results) {
      EXPECT_TRUE(r.ok());
    }
    EXPECT_EQ(after.doorbells - before.doorbells, c.doorbells);
    EXPECT_EQ(after.doorbell_splits - before.doorbell_splits, c.doorbells - 1);
    EXPECT_EQ(after.batches - before.batches, 1u);
    EXPECT_EQ(after.batched_verbs - before.batched_verbs, static_cast<uint64_t>(c.verbs));
    EXPECT_EQ(w->cpu()->busy_ns() - busy_before,
              static_cast<sim::Time>(c.doorbells) * env->fabric.config().submit_cost);
  };
  for (const Case& c : {Case{false, 16, 1}, Case{false, 17, 2}, Case{true, 8, 1},
                        Case{true, 9, 2}}) {
    SCOPED_TRACE(::testing::Message() << (c.series ? "series " : "reads ") << c.verbs);
    Spawn(driver(&env, &w, addr, c));
    env.sim.Run();
  }
}

// --- Batched vs. unbatched determinism. ------------------------------------

struct KvTrace {
  std::vector<int> statuses;
  std::vector<std::vector<uint8_t>> values;
  std::vector<sim::Time> latencies;
  sim::Time end_time = 0;
  uint64_t events = 0;
  uint64_t batches = 0;
};

// A single sequential client: operation outcomes depend only on the
// operation order, never on verb timing, so batching must not change them.
KvTrace RunKv(uint64_t seed, bool batching) {
  fabric::FabricConfig fcfg = TestEnv::DefaultFabric();
  fcfg.doorbell_batching = batching;
  TestEnv env(seed, fcfg);
  index::IndexService index(&env.sim);
  index::ClientCache cache;
  Worker& w = env.MakeWorker();
  kv::SwarmKvSession kv(&w, &index, &cache);

  KvTrace trace;
  auto client = [](TestEnv* env, kv::SwarmKvSession* kv, uint64_t seed2, KvTrace* t) -> Task<void> {
    sim::Rng rng(seed2);
    for (int i = 0; i < 40; ++i) {
      co_await env->sim.Delay(static_cast<sim::Time>(rng.Below(3000)));
      const uint64_t key = rng.Below(6);
      const sim::Time t0 = env->sim.Now();
      kv::KvResult r;
      if (rng.Chance(0.3)) {
        r = co_await kv->Insert(key, ValN(16, static_cast<uint8_t>(i)));
      } else if (rng.Chance(0.5)) {
        r = co_await kv->Update(key, ValN(16, static_cast<uint8_t>(i + 100)));
      } else {
        r = co_await kv->Get(key);
      }
      t->statuses.push_back(static_cast<int>(r.status));
      t->values.push_back(r.value);
      t->latencies.push_back(env->sim.Now() - t0);
    }
  };
  Spawn(client(&env, &kv, seed * 5 + 3, &trace));
  env.sim.Run();
  trace.end_time = env.sim.Now();
  trace.events = env.sim.events_processed();
  trace.batches = env.fabric.stats().batches;
  return trace;
}

TEST(DoorbellBatching, SemanticsMatchUnbatchedAndOnlySpeedUp) {
  for (uint64_t seed : {1ull, 13ull}) {
    KvTrace batched = RunKv(seed, true);
    KvTrace plain = RunKv(seed, false);
    ASSERT_EQ(batched.statuses.size(), plain.statuses.size());
    for (size_t i = 0; i < batched.statuses.size(); ++i) {
      EXPECT_EQ(batched.statuses[i], plain.statuses[i]) << "seed " << seed << " op " << i;
      EXPECT_EQ(batched.values[i], plain.values[i]) << "seed " << seed << " op " << i;
    }
    EXPECT_GT(batched.batches, 0u);
    EXPECT_EQ(plain.batches, 0u);
    // Amortizing submissions can only move completions earlier.
    EXPECT_LT(batched.end_time, plain.end_time) << "seed " << seed;
  }
}

TEST(DoorbellBatching, EachModeIsBitwiseReproducible) {
  for (bool batching : {true, false}) {
    KvTrace a = RunKv(7, batching);
    KvTrace b = RunKv(7, batching);
    EXPECT_EQ(a.end_time, b.end_time);
    EXPECT_EQ(a.events, b.events);
    ASSERT_EQ(a.latencies.size(), b.latencies.size());
    for (size_t i = 0; i < a.latencies.size(); ++i) {
      EXPECT_EQ(a.latencies[i], b.latencies[i]) << "batching " << batching << " op " << i;
    }
  }
}

}  // namespace
}  // namespace swarm
