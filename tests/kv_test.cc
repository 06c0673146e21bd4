// Integration tests for the four key-value stores (SWARM-KV, RAW, DM-ABD,
// FUSEE): basic CRUD semantics, cache behaviour, roundtrip structure
// (Table 2), delete/re-insert races, failure handling, and the index
// service's per-shard server occupancy.

#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/index/shard_router.h"
#include "src/kv/dm_abd_kv.h"
#include "src/kv/fusee_kv.h"
#include "src/kv/raw_kv.h"
#include "src/kv/swarm_kv.h"
#include "src/sim/sync.h"
#include "src/swarm/abd.h"
#include "src/swarm/safe_guess.h"
#include "tests/support/test_env.h"

namespace swarm::kv {
namespace {

using sim::Spawn;
using sim::Task;
using testing::TestEnv;
using testing::ValN;

// Bundles one client environment for a given store type.
struct KvFixture {
  explicit KvFixture(uint64_t seed = 1) : env(seed), indexsvc(&env.sim), fusee(&env.fabric) {}

  std::unique_ptr<KvSession> Make(const std::string& kind) { return Make(kind, &cache); }

  // A further client process with its own location cache.
  std::unique_ptr<KvSession> Make(const std::string& kind, index::ClientCache* own_cache) {
    Worker& w = env.MakeWorker();
    if (kind == "swarm") {
      return std::make_unique<SwarmKvSession>(&w, &indexsvc, own_cache);
    }
    if (kind == "raw") {
      return std::make_unique<RawKvSession>(&w, &indexsvc, own_cache);
    }
    if (kind == "dmabd") {
      return std::make_unique<DmAbdKvSession>(&w, &indexsvc, own_cache);
    }
    return std::make_unique<FuseeKvSession>(&w, &fusee, own_cache);
  }

  TestEnv env;
  index::IndexService indexsvc;
  index::ClientCache cache;
  FuseeStore fusee;
};

Task<void> CrudSequence(KvSession* kv, bool* done) {
  // Insert → get → update → get → remove → get.
  KvResult ins = co_await kv->Insert(1, ValN(32, 0xA1));
  EXPECT_TRUE(ins.ok());

  KvResult g1 = co_await kv->Get(1);
  EXPECT_EQ(g1.status, KvStatus::kOk);
  EXPECT_EQ(g1.value, ValN(32, 0xA1));

  KvResult up = co_await kv->Update(1, ValN(32, 0xB2));
  EXPECT_EQ(up.status, KvStatus::kOk);

  KvResult g2 = co_await kv->Get(1);
  EXPECT_EQ(g2.status, KvStatus::kOk);
  EXPECT_EQ(g2.value, ValN(32, 0xB2));

  KvResult rm = co_await kv->Remove(1);
  EXPECT_EQ(rm.status, KvStatus::kOk);

  KvResult g3 = co_await kv->Get(1);
  EXPECT_EQ(g3.status, KvStatus::kNotFound);

  KvResult miss = co_await kv->Get(42);
  EXPECT_EQ(miss.status, KvStatus::kNotFound);

  KvResult upmiss = co_await kv->Update(42, ValN(8, 1));
  EXPECT_EQ(upmiss.status, KvStatus::kNotFound);
  *done = true;
}

class KvCrud : public ::testing::TestWithParam<const char*> {};

TEST_P(KvCrud, FullLifecycle) {
  KvFixture fx;
  auto kv = fx.Make(GetParam());
  bool done = false;
  Spawn(CrudSequence(kv.get(), &done));
  fx.env.sim.Run();
  EXPECT_TRUE(done);
}

INSTANTIATE_TEST_SUITE_P(Stores, KvCrud, ::testing::Values("swarm", "raw", "dmabd", "fusee"));

// Regression: a remove through a stale cached location used to
// fire-and-forget the generation-guarded unmap, tombstone a dead region,
// and report kOk while the re-inserted live mapping survived untouched.
TEST(RawKv, StaleCachedRemoveDeletesTheLiveMapping) {
  KvFixture fx;
  auto a = fx.Make("raw");
  index::ClientCache cache_b;
  Worker& wb = fx.env.MakeWorker();
  RawKvSession b(&wb, &fx.indexsvc, &cache_b);

  bool done = false;
  auto driver = [](KvSession* a, KvSession* b, bool* done2) -> Task<void> {
    // Seed a's cache, then delete + re-insert the key through b: a's cached
    // location now points at a dead region and a stale generation.
    EXPECT_TRUE((co_await a->Insert(1, ValN(16, 0xA1))).ok());
    EXPECT_EQ((co_await b->Remove(1)).status, KvStatus::kOk);
    EXPECT_TRUE((co_await b->Insert(1, ValN(16, 0xB2))).ok());
    // The stale-cached remove must kill the LIVE mapping before claiming
    // kOk...
    KvResult rm = co_await a->Remove(1);
    EXPECT_EQ(rm.status, KvStatus::kOk);
    // ... so absence is observable afterwards from every vantage point.
    KvResult g = co_await b->Get(1);
    EXPECT_EQ(g.status, KvStatus::kNotFound);
    *done2 = true;
  };
  Spawn(driver(a.get(), &b, &done));
  fx.env.sim.Run();
  EXPECT_TRUE(done);
}

// Regression companion: a get through the same stale cached location reads
// the dead region's tombstone and used to report kNotFound while the
// re-inserted value was live — it must re-locate through the index instead.
TEST(RawKv, StaleCachedGetFollowsTheReinsertedKey) {
  KvFixture fx;
  auto a = fx.Make("raw");
  index::ClientCache cache_b;
  Worker& wb = fx.env.MakeWorker();
  RawKvSession b(&wb, &fx.indexsvc, &cache_b);

  bool done = false;
  auto driver = [](KvSession* a, KvSession* b, bool* done2) -> Task<void> {
    EXPECT_TRUE((co_await a->Insert(1, ValN(16, 0xA1))).ok());
    EXPECT_EQ((co_await b->Remove(1)).status, KvStatus::kOk);
    EXPECT_TRUE((co_await b->Insert(1, ValN(16, 0xB2))).ok());
    KvResult g = co_await a->Get(1);
    EXPECT_EQ(g.status, KvStatus::kOk);
    EXPECT_EQ(g.value, ValN(16, 0xB2));
    EXPECT_EQ(g.rtts, 3);  // Dead-region read + index re-locate + live read.
    *done2 = true;
  };
  Spawn(driver(a.get(), &b, &done));
  fx.env.sim.Run();
  EXPECT_TRUE(done);
}

TEST(SwarmKv, SteadyStateOpsAreSingleRoundtrip) {
  KvFixture fx;
  auto kv = fx.Make("swarm");
  auto driver = [](sim::Simulator* sim, KvSession* kv) -> Task<void> {
    (void)co_await kv->Insert(7, ValN(64, 1));
    co_await sim->Delay(20000);  // Let the background VERIFIED promotion land.
    for (int i = 0; i < 5; ++i) {
      KvResult up = co_await kv->Update(7, ValN(64, static_cast<uint8_t>(i)));
      EXPECT_EQ(up.rtts, 1) << "update " << i;
      EXPECT_TRUE(up.fast_path);
      KvResult g = co_await kv->Get(7);
      EXPECT_EQ(g.rtts, 1) << "get " << i;
      EXPECT_EQ(g.value, ValN(64, static_cast<uint8_t>(i)));
    }
  };
  Spawn(driver(&fx.env.sim, kv.get()));
  fx.env.sim.Run();
}

TEST(SwarmKv, CacheMissCostsExtraRoundtrips) {
  KvFixture fx;
  auto writer = fx.Make("swarm");
  // A second client with its own empty cache.
  index::ClientCache other_cache;
  Worker& w2 = fx.env.MakeWorker();
  SwarmKvSession reader(&w2, &fx.indexsvc, &other_cache);

  auto driver = [](KvSession* writer, SwarmKvSession* reader) -> Task<void> {
    (void)co_await writer->Insert(9, ValN(16, 5));
    KvResult g = co_await reader->Get(9);
    EXPECT_EQ(g.status, KvStatus::kOk);
    EXPECT_FALSE(g.cache_hit);
    EXPECT_EQ(g.rtts, 2);  // Index lookup + read.
    KvResult g2 = co_await reader->Get(9);
    EXPECT_TRUE(g2.cache_hit);
    EXPECT_EQ(g2.rtts, 1);
    // §7.1: updates on a cache miss pay 2 extra RTs (index + metadata read).
    KvResult u = co_await reader->Update(10, ValN(16, 6));
    EXPECT_EQ(u.status, KvStatus::kNotFound);
    (void)co_await writer->Insert(10, ValN(16, 6));
    index::ClientCache fresh;
    KvResult u2 = co_await reader->Update(10, ValN(16, 7));
    EXPECT_EQ(u2.status, KvStatus::kOk);
  };
  Spawn(driver(writer.get(), &reader));
  fx.env.sim.Run();
}

TEST(KvRoundtrips, Table2CommonCase) {
  // Steady-state roundtrips with warm caches must match Table 2.
  KvFixture fx;
  auto swarm = fx.Make("swarm");
  index::ClientCache c2;
  index::ClientCache c3;
  index::ClientCache c4;
  Worker& w2 = fx.env.MakeWorker();
  Worker& w3 = fx.env.MakeWorker();
  Worker& w4 = fx.env.MakeWorker();
  RawKvSession raw(&w2, &fx.indexsvc, &c2);
  DmAbdKvSession dmabd(&w3, &fx.indexsvc, &c3);
  FuseeKvSession fusee(&w4, &fx.fusee, &c4);

  auto driver = [](KvSession* swarm, KvSession* raw, KvSession* dmabd,
                   KvSession* fusee) -> Task<void> {
    (void)co_await swarm->Insert(1, ValN(64, 1));
    (void)co_await raw->Insert(2, ValN(64, 1));
    (void)co_await dmabd->Insert(3, ValN(64, 1));
    (void)co_await fusee->Insert(4, ValN(64, 1));
    // Warm up caches.
    (void)co_await swarm->Get(1);
    (void)co_await raw->Get(2);
    (void)co_await dmabd->Get(3);
    (void)co_await fusee->Get(4);

    KvResult r;
    r = co_await swarm->Get(1);
    EXPECT_EQ(r.rtts, 1);
    r = co_await swarm->Update(1, ValN(64, 2));
    EXPECT_EQ(r.rtts, 1);
    r = co_await raw->Get(2);
    EXPECT_EQ(r.rtts, 1);
    r = co_await raw->Update(2, ValN(64, 2));
    EXPECT_EQ(r.rtts, 1);
    r = co_await dmabd->Get(3);
    EXPECT_EQ(r.rtts, 2);
    r = co_await dmabd->Update(3, ValN(64, 2));
    EXPECT_EQ(r.rtts, 2);
    r = co_await fusee->Get(4);
    EXPECT_EQ(r.rtts, 1);  // Own cache is fresh.
    r = co_await fusee->Update(4, ValN(64, 2));
    EXPECT_EQ(r.rtts, 4);
    r = co_await fusee->Get(4);
    EXPECT_EQ(r.rtts, 1);
  };
  Spawn(driver(swarm.get(), &raw, &dmabd, &fusee));
  fx.env.sim.Run();
}

TEST(FuseeKv, StaleCacheCostsSecondRoundtrip) {
  KvFixture fx;
  auto a = fx.Make("fusee");
  index::ClientCache cache_b;
  Worker& wb = fx.env.MakeWorker();
  FuseeKvSession b(&wb, &fx.fusee, &cache_b);

  auto driver = [](KvSession* a, KvSession* b) -> Task<void> {
    (void)co_await a->Insert(5, ValN(16, 1));
    (void)co_await b->Get(5);  // b caches the location.
    (void)co_await a->Update(5, ValN(16, 2));  // a moves the value.
    KvResult g = co_await b->Get(5);
    EXPECT_EQ(g.status, KvStatus::kOk);
    EXPECT_EQ(g.value, ValN(16, 2));
    EXPECT_EQ(g.rtts, 2);  // Old block forwarded: one extra roundtrip.
    EXPECT_FALSE(g.fast_path);
    KvResult g2 = co_await b->Get(5);
    EXPECT_EQ(g2.rtts, 1);  // Cache refreshed.
  };
  Spawn(driver(a.get(), &b));
  fx.env.sim.Run();
}

// SWARM-KV and DM-ABD run one session engine (src/kv/indexed_kv.h) over
// different register protocols; these cases drive it over both.
class IndexedKv : public ::testing::TestWithParam<const char*> {};

TEST_P(IndexedKv, DeletedKeyDetectedThroughStaleCache) {
  KvFixture fx;
  auto a = fx.Make(GetParam());
  index::ClientCache cache_b;
  auto b = fx.Make(GetParam(), &cache_b);

  auto driver = [](KvSession* a, KvSession* b, index::ClientCache* cb) -> Task<void> {
    (void)co_await a->Insert(6, ValN(16, 1));
    (void)co_await b->Get(6);  // b caches the replicas.
    (void)co_await a->Remove(6);
    // b's cached replicas now carry the tombstone: the get must observe the
    // delete, flush its cache, and report not-found (§5.3.4).
    KvResult g = co_await b->Get(6);
    EXPECT_EQ(g.status, KvStatus::kNotFound);
    EXPECT_EQ(cb->stats().invalidations, 1u);
  };
  Spawn(driver(a.get(), b.get(), &cache_b));
  fx.env.sim.Run();
}

TEST_P(IndexedKv, ReinsertAfterDeleteWorks) {
  KvFixture fx;
  auto kv = fx.Make(GetParam());
  auto driver = [](KvSession* kv) -> Task<void> {
    (void)co_await kv->Insert(8, ValN(16, 1));
    (void)co_await kv->Remove(8);
    KvResult ins = co_await kv->Insert(8, ValN(16, 9));
    EXPECT_TRUE(ins.ok());
    KvResult g = co_await kv->Get(8);
    EXPECT_EQ(g.status, KvStatus::kOk);
    EXPECT_EQ(g.value, ValN(16, 9));
  };
  Spawn(driver(kv.get()));
  fx.env.sim.Run();
}

TEST_P(IndexedKv, InsertRaceTurnsIntoUpdate) {
  KvFixture fx;
  auto a = fx.Make(GetParam());
  index::ClientCache cache_b;
  auto b = fx.Make(GetParam(), &cache_b);

  int oks = 0;
  int exists = 0;
  auto racer = [](KvSession* kv, uint8_t fill, int* oks, int* exists) -> Task<void> {
    KvResult r = co_await kv->Insert(11, testing::ValN(16, fill));
    if (r.status == KvStatus::kOk) {
      ++*oks;
    } else if (r.status == KvStatus::kExists) {
      ++*exists;
    }
  };
  Spawn(racer(a.get(), 1, &oks, &exists));
  Spawn(racer(b.get(), 2, &oks, &exists));
  fx.env.sim.Run();
  EXPECT_EQ(oks, 1);
  EXPECT_EQ(exists, 1);

  // Both clients must now read a single winning value.
  bool checked = false;
  auto check = [](KvSession* kv, bool* checked2) -> Task<void> {
    KvResult g = co_await kv->Get(11);
    EXPECT_EQ(g.status, KvStatus::kOk);
    EXPECT_EQ(g.value.size(), 16u);
    *checked2 = true;
  };
  Spawn(check(a.get(), &checked));
  fx.env.sim.Run();
  EXPECT_TRUE(checked);
}

// Tombstones `layout` with the register protocol the store runs over, the
// way a deleter does (§5.3.2) — without its background index unmap.
Task<SgWriteResult> TombstoneObject(bool abd, Worker* w, const ObjectLayout* layout) {
  if (abd) {
    AbdObject obj(w, layout, w->SlotCacheFor(layout));
    co_return co_await obj.Delete();
  }
  SafeGuessObject obj(w, layout, w->SlotCacheFor(layout));
  co_return co_await obj.Delete();
}

// Regression: a deleter that crashed between replicating its tombstone and
// unmapping the key leaves a mapped, tombstoned object. An insert must
// overwrite it (§5.3.1: unmap the dead mapping and retry with fresh
// replicas). DM-ABD's private insert path used to report kNotFound — not an
// insert outcome — and write nothing.
TEST_P(IndexedKv, InsertOverMappedTombstoneSucceeds) {
  KvFixture fx;
  auto a = fx.Make(GetParam());
  index::ClientCache cache_b;
  auto b = fx.Make(GetParam(), &cache_b);
  Worker& deleter = fx.env.MakeWorker();
  const bool abd = std::string(GetParam()) == "dmabd";

  bool done = false;
  auto driver = [](KvFixture* fx, KvSession* a, KvSession* b, Worker* deleter, bool abd2,
                   bool* done2) -> Task<void> {
    EXPECT_EQ((co_await a->Insert(14, ValN(16, 1))).status, KvStatus::kOk);
    const index::IndexEntry* mapped = fx->indexsvc.Peek(14);
    if (mapped == nullptr) {
      ADD_FAILURE() << "the insert left no mapping";
      co_return;
    }
    const LayoutPin layout = mapped->layout;
    SgWriteResult del = co_await TombstoneObject(abd2, deleter, layout.get());
    EXPECT_EQ(del.status, SgStatus::kOk);
    EXPECT_NE(fx->indexsvc.Peek(14), nullptr) << "the tombstoned object must stay mapped";

    KvResult ins = co_await b->Insert(14, ValN(16, 2));
    EXPECT_EQ(ins.status, KvStatus::kOk);
    KvResult g = co_await b->Get(14);
    EXPECT_EQ(g.status, KvStatus::kOk);
    EXPECT_EQ(g.value, ValN(16, 2));
    // A's cached location is the tombstoned object: it must follow the
    // index to the new mapping.
    KvResult ga = co_await a->Get(14);
    EXPECT_EQ(ga.status, KvStatus::kOk);
    EXPECT_EQ(ga.value, ValN(16, 2));
    *done2 = true;
  };
  Spawn(driver(&fx, a.get(), b.get(), &deleter, abd, &done));
  fx.env.sim.Run();
  EXPECT_TRUE(done);
}

INSTANTIATE_TEST_SUITE_P(Stores, IndexedKv, ::testing::Values("swarm", "dmabd"),
                         [](const ::testing::TestParamInfo<const char*>& param_info) {
                           return std::string(param_info.param);
                         });

TEST(SwarmKv, SurvivesNodeCrashNoDowntime) {
  KvFixture fx;
  auto kv = fx.Make("swarm");
  auto driver = [](KvFixture* fx, KvSession* kv) -> Task<void> {
    (void)co_await kv->Insert(12, ValN(16, 1));
    fx->env.fabric.Crash(0);
    KvResult g = co_await kv->Get(12);
    EXPECT_EQ(g.status, KvStatus::kOk);  // Escalation, no recovery pause.
    KvResult u = co_await kv->Update(12, ValN(16, 2));
    EXPECT_EQ(u.status, KvStatus::kOk);
  };
  Spawn(driver(&fx, kv.get()));
  fx.env.sim.Run();
}

TEST(FuseeKv, NodeCrashCausesRecoveryPause) {
  KvFixture fx;
  auto kv = fx.Make("fusee");
  sim::Time blocked_for = 0;
  auto driver = [](KvFixture* fx, KvSession* kv, sim::Time* blocked) -> Task<void> {
    (void)co_await kv->Insert(13, ValN(16, 1));
    // Crash the key's primary node (whatever it is): crash all but one to be
    // sure the op trips over a failure.
    fx->env.fabric.Crash(0);
    fx->env.fabric.Crash(1);
    fx->env.fabric.Crash(2);
    const sim::Time start = fx->env.sim.Now();
    KvResult g = co_await kv->Get(13);
    *blocked = fx->env.sim.Now() - start;
    (void)g;
  };
  Spawn(driver(&fx, kv.get(), &blocked_for));
  fx.env.sim.Run();
  // Tens of milliseconds of unavailability (vs SWARM's microseconds).
  EXPECT_GE(blocked_for, 40 * sim::kMillisecond);
}

// --- Index sharding: server occupancy ----------------------------------------

// When each of `keys` finishes its Lookup, all started at t=0 over a 680 ns
// one-way link with no jitter and no client CPU, each shard server holding
// an op for 1,000 ns.
std::vector<sim::Time> LookupCompletions(int shards, const std::vector<uint64_t>& keys) {
  sim::Simulator sim(1);
  index::IndexService index(&sim, /*fabric=*/nullptr, /*one_way_delay=*/680, /*jitter=*/0,
                            index::IndexService::kSubmitCost, shards);
  index.set_shard_service_time(1000);
  std::vector<sim::Time> done(keys.size(), 0);
  auto lookup = [](sim::Simulator* sim, index::IndexService* index, uint64_t key,
                   sim::Time* at) -> Task<void> {
    EXPECT_FALSE((co_await index->Lookup(key, /*cpu=*/nullptr)).has_value());
    *at = sim->Now();
  };
  for (size_t i = 0; i < keys.size(); ++i) {
    Spawn(lookup(&sim, &index, keys[i], &done[i]));
  }
  sim.Run();
  return done;
}

TEST(IndexShards, AShardSerializesOnlyItsOwnKeys) {
  // Two keys on shard 0, then one on shard 1.
  const index::ShardRouter router(2);
  std::vector<uint64_t> keys;
  for (uint64_t key = 0; keys.size() < 2; ++key) {
    if (router.ShardOf(key) == 0) {
      keys.push_back(key);
    }
  }
  for (uint64_t key = 0; keys.size() < 3; ++key) {
    if (router.ShardOf(key) == 1) {
      keys.push_back(key);
    }
  }
  // One server queues all three; with two, the shard-1 key does not wait.
  EXPECT_EQ(LookupCompletions(1, keys), (std::vector<sim::Time>{2360, 3360, 4360}));
  EXPECT_EQ(LookupCompletions(2, keys), (std::vector<sim::Time>{2360, 3360, 2360}));
}

}  // namespace
}  // namespace swarm::kv
