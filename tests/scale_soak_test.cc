// Million-key scale soak: crash-recover repair cost must be proportional to
// the NODE, not the store.
//
// Two clusters with the SAME per-node share of the keyspace but an 8x
// difference in total store size run the same crash-recover cycle:
//
//   small:  SCALE_KEYS/8 keys over  4 nodes
//   big:    SCALE_KEYS   keys over 32 nodes
//
// Per node both host ~3K/32 replica slots, so if repair works only on the
// node's own slots (O(slots-on-node)) the measured per-repair work — the
// RepairService's slots_walked counter — stays flat across the 8x growth.
// A repair that walked every key in the store would show an ~8x ratio
// instead; the assertion allows 2x for placement and shard imbalance. The
// cost is MEASURED from counters the repair actually maintains, never
// asserted from code structure. Finding the node's slots is a host-side
// filter over the whole index (IndexService::ForEachSlotOn, O(store)); that
// host cost shows in the wall time, not in the counter.
//
// SCALE_KEYS sizes the run: unset/tier-1 = 20000 (seconds), the CI
// scale-soak job sets 200000. Every run prints its seed and counters so a
// failure replays deterministically from the log artifact.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "src/index/client_cache.h"
#include "src/index/index_service.h"
#include "src/kv/swarm_kv.h"
#include "src/membership/membership.h"
#include "src/repair/repair.h"
#include "tests/support/test_env.h"

namespace swarm {
namespace {

using testing::TestEnv;
using testing::ValN;

uint64_t ScaleKeys() {
  const char* env = std::getenv("SCALE_KEYS");
  if (env != nullptr) {
    const long long v = std::atoll(env);
    if (v >= 1000) {
      return static_cast<uint64_t>(v);
    }
  }
  return 20000;
}

struct SoakResult {
  uint64_t repairs = 0;
  uint64_t slots_walked = 0;
  uint64_t slots_repaired = 0;
  uint64_t store_size = 0;
  bool reads_ok = true;

  double WalkPerRepair() const {
    return repairs == 0 ? 0.0
                        : static_cast<double>(slots_walked) / static_cast<double>(repairs);
  }
};

// Loads `keys` keys into a `num_nodes` cluster, runs an update round over a
// sample, then crash-recovers `crashes` distinct nodes back to back,
// verifying reads after each repair. Returns the measured repair work.
SoakResult RunSoak(uint64_t seed, int num_nodes, uint64_t keys, int crashes) {
  fabric::FabricConfig fcfg = TestEnv::DefaultFabric();
  fcfg.num_nodes = num_nodes;
  // Generous headroom: calloc-backed nodes only pay for touched pages.
  fcfg.node_capacity_bytes = 256ull << 20;
  TestEnv env(seed, fcfg);
  membership::MembershipService membership(&env.sim, &env.fabric,
                                           /*detection_delay=*/10 * sim::kMicrosecond);
  index::IndexService index(&env.sim);
  index::ClientCache cache;
  Worker& client = env.MakeWorker();
  client.set_repair_excluded(membership.repairing());
  testing::WireWorkerEpoch(client, membership);
  Worker& coord = env.MakeWorker();
  repair::RepairService svc(&membership, &coord);
  repair::IndexRepairSource source(&index, repair::LayoutProtocol::kSafeGuess);
  svc.RegisterStore(&source);
  kv::SwarmKvSession kv(&client, &index, &cache);
  kv.set_serving(membership.serving());

  SoakResult result;
  auto driver = [](TestEnv* env, membership::MembershipService* membership,
                   index::IndexService* index, repair::RepairService* svc,
                   kv::SwarmKvSession* kv, uint64_t keys2, int crashes2,
                   SoakResult* out) -> sim::Task<void> {
    for (uint64_t key = 0; key < keys2; ++key) {
      kv::KvResult r = co_await kv->Insert(key, ValN(48, static_cast<uint8_t>(key)));
      EXPECT_TRUE(r.ok()) << "insert failed at key " << key;
      if (!r.ok()) {
        co_return;  // One diagnosed failure beats thousands of cascades.
      }
    }
    // Update a 1-in-64 sample so repaired state is post-insert, not just the
    // initial image.
    for (uint64_t key = 0; key < keys2; key += 64) {
      kv::KvResult r = co_await kv->Update(key, ValN(48, static_cast<uint8_t>(key + 1)));
      EXPECT_TRUE(r.ok());
    }
    out->store_size = index->size();
    for (int c = 0; c < crashes2; ++c) {
      const int node = c;  // Distinct nodes, deterministic.
      const uint64_t walked_before = svc->slots_walked();
      const uint64_t repaired_before = svc->slots_repaired();
      membership->CrashNode(node);
      co_await env->sim.Delay(20 * sim::kMicrosecond);
      const bool readmitted = co_await svc->RecoverAndRepair(node);
      EXPECT_TRUE(readmitted) << "repair of node " << node << " gave up";
      ++out->repairs;
      out->slots_walked += svc->slots_walked() - walked_before;
      out->slots_repaired += svc->slots_repaired() - repaired_before;
      // Spot-check reads through quorums that may include the repaired
      // replica: a 1-in-256 sample plus the updated keys2' neighborhood.
      for (uint64_t key = 0; key < keys2; key += 257) {
        kv::KvResult r = co_await kv->Get(key);
        const bool ok = r.ok() && r.value.size() == 48;
        EXPECT_TRUE(ok) << "post-repair read of key " << key << " failed";
        out->reads_ok = out->reads_ok && ok;
      }
    }
  };
  sim::Spawn(driver(&env, &membership, &index, &svc, &kv, keys, crashes, &result));
  env.sim.Run();
  return result;
}

TEST(ScaleSoak, RepairWorkIsProportionalToNodeNotStore) {
  const uint64_t kKeys = ScaleKeys();
  const uint64_t kSeed = 20240808;
  std::printf("scale_soak: SCALE_KEYS=%llu seed=%llu\n",
              static_cast<unsigned long long>(kKeys), static_cast<unsigned long long>(kSeed));

  // Same per-node share: small hosts (K/8)*3/4 slots per node, big K*3/32.
  SoakResult small = RunSoak(kSeed, /*num_nodes=*/4, kKeys / 8, /*crashes=*/2);
  SoakResult big = RunSoak(kSeed + 1, /*num_nodes=*/32, kKeys, /*crashes=*/2);

  std::printf("scale_soak: small store=%llu repairs=%llu walk/repair=%.0f repaired=%llu\n",
              static_cast<unsigned long long>(small.store_size),
              static_cast<unsigned long long>(small.repairs), small.WalkPerRepair(),
              static_cast<unsigned long long>(small.slots_repaired));
  std::printf("scale_soak: big   store=%llu repairs=%llu walk/repair=%.0f repaired=%llu\n",
              static_cast<unsigned long long>(big.store_size),
              static_cast<unsigned long long>(big.repairs), big.WalkPerRepair(),
              static_cast<unsigned long long>(big.slots_repaired));

  ASSERT_EQ(small.store_size, kKeys / 8);
  ASSERT_EQ(big.store_size, kKeys);
  ASSERT_TRUE(small.reads_ok && big.reads_ok);
  ASSERT_GT(small.WalkPerRepair(), 0.0);
  ASSERT_GT(big.WalkPerRepair(), 0.0);

  // The store grew 8x; per-repair work must NOT. Allow 2x for placement
  // imbalance between the two cluster shapes.
  const double ratio = big.WalkPerRepair() / small.WalkPerRepair();
  std::printf("scale_soak: per-repair work ratio (big/small) = %.2fx (store grew 8x)\n", ratio);
  EXPECT_LE(ratio, 2.0) << "repair walk scales with store size, not node share";
}

}  // namespace
}  // namespace swarm
