// Live migration (src/repair/migration.h): unit coverage for the membership
// lifecycle state model, the serving-filtered placement, and the one
// MigrationService lifecycle — plan/graft/fence/copy/flip, abort, the
// migrate-vs-repair arbitration, admission, drain, extent moves and per-key
// serialization — run against all three stores (SWARM-KV and DM-ABD through
// IndexMigrationSource, FUSEE's two-slot re-homing through FuseeStore).
//
// The chaos-driven end of the same machinery — crash during migration,
// migrate during repair, concurrent grow+shrink, all linearizability-checked
// — lives in tests/chaos_migration_test.cc.

#include "src/repair/migration.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "src/index/client_cache.h"
#include "src/index/index_service.h"
#include "src/kv/dm_abd_kv.h"
#include "src/kv/fusee_kv.h"
#include "src/kv/swarm_kv.h"
#include "src/membership/membership.h"
#include "src/swarm/abd.h"
#include "src/swarm/placement.h"
#include "src/swarm/safe_guess.h"
#include "tests/support/test_env.h"

namespace swarm {
namespace {

using sim::Spawn;
using sim::Task;
using testing::ElasticFabric;
using testing::TestEnv;
using testing::ValN;
using testing::WireWorkerEpoch;

// --- Membership lifecycle state model (no coroutines needed) ---------------

TEST(MembershipLifecycle, AdmitJoinDrainDecommission) {
  TestEnv env(1, ElasticFabric(/*headroom=*/2));
  membership::MembershipService m(&env.sim, &env.fabric);

  // Pre-existing nodes start serving.
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(m.State(i), membership::NodeState::kServing);
    EXPECT_TRUE(m.IsServing(i));
    EXPECT_TRUE(m.CrashEligible(i));
  }

  // Admit: reachable, empty, excluded from placement.
  const int id = m.AdmitNode();
  ASSERT_EQ(id, 4);
  EXPECT_EQ(env.fabric.num_nodes(), 5);
  EXPECT_EQ(m.State(id), membership::NodeState::kJoining);
  EXPECT_FALSE(m.IsServing(id));
  EXPECT_TRUE(m.CrashEligible(id));

  // Join: placement may now choose it.
  m.CompleteJoin(id);
  EXPECT_EQ(m.State(id), membership::NodeState::kServing);
  EXPECT_TRUE(m.IsServing(id));

  // Drain: placement stops choosing it; it keeps serving what it owns.
  m.BeginDrain(id);
  EXPECT_EQ(m.State(id), membership::NodeState::kDraining);
  EXPECT_FALSE(m.IsServing(id));

  // Retire: switched off, never a chaos crash/restart candidate again.
  const uint64_t epoch_before = m.epoch();
  m.Decommission(id);
  EXPECT_EQ(m.State(id), membership::NodeState::kRetired);
  EXPECT_TRUE(m.IsRetired(id));
  EXPECT_FALSE(m.CrashEligible(id));
  EXPECT_GT(m.epoch(), epoch_before) << "retirement is a repair-relevant transition";

  // The fabric's lifetime bound caps admissions.
  EXPECT_EQ(m.AdmitNode(), 5);
  EXPECT_EQ(m.AdmitNode(), -1);
}

TEST(MembershipLifecycle, CompleteJoinCancelsDrain) {
  TestEnv env(1, ElasticFabric());
  membership::MembershipService m(&env.sim, &env.fabric);
  m.BeginDrain(2);
  EXPECT_FALSE(m.IsServing(2));
  m.CompleteJoin(2);  // An aborted drain returns the node to serving.
  EXPECT_EQ(m.State(2), membership::NodeState::kServing);
  EXPECT_TRUE(m.IsServing(2));
}

// --- Serving-filtered placement --------------------------------------------

TEST(Placement, NoFilterReducesToModularPlacement) {
  int nodes[3];
  PlaceReplicas(/*h=*/5, /*replicas=*/3, /*num_nodes=*/4, nullptr, nodes);
  EXPECT_EQ(nodes[0], 1);
  EXPECT_EQ(nodes[1], 2);
  EXPECT_EQ(nodes[2], 3);
}

TEST(Placement, ServingFilterSkipsNonServingNodes) {
  const std::vector<bool> serving = {true, false, true, true};
  int nodes[3];
  PlaceReplicas(/*h=*/0, /*replicas=*/3, /*num_nodes=*/4, &serving, nodes);
  // Candidates are {0, 2, 3}; node 1 must never appear.
  for (int n : nodes) {
    EXPECT_NE(n, 1);
  }
  EXPECT_EQ(nodes[0], 0);
  EXPECT_EQ(nodes[1], 2);
  EXPECT_EQ(nodes[2], 3);
}

TEST(Placement, DegenerateMembershipFallsBackToFullCluster) {
  const std::vector<bool> nothing_serving = {false, false, false, false};
  int nodes[3];
  PlaceReplicas(/*h=*/0, /*replicas=*/3, /*num_nodes=*/4, &nothing_serving, nodes);
  EXPECT_EQ(nodes[0], 0);
  EXPECT_EQ(nodes[1], 1);
  EXPECT_EQ(nodes[2], 2);
}

// --- MigrationService: one lifecycle engine over all three stores ----------

enum class StoreKind : uint8_t { kSwarm, kDmAbd, kFusee };

std::string StoreName(StoreKind kind) {
  switch (kind) {
    case StoreKind::kSwarm:
      return "SwarmKv";
    case StoreKind::kDmAbd:
      return "DmAbdKv";
    case StoreKind::kFusee:
      return "FuseeKv";
  }
  return "Unknown";
}

// One client session + one migration coordinator over an elastic fabric.
// The quorum stores share the index (moved through IndexMigrationSource);
// FUSEE keeps its own directory and is its own MigratableStore.
struct MigrationFixture {
  explicit MigrationFixture(StoreKind kind, repair::MigrationConfig mcfg = {},
                            fabric::FabricConfig fcfg = ElasticFabric(/*headroom=*/2))
      : kind(kind),
        env(1, fcfg),
        membership(&env.sim, &env.fabric, /*detection_delay=*/10 * sim::kMicrosecond),
        index(&env.sim),
        fusee(&env.fabric, /*recovery_duration=*/100 * sim::kMicrosecond),
        source(&index, kind == StoreKind::kDmAbd ? repair::LayoutProtocol::kAbd
                                                 : repair::LayoutProtocol::kSafeGuess),
        client(env.MakeWorker()),
        coordinator(env.MakeWorker()),
        store(kind == StoreKind::kFusee ? static_cast<repair::MigratableStore*>(&fusee)
                                        : &source),
        migration(&membership, store, &coordinator, mcfg) {
    client.set_repair_excluded(membership.repairing());
    WireWorkerEpoch(client, membership);  // Unit fixtures run epoch-fenced too.
    fusee.set_serving(membership.serving());
    switch (kind) {
      case StoreKind::kSwarm:
        kv = std::make_unique<kv::SwarmKvSession>(&client, &index, &cache);
        break;
      case StoreKind::kDmAbd:
        kv = std::make_unique<kv::DmAbdKvSession>(&client, &index, &cache);
        break;
      case StoreKind::kFusee:
        kv = std::make_unique<kv::FuseeKvSession>(&client, &fusee, &cache);
        break;
    }
  }

  // The key's replica nodes, in replica order.
  std::vector<int> Homes(uint64_t key) const {
    for (const repair::KeyPlacement& p : store->Placements()) {
      if (p.key == key) {
        return {p.nodes.begin(), p.nodes.begin() + p.num_replicas};
      }
    }
    return {};
  }

  // The nodes outside the key's replica set.
  std::vector<int> Outside(uint64_t key) const {
    const std::vector<int> homes = Homes(key);
    std::vector<int> out;
    for (int i = 0; i < env.fabric.num_nodes(); ++i) {
      if (std::find(homes.begin(), homes.end(), i) == homes.end()) {
        out.push_back(i);
      }
    }
    return out;
  }

  // [addr, len) of the key's replica slot on `node` (FUSEE: its 8 B index
  // slot there); {0, 0} when the node hosts none.
  std::pair<uint64_t, uint64_t> SlotOn(uint64_t key, int node) {
    if (kind == StoreKind::kFusee) {
      const kv::FuseeStore::KeyMeta& meta = fusee.MetaFor(key);
      if (meta.primary == node) {
        return {meta.index_addr_primary, 8};
      }
      if (meta.backup == node) {
        return {meta.index_addr_backup, 8};
      }
      return {0, 0};
    }
    const index::IndexEntry* e = index.Peek(key);
    for (int r = 0; e != nullptr && r < e->layout->num_replicas; ++r) {
      if (e->layout->replica(r).node == node) {
        return e->layout->replica_slot(r);
      }
    }
    return {0, 0};
  }

  bool Fenced(int node, std::pair<uint64_t, uint64_t> slot) {
    return env.fabric.node(node).RegionRetired(slot.first, slot.second);
  }

  StoreKind kind;
  TestEnv env;
  membership::MembershipService membership;
  index::IndexService index;
  kv::FuseeStore fusee;
  repair::IndexMigrationSource source;
  index::ClientCache cache;
  Worker& client;
  Worker& coordinator;
  repair::MigratableStore* store;
  repair::MigrationService migration;
  std::unique_ptr<kv::KvSession> kv;
};

bool Contains(const std::vector<uint64_t>& keys, uint64_t key) {
  return std::find(keys.begin(), keys.end(), key) != keys.end();
}

// Runs `driver(&f, &done)` as the fixture's client task to completion.
template <typename Driver>
void RunDriver(MigrationFixture& f, Driver driver) {
  bool done = false;
  Spawn(driver(&f, &done));
  f.env.sim.Run();
  EXPECT_TRUE(done);
}

// Every lifecycle test runs against all three stores through the same
// MigrationService; store-specific structure is checked where it differs.
class MigrationLifecycle : public ::testing::TestWithParam<StoreKind> {};

TEST_P(MigrationLifecycle, MoveFlipServesFromNewHome) {
  MigrationFixture f(GetParam());
  RunDriver(f, [](MigrationFixture* f, bool* done) -> Task<void> {
    EXPECT_TRUE((co_await f->kv->Insert(7, ValN(32, 0xAB))).ok());
    const int from = f->Homes(7).front();
    const auto vacated = f->SlotOn(7, from);
    const kv::FuseeStore::KeyMeta old_meta = f->fusee.MetaFor(7);
    const index::IndexEntry* before = f->index.Peek(7);
    const auto old_layout = before != nullptr ? before->layout : nullptr;
    const uint64_t old_generation = before != nullptr ? before->generation : 0;

    EXPECT_EQ(co_await f->migration.MigrateKey(7, from), repair::MigrateStatus::kMoved);
    EXPECT_EQ(f->migration.keys_moved(), 1u);

    // The vacated slot is fenced for good and the source hosts the key no
    // more.
    EXPECT_TRUE(f->Fenced(from, vacated));
    EXPECT_FALSE(Contains(f->store->KeysOn(from), 7));
    const std::vector<int> homes = f->Homes(7);
    EXPECT_EQ(std::find(homes.begin(), homes.end(), from), homes.end());

    if (f->kind == StoreKind::kFusee) {
      // Both roles re-homed: the surviving role keeps its node but gets a
      // fresh slot, and its old slot is fenced too.
      EXPECT_EQ(f->fusee.MetaFor(7).moves, 1u);
      const int survivor = old_meta.primary == from ? old_meta.backup : old_meta.primary;
      const uint64_t survivor_old_slot =
          old_meta.primary == from ? old_meta.index_addr_backup : old_meta.index_addr_primary;
      EXPECT_TRUE(f->Fenced(survivor, {survivor_old_slot, 8}));
      EXPECT_NE(f->SlotOn(7, survivor).first, survivor_old_slot);
    } else {
      // The flip: new layout under a bumped generation, one slot re-homed,
      // every other slot shared byte-for-byte; the old layout retired as
      // moved so the repair walk skips it.
      const index::IndexEntry* after = f->index.Peek(7);
      EXPECT_NE(after, nullptr);
      if (after == nullptr || old_layout == nullptr) {
        co_return;
      }
      EXPECT_GT(after->generation, old_generation);
      EXPECT_NE(after->layout.get(), old_layout.get());
      for (int r = 1; r < old_layout->num_replicas; ++r) {
        EXPECT_EQ(after->layout->replica(r).meta_addr,
                  old_layout->replica(r).meta_addr);
      }
      EXPECT_EQ(f->index.retired().size(), 1u);
      if (!f->index.retired().empty()) {
        EXPECT_TRUE(f->index.retired()[0].moved);
      }
    }

    // The stale-cached client keeps operating: its first op bounces off the
    // fence (kMovedReplica), re-resolves, and lands at the new home.
    kv::KvResult g = co_await f->kv->Get(7);
    EXPECT_EQ(g.status, kv::KvStatus::kOk);
    EXPECT_EQ(g.value, ValN(32, 0xAB));
    EXPECT_TRUE((co_await f->kv->Update(7, ValN(32, 0xCD))).ok());
    g = co_await f->kv->Get(7);
    EXPECT_EQ(g.status, kv::KvStatus::kOk);
    EXPECT_EQ(g.value, ValN(32, 0xCD));
    *done = true;
  });
}

TEST_P(MigrationLifecycle, AbortRestoresExactly) {
  repair::MigrationConfig mcfg;
  mcfg.max_rounds = 2;  // Fail fast: the destination is dead.
  mcfg.round_retry_delay = 5 * sim::kMicrosecond;
  MigrationFixture f(GetParam(), mcfg);
  RunDriver(f, [](MigrationFixture* f, bool* done) -> Task<void> {
    EXPECT_TRUE((co_await f->kv->Insert(7, ValN(32, 0x5A))).ok());
    const int from = f->Homes(7).front();
    const auto slot = f->SlotOn(7, from);
    const kv::FuseeStore::KeyMeta old_meta = f->fusee.MetaFor(7);
    const index::IndexEntry* before = f->index.Peek(7);
    const auto old_layout = before != nullptr ? before->layout : nullptr;
    const uint64_t old_generation = before != nullptr ? before->generation : 0;

    // Pin the move onto a node outside the replica set and crash it, so
    // every copy round fails.
    const int dest = f->Outside(7).front();
    f->env.fabric.Crash(dest);
    const size_t fences_before = f->env.fabric.node(from).retired_region_count();
    EXPECT_EQ(co_await f->migration.MigrateKey(7, from, dest), repair::MigrateStatus::kAborted);
    EXPECT_EQ(f->migration.keys_aborted(), 1u);

    // Abort restores EXACTLY: same homes and slots, no residual fence on
    // the source.
    EXPECT_EQ(f->SlotOn(7, from), slot);
    EXPECT_FALSE(f->Fenced(from, slot));
    EXPECT_EQ(f->env.fabric.node(from).retired_region_count(), fences_before);
    EXPECT_TRUE(Contains(f->store->KeysOn(from), 7));
    if (f->kind == StoreKind::kFusee) {
      const kv::FuseeStore::KeyMeta& meta = f->fusee.MetaFor(7);
      EXPECT_EQ(meta.moves, 0u);
      EXPECT_EQ(meta.primary, old_meta.primary);
      EXPECT_EQ(meta.backup, old_meta.backup);
      EXPECT_EQ(meta.index_addr_backup, old_meta.index_addr_backup);
      EXPECT_FALSE(f->Fenced(old_meta.backup, {old_meta.index_addr_backup, 8}));
    } else {
      // Same mapping, same generation, same layout object, nothing retired.
      const index::IndexEntry* after = f->index.Peek(7);
      EXPECT_NE(after, nullptr);
      if (after == nullptr) {
        co_return;
      }
      EXPECT_EQ(after->generation, old_generation);
      EXPECT_EQ(after->layout.get(), old_layout.get());
      EXPECT_TRUE(f->index.retired().empty());
    }

    // And the old slot serves again.
    kv::KvResult g = co_await f->kv->Get(7);
    EXPECT_EQ(g.status, kv::KvStatus::kOk);
    EXPECT_EQ(g.value, ValN(32, 0x5A));
    *done = true;
  });
}

TEST_P(MigrationLifecycle, RepairArbitrationSkipsBusyNodes) {
  MigrationFixture f(GetParam());
  RunDriver(f, [](MigrationFixture* f, bool* done) -> Task<void> {
    EXPECT_TRUE((co_await f->kv->Insert(7, ValN(16, 1))).ok());
    const int from = f->Homes(7).front();
    const auto slot = f->SlotOn(7, from);
    const std::vector<int> outside = f->Outside(7);

    // A source under repair is the repair's to arbitrate: skip.
    f->membership.BeginRepair(from);
    EXPECT_EQ(co_await f->migration.MigrateKey(7, from), repair::MigrateStatus::kSkipped);
    f->membership.CompleteRepair(from);

    // A destination under repair is no destination — pinned or picked.
    for (int node : outside) {
      f->membership.BeginRepair(node);
    }
    EXPECT_EQ(co_await f->migration.MigrateKey(7, from, outside.front()),
              repair::MigrateStatus::kNoDestination);
    EXPECT_EQ(co_await f->migration.MigrateKey(7, from), repair::MigrateStatus::kNoDestination)
        << "every non-hosting node is mid-repair; the picker must refuse";
    for (int node : outside) {
      f->membership.CompleteRepair(node);
    }

    // An unmapped key is a no-op.
    EXPECT_EQ(co_await f->migration.MigrateKey(999, 0), repair::MigrateStatus::kSkipped);

    // Nothing above may have changed the mapping.
    EXPECT_EQ(f->SlotOn(7, from), slot);
    EXPECT_EQ(f->migration.keys_moved(), 0u);
    EXPECT_EQ(f->migration.keys_skipped(), 2u);
    *done = true;
  });
}

TEST_P(MigrationLifecycle, AdmitAndRebalanceFillsTheNewNode) {
  MigrationFixture f(GetParam());
  RunDriver(f, [](MigrationFixture* f, bool* done) -> Task<void> {
    for (uint64_t k = 0; k < 6; ++k) {
      EXPECT_TRUE((co_await f->kv->Insert(k, ValN(16, static_cast<uint8_t>(k + 1)))).ok());
    }
    const int node = co_await f->migration.AdmitAndRebalance(/*max_keys=*/3);
    EXPECT_EQ(node, 4);
    if (node < 0) {
      co_return;
    }
    EXPECT_EQ(f->migration.nodes_admitted(), 1u);
    EXPECT_EQ(f->migration.keys_moved(), 3u);
    EXPECT_TRUE(f->membership.IsServing(node)) << "rebalance ends with CompleteJoin";

    // The new node now hosts three replicas, and every key still reads its
    // value.
    int hosted = 0;
    for (const repair::KeyPlacement& p : f->store->Placements()) {
      for (int r = 0; r < p.num_replicas; ++r) {
        hosted += p.nodes[static_cast<size_t>(r)] == node ? 1 : 0;
      }
    }
    EXPECT_EQ(hosted, 3);
    EXPECT_EQ(f->store->KeysOn(node).size(), 3u);
    for (uint64_t k = 0; k < 6; ++k) {
      kv::KvResult g = co_await f->kv->Get(k);
      EXPECT_EQ(g.status, kv::KvStatus::kOk) << "key " << k;
      EXPECT_EQ(g.value, ValN(16, static_cast<uint8_t>(k + 1))) << "key " << k;
    }
    *done = true;
  });
}

TEST_P(MigrationLifecycle, DrainDecommissionsTheNode) {
  MigrationFixture f(GetParam());
  RunDriver(f, [](MigrationFixture* f, bool* done) -> Task<void> {
    for (uint64_t k = 0; k < 6; ++k) {
      EXPECT_TRUE((co_await f->kv->Insert(k, ValN(16, static_cast<uint8_t>(k + 1)))).ok());
    }
    EXPECT_FALSE(f->store->KeysOn(0).empty());
    EXPECT_TRUE(co_await f->migration.Drain(0, /*decommission=*/true));
    EXPECT_EQ(f->migration.drains_completed(), 1u);
    EXPECT_TRUE(f->membership.IsRetired(0));

    // No live mapping references the retired node, and every key still
    // serves — through moved and untouched homes alike.
    EXPECT_TRUE(f->store->KeysOn(0).empty());
    for (const repair::KeyPlacement& p : f->store->Placements()) {
      for (int r = 0; r < p.num_replicas; ++r) {
        EXPECT_NE(p.nodes[static_cast<size_t>(r)], 0) << "key " << p.key;
      }
    }
    for (uint64_t k = 0; k < 6; ++k) {
      kv::KvResult g = co_await f->kv->Get(k);
      EXPECT_EQ(g.status, kv::KvStatus::kOk) << "key " << k;
      EXPECT_EQ(g.value, ValN(16, static_cast<uint8_t>(k + 1))) << "key " << k;
    }
    *done = true;
  });
}

TEST_P(MigrationLifecycle, MigrateExtentEmptiesTheExtent) {
  MigrationFixture f(GetParam());
  RunDriver(f, [](MigrationFixture* f, bool* done) -> Task<void> {
    for (uint64_t key = 0; key < 24; ++key) {
      EXPECT_TRUE((co_await f->kv->Insert(key, ValN(24, static_cast<uint8_t>(key)))).ok());
    }
    // Probe node 0's lowest live slot; its slab extent is the target.
    uint64_t probe = UINT64_MAX;
    for (uint64_t key : f->store->KeysOn(0)) {
      probe = std::min(probe, f->SlotOn(key, 0).first);
    }
    const auto* ext = f->env.fabric.node(0).SlotExtentOf(probe);
    EXPECT_NE(ext, nullptr);
    if (ext == nullptr) {
      co_return;
    }
    const uint64_t ext_base = ext->base;
    const uint64_t ext_end = ext->base + ext->bytes;

    const uint64_t moved = co_await f->migration.MigrateExtent(0, probe);
    EXPECT_GT(moved, 0u);
    EXPECT_EQ(f->migration.extents_moved(), 1u);
    // The extent holds no live slot anymore — only fenced remnants.
    EXPECT_TRUE(f->store->KeysOn(0, ext_base, ext_end).empty())
        << "a live slot survived the extent move";

    // Every key still serves with its data intact.
    for (uint64_t key = 0; key < 24; ++key) {
      kv::KvResult g = co_await f->kv->Get(key);
      EXPECT_EQ(g.status, kv::KvStatus::kOk) << "key " << key;
      EXPECT_EQ(g.value, ValN(24, static_cast<uint8_t>(key))) << "key " << key;
    }
    *done = true;
  });
}

// Two flows of one service racing to move the same key (an admission's
// rebalance and a drain) must not both fence it: the loser's abort would
// RESTORE the fence the winner's flip made permanent, and stale clients
// could commit at the vacated slot again. The second move is skipped.
TEST_P(MigrationLifecycle, ConcurrentMovesOfOneKeySerialize) {
  MigrationFixture f(GetParam());
  RunDriver(f, [](MigrationFixture* f, bool* done) -> Task<void> {
    EXPECT_TRUE((co_await f->kv->Insert(7, ValN(16, 0x77))).ok());
    const int from = f->Homes(7).front();
    const auto vacated = f->SlotOn(7, from);
    repair::MigrateStatus first = repair::MigrateStatus::kSkipped;
    bool first_done = false;
    auto mover = [](repair::MigrationService* m, int src, repair::MigrateStatus* st,
                    bool* finished) -> Task<void> {
      *st = co_await m->MigrateKey(7, src);
      *finished = true;
    };
    Spawn(mover(&f->migration, from, &first, &first_done));  // Suspends mid-move.
    EXPECT_EQ(co_await f->migration.MigrateKey(7, from), repair::MigrateStatus::kSkipped);
    while (!first_done) {
      co_await f->env.sim.Delay(5 * sim::kMicrosecond);
    }
    EXPECT_EQ(first, repair::MigrateStatus::kMoved);
    EXPECT_EQ(f->migration.keys_moved(), 1u);
    EXPECT_EQ(f->migration.keys_aborted(), 0u);
    EXPECT_TRUE(f->Fenced(from, vacated)) << "the flip's fence must stay permanent";
    kv::KvResult g = co_await f->kv->Get(7);
    EXPECT_EQ(g.status, kv::KvStatus::kOk);
    EXPECT_EQ(g.value, ValN(16, 0x77));
    *done = true;
  });
}

// The client's first op after a flip goes through a stale cache, one that
// still holds the key's pre-migration layout. A SWARM-KV or DM-ABD move
// fences one slot, so the op commits through the shared slots (or bounces
// with no effect and re-locates); it must never report kUnavailable.
Task<void> FirstOpThroughStaleCache(MigrationFixture* f, bool remove, bool* done) {
  EXPECT_TRUE((co_await f->kv->Insert(7, ValN(32, 0xAB))).ok());
  EXPECT_EQ(co_await f->migration.MigrateKey(7, f->Homes(7).front()),
            repair::MigrateStatus::kMoved);
  if (remove) {
    EXPECT_EQ((co_await f->kv->Remove(7)).status, kv::KvStatus::kOk);
    EXPECT_EQ((co_await f->kv->Get(7)).status, kv::KvStatus::kNotFound);
  } else {
    EXPECT_EQ((co_await f->kv->Update(7, ValN(32, 0xCD))).status, kv::KvStatus::kOk);
    const kv::KvResult g = co_await f->kv->Get(7);
    EXPECT_EQ(g.status, kv::KvStatus::kOk);
    EXPECT_EQ(g.value, ValN(32, 0xCD));
  }
  *done = true;
}

TEST_P(MigrationLifecycle, StaleCachedUpdateCommitsAfterTheFlip) {
  MigrationFixture f(GetParam());
  RunDriver(f, [](MigrationFixture* f, bool* done) {
    return FirstOpThroughStaleCache(f, /*remove=*/false, done);
  });
}

TEST_P(MigrationLifecycle, StaleCachedRemoveCommitsAfterTheFlip) {
  MigrationFixture f(GetParam());
  RunDriver(f, [](MigrationFixture* f, bool* done) {
    return FirstOpThroughStaleCache(f, /*remove=*/true, done);
  });
}

INSTANTIATE_TEST_SUITE_P(AllStores, MigrationLifecycle,
                         ::testing::Values(StoreKind::kSwarm, StoreKind::kDmAbd,
                                           StoreKind::kFusee),
                         [](const ::testing::TestParamInfo<StoreKind>& p) {
                           return StoreName(p.param);
                         });

// A tombstoned key that is still mapped (a delete that has not unmapped it
// yet) migrates with its tombstone: otherwise a quorum pairing the new slot
// with a stale survivor could resurrect the value. The skipped-tombstone
// canary is planted on crash repair's same-layout copy only, so the move
// stays exact under it too.
class TombstoneMigration : public ::testing::TestWithParam<std::tuple<StoreKind, bool>> {};

TEST_P(TombstoneMigration, TheDestinationReplicaHoldsTheTombstone) {
  const auto [kind, canary] = GetParam();
  fabric::FabricConfig fcfg = ElasticFabric(/*headroom=*/2);
  fcfg.canaries.skip_tombstone_repair = canary;
  MigrationFixture f(kind, {}, fcfg);
  RunDriver(f, [](MigrationFixture* f, bool* done) -> Task<void> {
    EXPECT_TRUE((co_await f->kv->Insert(7, ValN(16, 0x7E))).ok());
    const index::IndexEntry* before = f->index.Peek(7);
    EXPECT_NE(before, nullptr);
    if (before == nullptr) {
      co_return;
    }
    // Tombstone the object with the protocol's own delete; the index
    // mapping stays in place.
    const LayoutPin src = before->layout;
    Worker* w = &f->client;
    SgStatus deleted = SgStatus::kUnavailable;
    if (f->kind == StoreKind::kSwarm) {
      SafeGuessObject obj(w, w->SlotCacheFor(src));
      deleted = (co_await obj.Delete()).status;
    } else {
      AbdObject obj(w, w->SlotCacheFor(src));
      deleted = (co_await obj.Delete()).status;
    }
    EXPECT_EQ(deleted, SgStatus::kOk);

    const int from = f->Homes(7).front();
    EXPECT_EQ(co_await f->migration.MigrateKey(7, from), repair::MigrateStatus::kMoved);
    const index::IndexEntry* after = f->index.Peek(7);
    EXPECT_NE(after, nullptr);
    if (after == nullptr) {
      co_return;
    }
    const ReplicaLayout& dst = after->layout->replica(0);  // Replaces `from`.
    EXPECT_NE(dst.node, from);
    Meta word;
    for (int s = 0; s < after->layout->meta_slots; ++s) {
      word = TsMax(word, Meta(f->env.fabric.node(dst.node).LoadWord(
                             dst.meta_addr + static_cast<uint64_t>(s) * 8)));
    }
    EXPECT_EQ(word.raw(), Meta::Tombstone(w->tid()).raw());
    *done = true;
  });
}

INSTANTIATE_TEST_SUITE_P(
    QuorumStores, TombstoneMigration,
    ::testing::Combine(::testing::Values(StoreKind::kSwarm, StoreKind::kDmAbd), ::testing::Bool()),
    [](const ::testing::TestParamInfo<std::tuple<StoreKind, bool>>& p) {
      return StoreName(std::get<0>(p.param)) +
             (std::get<1>(p.param) ? "SkipTombstoneCanary" : "");
    });

// FUSEE-only arbitration: while the store recovers, every key belongs to the
// recovery path and the migration leaves it alone.
TEST(MigrationFusee, RecoverySkipsTheMove) {
  MigrationFixture f(StoreKind::kFusee);
  RunDriver(f, [](MigrationFixture* f, bool* done) -> Task<void> {
    EXPECT_TRUE((co_await f->kv->Insert(7, ValN(16, 1))).ok());
    const kv::FuseeStore::KeyMeta& meta = f->fusee.MetaFor(7);
    const int primary = meta.primary;
    f->fusee.StartRecovery(meta.backup);
    EXPECT_EQ(co_await f->migration.MigrateKey(7, primary), repair::MigrateStatus::kSkipped);
    EXPECT_EQ(f->migration.keys_skipped(), 1u);
    EXPECT_EQ(meta.moves, 0u);
    EXPECT_EQ(meta.primary, primary) << "a skipped move changes nothing";
    *done = true;
  });
}

}  // namespace
}  // namespace swarm
