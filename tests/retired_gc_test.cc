// Retired-layout GC (the unbounded-growth follow-up): IndexService::Retire
// used to keep every dead layout forever, and repair re-walked the whole
// list each round. Retirement is now coupled to the memory recycler's epochs
// — an entry is tagged with the epoch current at retirement and dropped once
// Recycler::SafeReclaimBefore() passes it (every live client drained the
// accesses that could still reference it; non-acking clients are
// sticky-fenced). These tests assert the list actually SHRINKS under churn.
//
// The SlotWalk cases pin which replica slots the index's records own on a
// node (IndexService::ForEachSlotOn, what repair and migration walk) and
// that a GC drop frees exactly those slots.

#include "src/index/index_service.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "src/deploy/deployment.h"
#include "src/index/client_cache.h"
#include "src/kv/swarm_kv.h"
#include "src/membership/membership.h"
#include "src/swarm/recycler.h"
#include "tests/support/test_env.h"

namespace swarm {
namespace {

using index::IndexService;
using testing::TestEnv;

template <typename T>
sim::Task<void> StoreResult(sim::Task<T> task, T* out) {
  *out = co_await std::move(task);
}

// Runs one index RPC to completion and returns its result.
template <typename T>
T RunRpc(TestEnv& env, sim::Task<T> task) {
  T out{};
  sim::Spawn(StoreResult(std::move(task), &out));
  env.sim.Run();
  return out;
}

std::vector<IndexService::SlotOn> Walk(const IndexService& index, int node, uint64_t lo = 0,
                                       uint64_t hi = UINT64_MAX) {
  std::vector<IndexService::SlotOn> out;
  index.ForEachSlotOn(node, lo, hi, [&out](const IndexService::SlotOn& s) { out.push_back(s); });
  return out;
}

TEST(RetiredGc, ChurnStaysBoundedByTheSafeHorizon) {
  TestEnv env(3);
  membership::MembershipService membership(&env.sim, &env.fabric);
  Recycler recycler(&env.sim, &membership);
  RecyclerParticipant client(&env.sim, 1, /*ack_delay=*/2000);
  recycler.Register(&client);

  index::IndexService index(&env.sim);
  index.set_retirement_horizon([&recycler] { return recycler.current_epoch(); },
                               [&recycler] { return recycler.SafeReclaimBefore(); });

  size_t max_seen = 0;
  for (int burst = 0; burst < 20; ++burst) {
    for (int i = 0; i < 8; ++i) {
      index.Retire(env.MakeObject());
    }
    max_seen = std::max(max_seen, index.retired().size());
    recycler.HeartbeatAll();
    sim::Spawn(recycler.RunRound());
    env.sim.Run();
  }
  // 160 retirements passed through; the horizon kept reclaiming them. Only
  // the most recent burst (retired under the current epoch, not yet drained)
  // may linger.
  EXPECT_EQ(index.retired_dropped() + index.retired().size(), 160u);
  EXPECT_GE(index.retired_dropped(), 150u);
  EXPECT_LE(index.retired().size(), 8u)
      << "the retired list must shrink once the safe horizon passes";
  EXPECT_LE(max_seen, 16u) << "churn must keep the list bounded, not merely trimmed at the end";

  // One more drained round reclaims the stragglers too.
  recycler.HeartbeatAll();
  sim::Spawn(recycler.RunRound());
  env.sim.Run();
  (void)index.GcRetired();
  EXPECT_EQ(index.retired().size(), 0u);
}

TEST(RetiredGc, WithoutRecyclerCouplingNothingIsDropped) {
  // Envs without a recycler (protocol unit tests, benches) keep the old
  // conservative behavior: retired layouts live for the whole simulation.
  TestEnv env(3);
  index::IndexService index(&env.sim);
  for (int i = 0; i < 5; ++i) {
    index.Retire(env.MakeObject());
  }
  EXPECT_EQ(index.retired().size(), 5u);
  EXPECT_EQ(index.GcRetired(), 0u);
  EXPECT_EQ(index.retired().size(), 5u);
}

TEST(RetiredGc, PinnedEntryStaysWhileLaterOnesDropInRetirementOrder) {
  // The in-flight use-count gate: an op that located a key before its
  // retirement keeps the layout alive past the horizon. A pinned entry at
  // the head of the list must neither block the unpinned entries behind it
  // nor be dropped before its holder lets go; entries retired after the
  // horizon stay untouched.
  TestEnv env(3);
  membership::MembershipService membership(&env.sim, &env.fabric);
  Recycler recycler(&env.sim, &membership);
  RecyclerParticipant client(&env.sim, 1, /*ack_delay=*/2000);
  recycler.Register(&client);

  index::IndexService index(&env.sim);
  index.set_retirement_horizon([&recycler] { return recycler.current_epoch(); },
                               [&recycler] { return recycler.SafeReclaimBefore(); });
  std::vector<const ObjectLayout*> notified;
  index.add_gc_listener([&notified](const LayoutPin& layout) {
    notified.push_back(layout.get());
  });
  auto drained_round = [&] {
    recycler.HeartbeatAll();
    sim::Spawn(recycler.RunRound());
    env.sim.Run();
  };
  auto retired_layouts = [&index] {
    std::vector<const ObjectLayout*> out;
    for (const auto& r : index.retired()) {
      out.push_back(r.layout.get());
    }
    return out;
  };

  // Epoch 0: a pinned head, then three unpinned entries.
  LayoutPin pin;
  std::vector<const ObjectLayout*> early;
  for (int i = 0; i < 4; ++i) {
    auto layout = env.MakeObject();
    early.push_back(layout.get());
    if (i == 0) {
      pin = layout;  // An in-flight op's Located copy.
    }
    index.Retire(std::move(layout));
  }
  EXPECT_EQ(index.retired().size(), 4u) << "nothing may drop before the horizon passes";
  EXPECT_TRUE(notified.empty());

  drained_round();  // The horizon passes epoch 0.
  auto late = env.MakeObject();
  const ObjectLayout* late_ptr = late.get();
  index.Retire(std::move(late));  // Epoch 1; its Retire runs the GC.

  EXPECT_EQ(notified, early) << "every passed layout is notified once, in retirement order";
  EXPECT_EQ(index.retired_dropped(), 3u);
  EXPECT_EQ(retired_layouts(), (std::vector<const ObjectLayout*>{early[0], late_ptr}))
      << "the pinned head stays, ahead of the entry retired after the horizon";

  EXPECT_EQ(index.GcRetired(), 0u) << "still pinned";
  EXPECT_EQ(notified.size(), 4u) << "a pinned layout is not notified twice";

  pin.reset();  // The op completes.
  EXPECT_EQ(index.GcRetired(), 1u);
  EXPECT_EQ(retired_layouts(), (std::vector<const ObjectLayout*>{late_ptr}));

  drained_round();  // The horizon passes epoch 1.
  EXPECT_EQ(index.GcRetired(), 1u);
  EXPECT_TRUE(index.retired().empty());
  EXPECT_EQ(notified.back(), late_ptr);
  EXPECT_EQ(index.retired_dropped(), 5u);
}

TEST(RetiredGc, InsertCollisionChurnShrinksThroughTheKvPath) {
  // The real producer: two clients inserting the same keys concurrently —
  // the loser of each InsertIfAbsent race retires its freshly allocated
  // layout (§5.3.1). With recycler rounds interleaved the list shrinks.
  TestEnv env(11);
  membership::MembershipService membership(&env.sim, &env.fabric);
  Recycler recycler(&env.sim, &membership);
  RecyclerParticipant p1(&env.sim, 1, 2000);
  RecyclerParticipant p2(&env.sim, 2, 2300);
  recycler.Register(&p1);
  recycler.Register(&p2);

  index::IndexService index(&env.sim);
  index.set_retirement_horizon([&recycler] { return recycler.current_epoch(); },
                               [&recycler] { return recycler.SafeReclaimBefore(); });
  index::ClientCache cache_a;
  index::ClientCache cache_b;
  Worker& wa = env.MakeWorker(0);
  Worker& wb = env.MakeWorker(100);
  // Epoch-fenced verbs in the unit fixture too, not only the chaos harness.
  testing::WireWorkerEpoch(wa, membership);
  testing::WireWorkerEpoch(wb, membership);
  kv::SwarmKvSession a(&wa, &index, &cache_a);
  kv::SwarmKvSession b(&wb, &index, &cache_b);

  auto insert_pair = [](TestEnv* env, kv::SwarmKvSession* s, uint64_t key) -> sim::Task<void> {
    (void)co_await s->Insert(key, testing::ValN(8, 0x5a));
    (void)env;
  };
  uint64_t collisions = 0;
  for (uint64_t key = 0; key < 24; ++key) {
    sim::Spawn(insert_pair(&env, &a, key));
    sim::Spawn(insert_pair(&env, &b, key));
    env.sim.Run();
    collisions = index.retired_dropped() + index.retired().size();
    if (key % 4 == 3) {
      recycler.HeartbeatAll();
      sim::Spawn(recycler.RunRound());
      env.sim.Run();
    }
  }
  EXPECT_GT(collisions, 0u) << "concurrent inserts never collided: the churn proved nothing";
  EXPECT_GT(index.retired_dropped(), 0u);
  EXPECT_LE(index.retired().size(), collisions / 2)
      << "the retired list must shrink under insert-collision churn";
}

TEST(SlotWalk, MigrationFlipLeavesTheOldLayoutOnlyItsVacatedSlotMarkedMoved) {
  TestEnv env(3);
  IndexService index(&env.sim, &env.fabric);
  auto old_layout = env.MakeObject();  // Nodes 0, 1, 2.
  const uint64_t gen = RunRpc(env, index.InsertIfAbsent(7, old_layout, nullptr)).second.generation;
  // Replica 1 moves from node 1 to node 3; replicas 0 and 2 are shared.
  auto next = GraftReplica(env.fabric, *old_layout, 1, 3);
  ASSERT_NE(RunRpc(env, index.ReplaceLayout(7, gen, next, nullptr)), 0u);

  ASSERT_EQ(index.retired().size(), 1u);
  const IndexService::RetiredLayout& r = index.retired()[0];
  EXPECT_EQ(r.layout, old_layout);
  EXPECT_TRUE(r.moved);
  EXPECT_EQ(r.owned, 1u << 1) << "the old layout owns only the vacated slot";

  const auto vacated = Walk(index, 1);
  ASSERT_EQ(vacated.size(), 1u);
  EXPECT_EQ(vacated[0].addr, old_layout->replica(1).meta_addr);
  EXPECT_EQ(*vacated[0].layout, old_layout);
  EXPECT_EQ(vacated[0].replica, 1);
  EXPECT_TRUE(vacated[0].moved);
  EXPECT_FALSE(vacated[0].mapped);
  for (int node : {0, 2, 3}) {
    const auto slots = Walk(index, node);
    ASSERT_EQ(slots.size(), 1u) << "node " << node << ": a shared slot is listed once";
    EXPECT_EQ(*slots[0].layout, next) << "node " << node;
    EXPECT_TRUE(slots[0].mapped) << "node " << node;
    EXPECT_EQ(slots[0].key, 7u) << "node " << node;
    EXPECT_FALSE(slots[0].moved) << "node " << node;
  }
}

TEST(SlotWalk, RemovedAndLosingLayoutsOwnEverySlotAndNoneIsMoved) {
  TestEnv env(3);
  IndexService index(&env.sim, &env.fabric);
  auto removed = env.MakeObject();
  const uint64_t gen = RunRpc(env, index.InsertIfAbsent(1, removed, nullptr)).second.generation;
  ASSERT_TRUE(RunRpc(env, index.RemoveIfGeneration(1, gen, nullptr)));
  auto loser = env.MakeObject();
  index.Retire(loser);  // Lost an insert race: never mapped.

  ASSERT_EQ(index.retired().size(), 2u);
  for (const IndexService::RetiredLayout& r : index.retired()) {
    EXPECT_FALSE(r.moved);
    for (int rep = 0; rep < r.layout->num_replicas; ++rep) {
      EXPECT_TRUE((r.owned >> rep & 1) != 0) << "replica " << rep;
    }
  }
  for (int node = 0; node < 3; ++node) {
    const auto slots = Walk(index, node);
    ASSERT_EQ(slots.size(), 2u) << "node " << node;
    EXPECT_EQ(*slots[0].layout, removed) << "node " << node << ": allocated first, lower address";
    EXPECT_EQ(*slots[1].layout, loser) << "node " << node;
    for (const IndexService::SlotOn& s : slots) {
      EXPECT_EQ(s.replica, node);
      EXPECT_FALSE(s.mapped);
      EXPECT_FALSE(s.moved);
    }
  }
}

TEST(SlotWalk, AddressOrderedPerNodeAndFilteredToTheRange) {
  TestEnv env(3);
  IndexService index(&env.sim, &env.fabric);
  // Keys in an order unrelated to allocation (= address) order; every fifth
  // removed, so mapped and retired records interleave on every node.
  constexpr int kKeys = 40;
  std::vector<std::pair<uint64_t, LayoutPin>> objects;
  for (int i = 0; i < kKeys; ++i) {
    const int nodes[3] = {i % 4, (i + 1) % 4, (i + 2) % 4};
    LayoutPin layout = AllocateObject(env.fabric, nodes, 3, 4, 8, 64);
    const uint64_t key = static_cast<uint64_t>(i * 17 % kKeys);
    const uint64_t gen = RunRpc(env, index.InsertIfAbsent(key, layout, nullptr)).second.generation;
    if (i % 5 == 0) {
      ASSERT_TRUE(RunRpc(env, index.RemoveIfGeneration(key, gen, nullptr)));
    }
    objects.emplace_back(key, std::move(layout));
  }
  for (int node = 0; node < 4; ++node) {
    // Expected: every replica slot on the node, sorted by address.
    std::vector<std::pair<uint64_t, uint64_t>> expected;  // (addr, key)
    for (const auto& [key, layout] : objects) {
      for (int r = 0; r < layout->num_replicas; ++r) {
        if (layout->replica(r).node == node) {
          expected.emplace_back(layout->replica(r).meta_addr, key);
        }
      }
    }
    std::sort(expected.begin(), expected.end());
    const auto slots = Walk(index, node);
    ASSERT_EQ(slots.size(), expected.size()) << "node " << node;
    for (size_t i = 0; i < slots.size(); ++i) {
      EXPECT_EQ(slots[i].addr, expected[i].first) << "node " << node << " slot " << i;
      EXPECT_EQ(slots[i].mapped, index.Peek(expected[i].second) != nullptr);
      if (slots[i].mapped) {
        EXPECT_EQ(slots[i].key, expected[i].second);
      }
    }
    // [lo, hi) keeps exactly the middle half.
    const size_t first = expected.size() / 4;
    const size_t last = expected.size() * 3 / 4;
    const auto mid = Walk(index, node, expected[first].first, expected[last].first);
    ASSERT_EQ(mid.size(), last - first) << "node " << node;
    for (size_t i = 0; i < mid.size(); ++i) {
      EXPECT_EQ(mid[i].addr, expected[first + i].first);
    }
  }
}

TEST(SlotWalk, GcDropFreesExactlyTheOwnedSlots) {
  TestEnv env(3);
  for (int n = 0; n < 4; ++n) {
    env.fabric.node(n).set_now_fn({});  // No free quarantine: frees show at once.
  }
  IndexService index(&env.sim, &env.fabric);
  uint64_t safe_before = 0;
  index.set_retirement_horizon([] { return uint64_t{0}; }, [&safe_before] { return safe_before; });

  // Key 7 flips replica 1 from node 1 to node 3, fenced like a migration.
  auto flipped = env.MakeObject();
  const uint64_t gen7 = RunRpc(env, index.InsertIfAbsent(7, flipped, nullptr)).second.generation;
  const auto [vacated_addr, vacated_len] = flipped->replica_slot(1);
  env.fabric.node(1).RetireRegion(vacated_addr, vacated_len);
  const LayoutPin next = GraftReplica(env.fabric, *flipped, 1, 3);
  ASSERT_NE(RunRpc(env, index.ReplaceLayout(7, gen7, next, nullptr)), 0u);
  // Key 8 is removed.
  auto removed = env.MakeObject();
  const uint64_t gen8 = RunRpc(env, index.InsertIfAbsent(8, removed, nullptr)).second.generation;
  ASSERT_TRUE(RunRpc(env, index.RemoveIfGeneration(8, gen8, nullptr)));

  auto live = [&env] {
    std::array<uint64_t, 4> out{};
    for (int n = 0; n < 4; ++n) {
      out[static_cast<size_t>(n)] = env.fabric.node(n).live_slots();
    }
    return out;
  };
  const std::array<uint64_t, 4> before = live();
  EXPECT_EQ(before, (std::array<uint64_t, 4>{2, 2, 2, 1}));
  flipped.reset();  // The test's own pins; nothing else holds them.
  removed.reset();
  safe_before = 1;
  EXPECT_EQ(index.GcRetired(), 2u);
  EXPECT_TRUE(index.retired().empty());
  // Node 1 loses the vacated slot and the removed layout's; nodes 0 and 2
  // only the removed layout's (the flip's shared slots belong to key 7's
  // mapping); node 3 keeps the replacement's fresh slot.
  EXPECT_EQ(live(), (std::array<uint64_t, 4>{1, 0, 1, 1}));
  EXPECT_FALSE(env.fabric.node(1).RegionRetired(vacated_addr, vacated_len))
      << "the drop lifts the migration fence over the vacated slot";
}

TEST(SlotWalkDeathTest, OneSlotOwnedByTwoLayoutsAborts) {
  TestEnv env(3);
  IndexService index(&env.sim, &env.fabric);
  auto first = env.MakeObject();
  ASSERT_TRUE(RunRpc(env, index.InsertIfAbsent(1, first, nullptr)).first);
  // A plain restart resets node 0's allocator, so the next object reuses an
  // address key 1 still lists: outside the model, and the walk says so.
  env.fabric.Recover(0);
  auto second = env.MakeObject();
  ASSERT_TRUE(RunRpc(env, index.InsertIfAbsent(2, second, nullptr)).first);
  ASSERT_EQ(first->replica(0).meta_addr, second->replica(0).meta_addr);
  EXPECT_EQ(Walk(index, 1).size(), 2u) << "other nodes still walk";
  EXPECT_DEATH(Walk(index, 0), "owned by two layouts");
}

// Runs `task` and then recycler rounds until the retired list is empty, at
// most `max_rounds` of them; each round's drained horizon lets the GC drop
// every layout retired before it.
void DrainRetired(deploy::Deployment& d, int max_rounds = 4) {
  for (int round = 0; round < max_rounds && !d.index().retired().empty(); ++round) {
    d.recycler().HeartbeatAll();
    sim::Spawn(d.recycler().RunRound());
    d.sim().Run();
    (void)d.index().GcRetired();
  }
}

sim::Task<void> InsertAll(kv::KvSession* s, uint64_t first, uint64_t count) {
  const std::vector<uint8_t> value(8, 0x5a);
  for (uint64_t key = first; key < first + count; ++key) {
    EXPECT_TRUE((co_await s->Insert(key, value)).ok());
  }
}

sim::Task<void> RemoveAll(kv::KvSession* s, uint64_t first, uint64_t count) {
  for (uint64_t key = first; key < first + count; ++key) {
    EXPECT_TRUE((co_await s->Remove(key)).ok());
  }
}

std::string StoreName(const ::testing::TestParamInfo<const char*>& param) {
  return std::string(param.param);
}

// A dropped layout is freed: the GC holds the last share, so once recycler
// rounds have emptied the retired list no layout block of a removed key
// survives — nor, with it, any writer's slot-cache words. Keys are inserted
// by one client and removed by another, so the inserter's location cache
// must let go too (the GC's §4.5 drop listeners), and the remover's words
// are chained blocks, freed with each layout. ObjectLayout::live() counts
// the blocks alive.
class DroppedLayoutsAreFreed : public ::testing::TestWithParam<const char*> {};

TEST_P(DroppedLayoutsAreFreed, EveryRemovedKeysLayoutExpires) {
  deploy::DeploymentConfig cfg;
  cfg.store = GetParam();
  cfg.fabric.node_capacity_bytes = 64ull << 20;
  deploy::Deployment d(cfg);
  constexpr uint64_t kKeys = 200;
  const ObjectLayout::Live before = ObjectLayout::live();
  sim::Spawn(InsertAll(&d.session(0), 0, kKeys));
  d.sim().Run();
  for (uint64_t key = 0; key < kKeys; ++key) {
    ASSERT_NE(d.index().Peek(key), nullptr) << "key " << key;
  }
  EXPECT_EQ(ObjectLayout::live().layouts, before.layouts + kKeys) << "one block per key";
  sim::Spawn(RemoveAll(&d.session(1), 0, kKeys));
  d.sim().Run();
  ASSERT_EQ(d.index().size(), 0u);
  DrainRetired(d);
  ASSERT_TRUE(d.index().retired().empty());
  EXPECT_EQ(d.index().retired_dropped(), kKeys);
  EXPECT_EQ(ObjectLayout::live().layouts, before.layouts)
      << GetParam() << ": dropped layouts are still alive";
  EXPECT_EQ(ObjectLayout::live().word_blocks, before.word_blocks)
      << GetParam() << ": a dropped layout's chained words are still alive";
}

INSTANTIATE_TEST_SUITE_P(Stores, DroppedLayoutsAreFreed, ::testing::Values("swarm", "dmabd", "raw"),
                         StoreName);

// A straggler pins its layout. One replica's responses are held back, so an
// op's quorum resumes without it and that replica's task (the straggler) is
// still in flight when another client removes the key and recycler rounds
// move the horizon past the removal. The GC must keep the layout, whose
// records the straggler reads after it resumes, until the straggler
// completes; then it drops and frees it. The op is an update (its
// write task straggles) or a get (its read task: QuorumMax's ReadOne, ABD's
// ReadWordOne); either task holds its own share in the layout.
class StragglerPinsItsLayout
    : public ::testing::TestWithParam<std::tuple<const char*, const char*>> {};

sim::Task<void> RunOp(sim::Task<kv::KvResult> op, bool* done) {
  EXPECT_TRUE((co_await std::move(op)).ok());
  *done = true;
}

TEST_P(StragglerPinsItsLayout, TheGcKeepsItUntilTheStragglerCompletes) {
  const auto [store, op] = GetParam();
  deploy::DeploymentConfig cfg;
  cfg.store = store;
  cfg.fabric.node_capacity_bytes = 64ull << 20;
  deploy::Deployment d(cfg);
  constexpr uint64_t kKey = 5;
  constexpr sim::Time kStall = 500 * sim::kMicrosecond;
  const std::vector<uint8_t> value(8, 0x7e);
  // Runs events until `cond` holds; false if the simulation ran dry first.
  auto step_until = [&d](const auto& cond) {
    while (!cond() && d.sim().Step()) {
    }
    return cond();
  };

  const uint64_t live = ObjectLayout::live().layouts;
  bool inserted = false;
  sim::Spawn(RunOp(d.session(0).Insert(kKey, value), &inserted));
  d.sim().Run();
  ASSERT_TRUE(inserted);
  const ObjectLayout* watch = d.index().Peek(kKey)->layout.get();
  ASSERT_EQ(ObjectLayout::live().layouts, live + 1);
  // Replica 1 is in the op's first wave (a majority, in index order); with
  // its answers stalled the wave escalates to replica 2 and resumes.
  const int slow_node = watch->replica(1).node;
  bool slow = true;
  d.fabric().set_link_delay_fn([&slow, slow_node](int node, bool response) -> sim::Time {
    return slow && response && node == slow_node ? kStall : 0;
  });

  kv::KvSession& s = d.session(0);
  const bool get = std::string(op) == "get";
  if (get) {
    // The insert reached replicas 0 and 1 only, so a stalled get would find
    // one holder and write the value back, and its write-back task would
    // straggle beside the read task. A stalled update first escalates to
    // replica 2; once it drains, both of the get's waves find a majority
    // holding the value, and the read task is the only straggler.
    bool warmed = false;
    sim::Spawn(RunOp(s.Update(kKey, value), &warmed));
    d.sim().Run();
    ASSERT_TRUE(warmed);
  }
  bool done = false;
  sim::Spawn(RunOp(get ? s.Get(kKey) : s.Update(kKey, value), &done));
  ASSERT_TRUE(step_until([&] { return done; }));
  slow = false;  // Only the straggler's answers stay held back.
  const sim::Time stalled_until = d.sim().Now() + kStall / 2;

  bool removed = false;
  sim::Spawn(RunOp(d.session(1).Remove(kKey), &removed));
  ASSERT_TRUE(step_until([&] { return removed && !d.index().retired().empty(); }));
  for (int round = 0; round < 2; ++round) {
    d.recycler().HeartbeatAll();
    const uint64_t target = d.recycler().current_epoch() + 1;
    sim::Spawn(d.recycler().RunRound());
    ASSERT_TRUE(step_until([&] { return d.recycler().SafeReclaimBefore() >= target; }));
  }
  ASSERT_LT(d.sim().Now(), stalled_until) << "the straggler must still be in flight";
  EXPECT_EQ(d.index().GcRetired(), 0u);
  ASSERT_EQ(d.index().retired().size(), 1u) << "the GC dropped a layout a straggler still reads";
  EXPECT_EQ(d.index().retired()[0].layout.get(), watch);
  EXPECT_GT(d.index().retired()[0].layout.use_count(), 1u) << "the straggler holds a share";
  EXPECT_EQ(ObjectLayout::live().layouts, live + 1);
  EXPECT_EQ(d.index().retired_dropped(), 0u);

  d.sim().Run();  // The straggler's answers land; it completes.
  EXPECT_EQ(d.index().GcRetired(), 1u);
  EXPECT_TRUE(d.index().retired().empty());
  EXPECT_EQ(ObjectLayout::live().layouts, live) << "a dropped layout must be freed";
}

std::string StoreAndOpName(
    const ::testing::TestParamInfo<std::tuple<const char*, const char*>>& param) {
  return std::string(std::get<0>(param.param)) + "_" + std::get<1>(param.param);
}

INSTANTIATE_TEST_SUITE_P(StoresAndOps, StragglerPinsItsLayout,
                         ::testing::Combine(::testing::Values("swarm", "dmabd"),
                                            ::testing::Values("update", "get")),
                         StoreAndOpName);

// Every store's removed keys give their replica slots back: with recycler
// rounds between insert/remove rounds, each round's GC drops the previous
// round's keys, so from round 1 on the live slab slots hold steady. RawKv's
// regions used to come from Allocate, not AllocSlot, so the GC's FreeSlot
// found no slot to free and every round leaked 72 B per key; its nodes hold
// nothing but those regions, so their live bytes must level off too.
// SWARM-KV's and DM-ABD's nodes also hold the workers' out-of-place pools,
// which add a 64 KiB chunk whenever a round outruns the buffers the
// quarantine has released: their live bytes converge instead, a few chunks
// above round 1.
class RemovedKeysFreeTheirSlots : public ::testing::TestWithParam<const char*> {};

TEST_P(RemovedKeysFreeTheirSlots, LiveSlotsStopGrowingAfterTheFirstRound) {
  const std::string store = GetParam();
  deploy::DeploymentConfig cfg;
  cfg.store = store;
  cfg.fabric.node_capacity_bytes = 64ull << 20;
  deploy::Deployment d(cfg);
  constexpr uint64_t kKeys = 2000;
  constexpr uint64_t kRounds = 24;
  std::vector<uint64_t> slots;
  std::vector<uint64_t> bytes;
  for (uint64_t round = 0; round < kRounds; ++round) {
    sim::Spawn(InsertAll(&d.session(0), round * kKeys, kKeys));
    d.sim().Run();
    sim::Spawn(RemoveAll(&d.session(0), round * kKeys, kKeys));
    d.sim().Run();
    d.recycler().HeartbeatAll();
    sim::Spawn(d.recycler().RunRound());
    d.sim().Run();
    slots.push_back(0);
    bytes.push_back(0);
    for (int n = 0; n < d.fabric().num_nodes(); ++n) {
      slots.back() += d.fabric().node(n).live_slots();
      bytes.back() += d.fabric().node(n).live_bytes();
    }
  }
  // Round 0's keys are retired but not yet dropped: every replica is a slot.
  const uint64_t replicas = store == "raw" ? 1 : static_cast<uint64_t>(d.config().proto.replicas);
  EXPECT_GE(slots[0], kKeys * replicas) << store << ": replicas must be slab slots";
  for (uint64_t round = 2; round < kRounds; ++round) {
    EXPECT_EQ(slots[round], slots[1]) << store << " round " << round;
  }
  // RawKv: within two slab extents of round 1, whose fill varies per round
  // (over 24 rounds it takes three levels one extent apart). The quorum
  // stores: within five out-of-place pool chunks of round 1 (measured: 3.1
  // for SWARM-KV, 4.0 for DM-ABD).
  const ProtocolConfig& proto = d.config().proto;
  const uint64_t pool_chunk =
      static_cast<uint64_t>(proto.oop_pool_slots) *
      ((kFrameHeaderBytes + proto.max_value + kOopGranuleBytes - 1) & ~(kOopGranuleBytes - 1));
  ASSERT_EQ(pool_chunk, 64u << 10);
  const uint64_t bound = store == "raw"
                             ? 2 * alloc::SlabAllocator::kSlotsPerExtent * (8 + proto.max_value)
                             : 5 * pool_chunk;
  for (uint64_t round = 2; round < kRounds; ++round) {
    EXPECT_LE(bytes[round], bytes[1] + bound)
        << store << ": live bytes grew from " << bytes[1] << " B after round 1 to "
        << bytes[round] << " B after round " << round;
  }
  // Converged: the second half of the run adds at most one pool chunk.
  if (store != "raw") {
    EXPECT_LE(bytes[kRounds - 1], bytes[kRounds / 2] + pool_chunk)
        << store << ": live bytes still growing, " << bytes[kRounds / 2] << " B after round "
        << kRounds / 2 << " and " << bytes[kRounds - 1] << " B after round " << kRounds - 1;
  }
}

INSTANTIATE_TEST_SUITE_P(Stores, RemovedKeysFreeTheirSlots,
                         ::testing::Values("swarm", "dmabd", "raw"), StoreName);

}  // namespace
}  // namespace swarm
