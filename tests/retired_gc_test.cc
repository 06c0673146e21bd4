// Retired-layout GC (the unbounded-growth follow-up): IndexService::Retire
// used to keep every dead layout forever, and repair re-walked the whole
// list each round. Retirement is now coupled to the memory recycler's epochs
// — an entry is tagged with the epoch current at retirement and dropped once
// Recycler::SafeReclaimBefore() passes it (every live client drained the
// accesses that could still reference it; non-acking clients are
// sticky-fenced). These tests assert the list actually SHRINKS under churn.

#include "src/index/index_service.h"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "src/index/client_cache.h"
#include "src/kv/swarm_kv.h"
#include "src/membership/membership.h"
#include "src/swarm/recycler.h"
#include "tests/support/test_env.h"

namespace swarm {
namespace {

using testing::TestEnv;

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
      index.Retire(std::make_shared<ObjectLayout>(env.MakeObject()));
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
    index.Retire(std::make_shared<ObjectLayout>(env.MakeObject()));
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
  index.add_gc_listener([&notified](const std::shared_ptr<const ObjectLayout>& layout) {
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
  std::shared_ptr<const ObjectLayout> pin;
  std::vector<const ObjectLayout*> early;
  for (int i = 0; i < 4; ++i) {
    auto layout = std::make_shared<const ObjectLayout>(env.MakeObject());
    early.push_back(layout.get());
    if (i == 0) {
      pin = layout;  // An in-flight op's Located copy.
    }
    index.Retire(std::move(layout));
  }
  EXPECT_EQ(index.retired().size(), 4u) << "nothing may drop before the horizon passes";
  EXPECT_TRUE(notified.empty());

  drained_round();  // The horizon passes epoch 0.
  auto late = std::make_shared<const ObjectLayout>(env.MakeObject());
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

}  // namespace
}  // namespace swarm
