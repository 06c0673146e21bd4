// Membership-epoch fencing regressions (§5.4 per-client QP revocation):
//  * the epoch advances on every repair-relevant transition and reaches
//    memory nodes immediately, subscribed clients after the detection delay;
//  * a verb in flight when the epoch advances completes kStaleEpoch — even
//    at a node that never crashed — and revokes its QP;
//  * revoked QPs fail fast until Worker::RefreshEpoch re-validates + re-arms;
//  * a doorbell batch straddling an epoch bump is fenced coherently: every
//    verb of the batch bounces, none applies;
//  * the repair coordinator's channel passes the epoch fence;
//  * the canary knob (CanaryKnobs::unenforced_epoch_fence) restores pre-fix
//    behavior, on hot-added nodes too.

#include <gtest/gtest.h>

#include <array>
#include <memory>
#include <vector>

#include "src/membership/membership.h"
#include "src/swarm/worker.h"
#include "tests/support/test_env.h"

namespace swarm {
namespace {

using testing::TestEnv;

struct EpochEnv {
  explicit EpochEnv(fabric::FabricConfig fcfg = TestEnv::DefaultFabric())
      : env(1, fcfg),
        membership(&env.sim, &env.fabric, /*detection_delay=*/50 * sim::kMicrosecond) {}

  // An epoch-wired worker; `subscribe` = receives membership pushes.
  Worker& MakeEpochWorker(bool subscribe) {
    Worker& w = env.MakeWorker();
    auto epoch = std::make_shared<fabric::ClientEpoch>();
    epoch->value = membership.epoch();
    w.set_epoch(epoch);
    w.set_epoch_source([this] { return membership.ValidateEpoch(); });
    if (subscribe) {
      membership.SubscribeEpoch(epoch);
    }
    return w;
  }

  TestEnv env;
  membership::MembershipService membership;
};

TEST(EpochFence, EpochAdvancesOnEveryRepairRelevantTransition) {
  EpochEnv f;
  const uint64_t e0 = f.membership.epoch();
  f.membership.CrashNode(1);
  EXPECT_EQ(f.membership.epoch(), e0 + 1);
  EXPECT_EQ(f.env.fabric.node(0).fence_epoch(), e0 + 1) << "nodes learn immediately";
  EXPECT_EQ(f.env.fabric.node(3).fence_epoch(), e0 + 1);
  f.membership.BeginRepair(1);
  EXPECT_EQ(f.membership.epoch(), e0 + 2);
  f.membership.CompleteRepair(1);
  EXPECT_EQ(f.membership.epoch(), e0 + 3);
  EXPECT_EQ(f.env.fabric.node(2).fence_epoch(), e0 + 3);
  EXPECT_EQ(f.membership.ValidateEpoch(), e0 + 3);
}

TEST(EpochFence, PushReachesSubscribersAfterDetectionDelayOnly) {
  EpochEnv f;
  auto subscribed = std::make_shared<fabric::ClientEpoch>();
  subscribed->value = f.membership.epoch();
  f.membership.SubscribeEpoch(subscribed);
  auto deaf = std::make_shared<fabric::ClientEpoch>();
  deaf->value = f.membership.epoch();
  const uint64_t e0 = f.membership.epoch();

  f.membership.CrashNode(2);
  EXPECT_EQ(subscribed->value, e0) << "the push must wait out the detection delay";
  f.env.sim.RunUntil(f.env.sim.Now() + 60 * sim::kMicrosecond);
  EXPECT_EQ(subscribed->value, e0 + 1);
  EXPECT_EQ(deaf->value, e0) << "an unsubscribed client never learns";
}

TEST(EpochFence, StaleClientFencedMidVerb) {
  // The verb targets node 1, which never crashes; node 2's crash advances
  // the epoch while the verb is in flight — it must bounce anyway (§5.4:
  // revocation is cluster-wide), revoke the QP, and the QP must fail fast
  // until RefreshEpoch re-arms it.
  EpochEnv f;
  Worker& w = f.MakeEpochWorker(/*subscribe=*/false);
  const uint64_t addr = f.env.fabric.node(1).Allocate(8);

  std::array<fabric::Status, 3> seen{};
  bool done = false;
  auto driver = [](EpochEnv* /*f*/, Worker* w, uint64_t addr2, std::array<fabric::Status, 3>* seen,
                   bool* done2) -> sim::Task<void> {
    std::array<uint8_t, 8> buf{};
    // In-flight fence: the crash lands 200 ns after this read departs.
    fabric::OpResult r = co_await w->qp(1).Read(addr2, buf);
    (*seen)[0] = r.status;
    // Revoked QP: fails fast, locally, without re-validation.
    r = co_await w->qp(1).Read(addr2, buf);
    (*seen)[1] = r.status;
    // Re-validated + re-armed: the retry carries the fresh stamp and lands.
    co_await w->RefreshEpoch();
    r = co_await w->qp(1).Read(addr2, buf);
    (*seen)[2] = r.status;
    *done2 = true;
  };
  f.env.sim.After(200, [&f] { f.membership.CrashNode(2); });
  sim::Spawn(driver(&f, &w, addr, &seen, &done));
  f.env.sim.Run();

  ASSERT_TRUE(done);
  EXPECT_EQ(seen[0], fabric::Status::kStaleEpoch) << "the in-flight verb must bounce";
  EXPECT_EQ(seen[1], fabric::Status::kStaleEpoch) << "the revoked QP must fail fast";
  EXPECT_EQ(seen[2], fabric::Status::kOk) << "the refreshed retry must land";
  EXPECT_FALSE(w.EpochRefreshNeeded());
}

TEST(EpochFence, DoorbellBatchStraddlingAnEpochBumpIsFencedCoherently) {
  // Three writes to three nodes posted under ONE doorbell; the epoch bump
  // lands while they are in flight. Every verb of the batch must bounce with
  // kStaleEpoch and none may have applied — a batch shares its stamp, so its
  // fate under a fence is all-or-nothing.
  EpochEnv f;
  Worker& w = f.MakeEpochWorker(/*subscribe=*/false);
  std::array<uint64_t, 3> addrs{};
  for (int n = 0; n < 3; ++n) {
    addrs[static_cast<size_t>(n)] = f.env.fabric.node(n).Allocate(8);
  }
  const std::vector<uint8_t> payload = {0xAB, 0xCD, 0xEF, 0x12, 0x34, 0x56, 0x78, 0x9A};

  sim::PoolVec<fabric::OpResult> first;
  sim::PoolVec<fabric::OpResult> second;
  std::array<uint64_t, 3> words_after_fenced_batch{};
  bool done = false;
  auto driver = [](EpochEnv* f, Worker* w, const std::array<uint64_t, 3>* addrs,
                   const std::vector<uint8_t>* payload, sim::PoolVec<fabric::OpResult>* first,
                   sim::PoolVec<fabric::OpResult>* second, std::array<uint64_t, 3>* words,
                   bool* done2) -> sim::Task<void> {
    auto post_batch = [&]() -> sim::Task<sim::PoolVec<fabric::OpResult>> {
      sim::PoolVec<sim::Task<fabric::OpResult>> verbs;
      for (int n = 0; n < 3; ++n) {
        verbs.push_back(w->qp(n).Write((*addrs)[static_cast<size_t>(n)], *payload));
      }
      co_return co_await fabric::PostMany(w->cpu(), w->sim(), std::move(verbs));
    };
    *first = co_await post_batch();
    for (int n = 0; n < 3; ++n) {  // Sampled BEFORE the re-armed retry lands.
      (*words)[static_cast<size_t>(n)] =
          f->env.fabric.node(n).LoadWord((*addrs)[static_cast<size_t>(n)]);
    }
    co_await w->RefreshEpoch();
    *second = co_await post_batch();
    *done2 = true;
  };
  f.env.sim.After(300, [&f] { f.membership.CrashNode(3); });
  sim::Spawn(driver(&f, &w, &addrs, &payload, &first, &second, &words_after_fenced_batch, &done));
  f.env.sim.Run();

  ASSERT_TRUE(done);
  ASSERT_EQ(first.size(), 3u);
  for (const fabric::OpResult& r : first) {
    EXPECT_EQ(r.status, fabric::Status::kStaleEpoch) << "the whole batch must be fenced";
  }
  for (int n = 0; n < 3; ++n) {
    EXPECT_EQ(words_after_fenced_batch[static_cast<size_t>(n)], 0u)
        << "a fenced verb must not apply (node " << n << ")";
  }
  ASSERT_EQ(second.size(), 3u);
  for (const fabric::OpResult& r : second) {
    EXPECT_EQ(r.status, fabric::Status::kOk) << "the re-armed batch must land";
  }
}

TEST(EpochFence, RepairChannelPassesTheEpochFence) {
  EpochEnv f;
  Worker& w = f.MakeEpochWorker(/*subscribe=*/false);
  w.MarkRepairChannel();
  const uint64_t addr = f.env.fabric.node(1).Allocate(8);
  f.membership.CrashNode(2);  // Epoch bump; w's cached epoch is now stale.

  bool done = false;
  fabric::Status status{};
  auto driver = [](EpochEnv* f, Worker* w, uint64_t addr2, fabric::Status* status,
                   bool* done2) -> sim::Task<void> {
    (void)f;
    std::array<uint8_t, 8> buf{};
    fabric::OpResult r = co_await w->qp(1).Read(addr2, buf);
    *status = r.status;
    *done2 = true;
  };
  sim::Spawn(driver(&f, &w, addr, &status, &done));
  f.env.sim.Run();
  ASSERT_TRUE(done);
  EXPECT_EQ(status, fabric::Status::kOk)
      << "the repair coordinator drives the transitions and must pass the fence";
}

TEST(EpochFence, CanaryKnobRestoresPreFixBehavior) {
  // With fencing disabled the epoch still advances and is still pushed, but
  // stale-stamped verbs land and are trusted — the §5.4 residual window the
  // chaos canary demonstrates.
  fabric::FabricConfig fcfg = TestEnv::DefaultFabric();
  fcfg.canaries.unenforced_epoch_fence = true;
  EpochEnv f(fcfg);
  Worker& w = f.MakeEpochWorker(/*subscribe=*/false);
  const uint64_t addr = f.env.fabric.node(1).Allocate(8);

  bool done = false;
  fabric::Status status{};
  auto driver = [](EpochEnv* f, Worker* w, uint64_t addr2, fabric::Status* status,
                   bool* done2) -> sim::Task<void> {
    (void)f;
    std::array<uint8_t, 8> buf{};
    fabric::OpResult r = co_await w->qp(1).Read(addr2, buf);
    *status = r.status;
    *done2 = true;
  };
  f.env.sim.After(200, [&f] { f.membership.CrashNode(2); });
  sim::Spawn(driver(&f, &w, addr, &status, &done));
  f.env.sim.Run();
  ASSERT_TRUE(done);
  EXPECT_EQ(status, fabric::Status::kOk) << "pre-fix: the stale in-flight verb is trusted";
  EXPECT_GT(f.membership.epoch(), 1u);
}

// A node hot-added after an epoch bump takes the fence setting the fabric
// was built with: a deaf worker's stale-stamped READ to it bounces by
// default and, under the canary, lands and is counted once.
fabric::Status StaleReadOnHotAddedNode(bool canary, uint64_t* stale_landings) {
  fabric::FabricConfig fcfg = testing::ElasticFabric();
  fcfg.canaries.unenforced_epoch_fence = canary;
  EpochEnv f(fcfg);
  Worker& w = f.MakeEpochWorker(/*subscribe=*/false);
  f.membership.CrashNode(2);  // Epoch bump; w's cached epoch is now stale.
  const int node = f.env.fabric.AddNode();
  EXPECT_GE(node, 0);
  const uint64_t addr = f.env.fabric.node(node).Allocate(8);

  bool done = false;
  fabric::Status status{};
  auto driver = [](Worker* w, int node2, uint64_t addr2, fabric::Status* status,
                   bool* done2) -> sim::Task<void> {
    std::array<uint8_t, 8> buf{};
    fabric::OpResult r = co_await w->qp(node2).Read(addr2, buf);
    *status = r.status;
    *done2 = true;
  };
  sim::Spawn(driver(&w, node, addr, &status, &done));
  f.env.sim.Run();
  EXPECT_TRUE(done);
  *stale_landings = f.env.fabric.node(node).stale_landings();
  return status;
}

TEST(EpochFence, HotAddedNodeObeysTheEpochFenceCanary) {
  uint64_t landings = 0;
  EXPECT_EQ(StaleReadOnHotAddedNode(/*canary=*/false, &landings), fabric::Status::kStaleEpoch)
      << "a hot-added node inherits the fence epoch and enforces it";
  EXPECT_EQ(landings, 0u);
  EXPECT_EQ(StaleReadOnHotAddedNode(/*canary=*/true, &landings), fabric::Status::kOk)
      << "a hot-added canary node learns the epoch but does not enforce it";
  EXPECT_EQ(landings, 1u);
}

}  // namespace
}  // namespace swarm
