// Tests for deploy::Deployment (src/deploy): the one writer-sizing rule
// and the production wiring every bench, KV chaos suite and example runs on.

#include "src/deploy/deployment.h"

#include <gtest/gtest.h>

#include <vector>

#include "src/sim/task.h"
#include "src/swarm/timestamp.h"
#include "tests/support/test_env.h"

namespace swarm {
namespace {

using deploy::ClientProcess;
using deploy::ClientWorker;
using deploy::Deployment;
using deploy::DeploymentConfig;
using deploy::SizeProtocol;

constexpr int kTids = 1 << kTidBits;  // The metadata word's tid space.

DeploymentConfig SmallConfig(const char* store) {
  DeploymentConfig cfg;
  cfg.store = store;
  cfg.fabric.node_capacity_bytes = 8ull << 20;
  return cfg;
}

// Every worker of the deployment: clients first, then the coordinators.
std::vector<Worker*> AllWorkers(Deployment& d) {
  std::vector<Worker*> out;
  for (int c = 0; c < d.num_clients(); ++c) {
    for (ClientWorker& w : d.client(c).workers) {
      out.push_back(w.worker.get());
    }
  }
  for (Worker* w : {d.repair_worker(), d.migration_worker()}) {
    if (w != nullptr) {
      out.push_back(w);
    }
  }
  return out;
}

TEST(SizeProtocol, AutoSizesOneLockPerWriterAndCapsMetaSlots) {
  ProtocolConfig auto_cfg;
  auto_cfg.max_writers = 0;
  auto_cfg.meta_slots = 0;
  const ProtocolConfig ten = SizeProtocol(auto_cfg, 10);
  EXPECT_EQ(ten.max_writers, 10);
  EXPECT_EQ(ten.meta_slots, 10);
  // Fig. 8's largest deployment: 64 clients x 4 workers fill the tid space.
  const ProtocolConfig full = SizeProtocol(auto_cfg, kTids);
  EXPECT_EQ(full.max_writers, 256);
  EXPECT_EQ(full.meta_slots, 64);
}

TEST(SizeProtocol, ExplicitValuesWidenToTheWritersButNeverShrink) {
  ProtocolConfig cfg;
  cfg.max_writers = 8;
  cfg.meta_slots = 4;
  EXPECT_EQ(SizeProtocol(cfg, 10).max_writers, 10);
  EXPECT_EQ(SizeProtocol(cfg, 10).meta_slots, 4);
  EXPECT_EQ(SizeProtocol(cfg, 3).max_writers, 8);
}

TEST(Deployment, UndersizedWriterBoundCanaryKeepsTheConfigVerbatim) {
  // The writer-bound canary's path: W=8 stays for ten writers.
  DeploymentConfig cfg = SmallConfig("swarm");
  cfg.num_clients = 10;
  cfg.proto.max_writers = 8;
  cfg.proto.meta_slots = 4;
  cfg.fabric.canaries.undersized_writer_bound = true;
  Deployment d(cfg);
  EXPECT_EQ(d.config().proto.max_writers, 8);
  EXPECT_EQ(d.config().proto.meta_slots, 4);
}

TEST(Deployment, CoordinatorsAreCountedAsWriters) {
  DeploymentConfig cfg = SmallConfig("swarm");
  cfg.num_clients = 3;
  cfg.workers_per_client = 2;
  cfg.repair = repair::RepairConfig{};
  cfg.migration = repair::MigrationConfig{};
  Deployment d(cfg);
  EXPECT_EQ(d.config().proto.max_writers, 8);
  EXPECT_EQ(d.config().proto.meta_slots, 8);
  ASSERT_NE(d.repair_worker(), nullptr);
  ASSERT_NE(d.migration_worker(), nullptr);
  EXPECT_LT(static_cast<int>(d.repair_worker()->tid()), d.config().proto.max_writers);
  EXPECT_LT(static_cast<int>(d.migration_worker()->tid()), d.config().proto.max_writers);
  EXPECT_EQ(d.num_sessions(), 6);
}

using DeploymentDeathTest = ::testing::TestWithParam<const char*>;

TEST_P(DeploymentDeathTest, OneWriterPastTheTidSpaceAbortsAtBuild) {
  DeploymentConfig cfg = SmallConfig(GetParam());
  cfg.num_clients = kTids;             // Every tid taken...
  cfg.repair = repair::RepairConfig{};  // ...and one more writer.
  EXPECT_DEATH({ Deployment d(cfg); }, "exceed the metadata word's tid space");
}

INSTANTIATE_TEST_SUITE_P(Stores, DeploymentDeathTest, ::testing::Values("swarm", "dmabd"));

TEST(Deployment, EveryWorkerCarriesASubscribedEpochAndTheRepairExclusionView) {
  DeploymentConfig cfg = SmallConfig("swarm");
  cfg.repair = repair::RepairConfig{};
  Deployment d(cfg);
  membership::MembershipService& ms = d.membership();
  ms.CrashNode(1);
  d.sim().Run();  // Past the detection delay: the epoch push has landed.
  ms.BeginRepair(1);
  for (Worker* w : AllWorkers(d)) {
    ASSERT_NE(w->epoch(), nullptr) << "tid " << w->tid();
    EXPECT_GT(w->epoch()->value, 1u) << "tid " << w->tid();
    EXPECT_TRUE(w->NodeQuorumExcluded(1)) << "tid " << w->tid();
    EXPECT_FALSE(w->NodeQuorumExcluded(2)) << "tid " << w->tid();
  }
}

TEST(Deployment, CrashNotificationsReachEachProcessOwnKnownFailedView) {
  DeploymentConfig cfg = SmallConfig("swarm");
  cfg.num_clients = 2;
  cfg.workers_per_client = 2;
  Deployment d(cfg);
  d.membership().CrashNode(3);
  d.sim().Run();
  for (Worker* w : AllWorkers(d)) {
    EXPECT_TRUE(w->NodeKnownFailed(3)) << "tid " << w->tid();
  }
  // A worker's own timeout reaches its process's workers, not other clients.
  ClientProcess& a = d.client(0);
  ClientProcess& b = d.client(1);
  a.workers[0].worker->MarkNodeFailed(2);
  EXPECT_TRUE(a.workers[1].worker->NodeKnownFailed(2));
  EXPECT_FALSE(b.workers[0].worker->NodeKnownFailed(2));
  EXPECT_FALSE(b.workers[1].worker->NodeKnownFailed(2));
}

sim::Task<void> InsertKeys(kv::KvSession* s, uint64_t keys) {
  for (uint64_t key = 0; key < keys; ++key) {
    (void)co_await s->Insert(key, std::vector<uint8_t>(8, 1));
  }
}

using DeploymentServingTest = ::testing::TestWithParam<const char*>;

TEST_P(DeploymentServingTest, SessionsPlaceFreshKeysOnServingNodesOnly) {
  Deployment d(SmallConfig(GetParam()));
  d.membership().BeginDrain(0);
  sim::Spawn(InsertKeys(&d.session(0), 16));
  d.sim().Run();
  for (uint64_t key = 0; key < 16; ++key) {
    const index::IndexEntry* e = d.index().Peek(key);
    ASSERT_NE(e, nullptr) << "key " << key;
    for (int r = 0; r < e->layout->num_replicas; ++r) {
      EXPECT_NE(e->layout->replicas[static_cast<size_t>(r)].node, 0) << "key " << key;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Stores, DeploymentServingTest, ::testing::Values("swarm", "dmabd", "raw"));

// Drives a node admitted after the deployment was built through a crash, a
// repair and its rejoin, under traffic before and after each step.
sim::Task<void> HotAddedNodeCrashesAndRejoins(Deployment* d, bool* done) {
  constexpr uint64_t kKeys = 16;
  kv::KvSession& s = d->session(0);
  const auto val = [](uint64_t key, uint8_t round) {
    return testing::ValN(8, static_cast<uint8_t>(key * 4 + round));
  };
  for (uint64_t key = 0; key < kKeys; ++key) {
    EXPECT_TRUE((co_await s.Insert(key, val(key, 0))).ok()) << "key " << key;
  }
  EXPECT_EQ(co_await d->migration()->AdmitAndRebalance(8), 4);
  for (uint64_t key = 0; key < kKeys; ++key) {
    // Re-locates the keys the rebalance moved.
    EXPECT_EQ((co_await s.Get(key)).status, kv::KvStatus::kOk) << "key " << key;
  }
  for (uint64_t key = 0; key < kKeys; ++key) {
    EXPECT_EQ((co_await s.Update(key, val(key, 1))).status, kv::KvStatus::kOk) << "key " << key;
  }
  d->membership().CrashNode(4);
  for (uint64_t key = 0; key < kKeys; ++key) {
    EXPECT_EQ((co_await s.Update(key, val(key, 2))).status, kv::KvStatus::kOk) << "key " << key;
  }
  EXPECT_TRUE(co_await d->repair()->RecoverAndRepair(4));
  kv::KvSession& reader = d->session(1);
  for (uint64_t key = 0; key < kKeys; ++key) {
    const kv::KvResult g = co_await reader.Get(key);
    EXPECT_EQ(g.status, kv::KvStatus::kOk) << "key " << key;
    EXPECT_EQ(g.value, val(key, 2)) << "key " << key;
  }
  *done = true;
}

using DeploymentHotAddTest = ::testing::TestWithParam<const char*>;

// Every per-node table spans the fabric's node-id space from the start:
// membership's and the workers' views, the RepairService's lifecycle tables,
// FUSEE's failed roles, key registry and per-session log slots.
TEST_P(DeploymentHotAddTest, AdmittedNodeCrashesIsRepairedAndRejoins) {
  DeploymentConfig cfg = SmallConfig(GetParam());
  cfg.fabric = testing::ElasticFabric();
  cfg.repair = repair::RepairConfig{};
  cfg.migration = repair::MigrationConfig{};
  Deployment d(cfg);
  bool done = false;
  sim::Spawn(HotAddedNodeCrashesAndRejoins(&d, &done));
  d.sim().Run();
  EXPECT_TRUE(done);
  EXPECT_EQ(d.migration()->keys_moved(), 8u);
  EXPECT_GT(d.repair()->slots_repaired(), 0u);
  EXPECT_TRUE(d.membership().IsServing(4));
  EXPECT_FALSE(d.membership().IsRepairing(4));
  EXPECT_EQ(d.repair()->repairs_completed(), 1u);
}

INSTANTIATE_TEST_SUITE_P(Stores, DeploymentHotAddTest,
                         ::testing::Values("swarm", "dmabd", "fusee"));

}  // namespace
}  // namespace swarm
