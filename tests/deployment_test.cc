// Tests for deploy::Deployment (src/deploy): the one writer-sizing rule
// and the production wiring every bench, KV chaos suite and example runs on.

#include "src/deploy/deployment.h"

#include <gtest/gtest.h>

#include <vector>

#include "src/sim/task.h"
#include "src/swarm/timestamp.h"

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

INSTANTIATE_TEST_SUITE_P(Stores, DeploymentServingTest, ::testing::Values("swarm", "dmabd"));

}  // namespace
}  // namespace swarm
