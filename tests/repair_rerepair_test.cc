// Dark-slot re-repair (the mutually-waiting-repairs follow-up): a repair
// that exhausts its round budget gives up and leaves the node excluded —
// previously PERMANENTLY, even when the blocker was transient. The
// RepairService now keeps per-node dark-slot bookkeeping and re-triggers
// given-up repairs on every successful readmission (the event that changes
// the survivor picture). This suite drives the recovery end to end:
// a repair blocked by an unreachable survivor gives up, a later unrelated
// readmission re-triggers it, and the slot — including its data — recovers.

#include "src/repair/repair.h"
#include "src/util/discard.h"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "src/index/index_service.h"
#include "src/membership/membership.h"
#include "src/swarm/quorum_max.h"
#include "tests/support/test_env.h"

namespace swarm {
namespace {

using testing::TestEnv;

struct DarkSlotFixture {
  DarkSlotFixture()
      : membership(&env.sim, &env.fabric, /*detection_delay=*/10 * sim::kMicrosecond),
        index(&env.sim) {}

  TestEnv env;
  membership::MembershipService membership;
  index::IndexService index;
};

TEST(RepairDarkSlot, GiveUpIsReRepairedAfterUnrelatedReadmission) {
  DarkSlotFixture f;
  Worker& writer = f.env.MakeWorker();
  writer.set_repair_excluded(f.membership.repairing());
  // Epoch-fenced verbs in the unit fixture too (not only the chaos harness):
  // the writer's ops across the crash/readmit cycles below run the stamp +
  // re-validation path instead of kNoFenceEpoch.
  testing::WireWorkerEpoch(writer, f.membership);
  Worker& coord = f.env.MakeWorker();

  repair::RepairConfig rcfg;
  rcfg.max_rounds = 2;  // Small budget: the blocked repair gives up fast.
  rcfg.round_retry_delay = 5 * sim::kMicrosecond;
  repair::RepairService svc(&f.membership, &coord, rcfg);
  repair::IndexRepairSource source(&f.index, repair::LayoutProtocol::kSafeGuess);
  svc.RegisterStore(&source);

  // One object on replicas {0, 1, 2}, written VERIFIED.
  const LayoutPin layout = f.env.MakeObject();
  auto cache = f.env.MakeCache();
  const std::vector<uint8_t> value = {7, 7, 7, 7, 7, 7, 7, 7};

  // Scripted blocker: while set, every message to node 2 is lost, so a
  // repair of node 0 cannot assemble a surviving quorum ({1} alone is no
  // majority of 3).
  bool node2_unreachable = false;
  f.env.fabric.set_drop_fn(
      [&node2_unreachable](int node, bool, int) { return node2_unreachable && node == 2; });

  bool done = false;
  auto driver = [](DarkSlotFixture* f, repair::RepairService* svc, Worker* writer,
                   LayoutPin layout2, std::shared_ptr<ObjectCache> cache2,
                   const std::vector<uint8_t>* value, bool* node2_unreachable2,
                   bool* done2) -> sim::Task<void> {
    swarm::DiscardStatus(co_await f->index.InsertIfAbsent(1, layout2, nullptr));
    QuorumMax reg(writer, layout2.get(), cache2);
    const Meta word = Meta::Pack(5, writer->tid(), /*verified=*/true, 0);
    EXPECT_TRUE(co_await reg.WriteVerified(word, *value));

    // Crash node 0 with node 2 unreachable: the repair has no surviving
    // quorum for the object and must give up after its round budget.
    *node2_unreachable2 = true;
    f->membership.CrashNode(0);
    co_await f->env.sim.Delay(20 * sim::kMicrosecond);
    EXPECT_FALSE(co_await svc->RecoverAndRepair(0));
    EXPECT_EQ(svc->repairs_aborted(), 1u);
    EXPECT_TRUE(f->membership.IsRepairing(0)) << "a given-up node must stay excluded";
    EXPECT_EQ(svc->dark_nodes().size(), 1u);
    if (!svc->dark_nodes().empty()) {
      EXPECT_EQ(svc->dark_nodes().begin()->first, 0);
      EXPECT_GE(svc->dark_nodes().begin()->second, 1u) << "the failing slot must be booked";
    }

    // The blocker clears, and an UNRELATED node's repair completes: its
    // readmission must re-trigger node 0's repair.
    *node2_unreachable2 = false;
    f->membership.CrashNode(3);
    co_await f->env.sim.Delay(20 * sim::kMicrosecond);
    EXPECT_TRUE(co_await svc->RecoverAndRepair(3));

    // The resumed repair runs in the background; give it room to finish.
    co_await f->env.sim.Delay(300 * sim::kMicrosecond);
    EXPECT_EQ(svc->repairs_resumed(), 1u);
    EXPECT_TRUE(svc->dark_nodes().empty()) << "the dark slot must be cleared";
    EXPECT_FALSE(f->membership.IsRepairing(0)) << "the re-repair must readmit node 0";

    // The slot recovered with its data: a strong read through a quorum that
    // may include the repaired replica returns the written value.
    ReadOutcome m = co_await reg.ReadQuorum(/*strong=*/true);
    EXPECT_TRUE(m.ok);
    EXPECT_TRUE(m.value_ok);
    EXPECT_EQ(m.value, *value);
    *done2 = true;
  };
  sim::Spawn(driver(&f, &svc, &writer, layout, cache, &value, &node2_unreachable, &done));
  f.env.sim.Run();
  EXPECT_TRUE(done);
}

TEST(RepairDarkSlot, FreshLifecycleSupersedesDarkBookkeeping) {
  // If chaos crashes a dark node AGAIN and runs a fresh RecoverAndRepair,
  // the fresh lifecycle owns the node: the stale dark entry is dropped so a
  // later readmission does not spawn a duplicate coordinator.
  DarkSlotFixture f;
  Worker& writer = f.env.MakeWorker();
  writer.set_repair_excluded(f.membership.repairing());
  // Epoch-fenced verbs in the unit fixture too (not only the chaos harness):
  // the writer's ops across the crash/readmit cycles below run the stamp +
  // re-validation path instead of kNoFenceEpoch.
  testing::WireWorkerEpoch(writer, f.membership);
  Worker& coord = f.env.MakeWorker();

  repair::RepairConfig rcfg;
  rcfg.max_rounds = 2;
  rcfg.round_retry_delay = 5 * sim::kMicrosecond;
  repair::RepairService svc(&f.membership, &coord, rcfg);
  repair::IndexRepairSource source(&f.index, repair::LayoutProtocol::kSafeGuess);
  svc.RegisterStore(&source);

  const LayoutPin layout = f.env.MakeObject();
  auto cache = f.env.MakeCache();
  const std::vector<uint8_t> value = {9, 9, 9, 9, 9, 9, 9, 9};

  bool node2_unreachable = false;
  f.env.fabric.set_drop_fn(
      [&node2_unreachable](int node, bool, int) { return node2_unreachable && node == 2; });

  bool done = false;
  auto driver = [](DarkSlotFixture* f, repair::RepairService* svc, Worker* writer,
                   LayoutPin layout2, std::shared_ptr<ObjectCache> cache2,
                   const std::vector<uint8_t>* value, bool* node2_unreachable2,
                   bool* done2) -> sim::Task<void> {
    swarm::DiscardStatus(co_await f->index.InsertIfAbsent(1, layout2, nullptr));
    QuorumMax reg(writer, layout2.get(), cache2);
    EXPECT_TRUE(
        co_await reg.WriteVerified(Meta::Pack(5, writer->tid(), true, 0), *value));

    *node2_unreachable2 = true;
    f->membership.CrashNode(0);
    co_await f->env.sim.Delay(20 * sim::kMicrosecond);
    EXPECT_FALSE(co_await svc->RecoverAndRepair(0));
    EXPECT_EQ(svc->dark_nodes().size(), 1u);

    // The dark node crashes again; the fresh lifecycle (blocker cleared)
    // completes and must leave no residual dark entry behind.
    f->membership.CrashNode(0);
    *node2_unreachable2 = false;
    co_await f->env.sim.Delay(20 * sim::kMicrosecond);
    EXPECT_TRUE(co_await svc->RecoverAndRepair(0));
    EXPECT_TRUE(svc->dark_nodes().empty());
    EXPECT_FALSE(f->membership.IsRepairing(0));
    EXPECT_EQ(svc->repairs_resumed(), 0u);

    ReadOutcome m = co_await reg.ReadQuorum(/*strong=*/true);
    EXPECT_TRUE(m.ok);
    EXPECT_TRUE(m.value_ok);
    EXPECT_EQ(m.value, *value);
    *done2 = true;
  };
  sim::Spawn(driver(&f, &svc, &writer, layout, cache, &value, &node2_unreachable, &done));
  f.env.sim.Run();
  EXPECT_TRUE(done);
}

}  // namespace
}  // namespace swarm
