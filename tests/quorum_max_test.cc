// Tests for the reliable max register over In-n-Out replicas (Algorithm 8 /
// Appendix A): validity, monotonicity, write-back repair, fast-path
// roundtrips, escalation on node failure.

#include "src/swarm/quorum_max.h"
#include "src/util/discard.h"

#include <gtest/gtest.h>

#include "src/sim/sync.h"
#include "tests/support/test_env.h"

namespace swarm {
namespace {

using sim::Spawn;
using sim::Task;
using testing::TestEnv;
using testing::ValN;

TEST(QuorumMax, WriteThenStrongReadReturnsValue) {
  TestEnv env;
  Worker& w = env.MakeWorker();
  const LayoutPin layout = env.MakeObject();
  auto cache = env.MakeCache();

  auto driver = [](Worker* w, const ObjectLayout* layout,
                   std::shared_ptr<ObjectCache> cache2) -> Task<void> {
    QuorumMax reg(w, layout, cache2);
    auto value = ValN(40, 0xAB);
    WriteReadOutcome wr = co_await reg.WriteAndRead(Meta::Pack(10, 0, false, 0), value);
    EXPECT_TRUE(wr.ok);
    EXPECT_TRUE(wr.m.empty());  // Nothing else was ever written.
    int installs = 0;
    for (int r = 0; r < layout->num_replicas; ++r) {
      installs += !wr.installed[static_cast<size_t>(r)].empty();
    }
    EXPECT_GE(installs, layout->majority());

    ReadOutcome rd = co_await reg.ReadQuorum(true);
    EXPECT_TRUE(rd.ok);
    EXPECT_TRUE(rd.value_ok);
    EXPECT_EQ(rd.m.counter(), 10u);
    EXPECT_EQ(rd.value, value);
  };
  Spawn(driver(&w, layout.get(), cache));
  env.sim.Run();
}

TEST(QuorumMax, ReadReportsMaxOfConcurrentWrites) {
  TestEnv env;
  Worker& w0 = env.MakeWorker();
  Worker& w1 = env.MakeWorker();
  Worker& rdr = env.MakeWorker();
  const LayoutPin layout = env.MakeObject();

  auto writer = [](Worker* w, const ObjectLayout* layout, uint32_t counter,
                   uint8_t fill) -> Task<void> {
    QuorumMax reg(w, layout, std::make_shared<ObjectCache>());
    swarm::DiscardStatus(co_await reg.WriteAndRead(Meta::Pack(counter, w->tid(), false, 0), ValN(16, fill)));
  };
  auto reader = [](Worker* w, const ObjectLayout* layout) -> Task<void> {
    co_await w->sim()->Delay(20000);  // After both writes settle.
    QuorumMax reg(w, layout, std::make_shared<ObjectCache>());
    ReadOutcome rd = co_await reg.ReadQuorum(true);
    EXPECT_TRUE(rd.ok);
    EXPECT_EQ(rd.m.counter(), 30u);  // Max register: the larger ts wins.
    EXPECT_TRUE(rd.value_ok);
    if (rd.value_ok) {
      EXPECT_EQ(rd.value, ValN(16, 2));
    }
  };
  Spawn(writer(&w0, layout.get(), 20, 1));
  Spawn(writer(&w1, layout.get(), 30, 2));
  Spawn(reader(&rdr, layout.get()));
  env.sim.Run();
}

TEST(QuorumMax, WriteBackRepairsPartialWrite) {
  TestEnv env;
  Worker& w = env.MakeWorker();
  Worker& rdr = env.MakeWorker();
  const LayoutPin layout = env.MakeObject();

  auto driver = [](Worker* w, Worker* rdr, const ObjectLayout* layout) -> Task<void> {
    // Install a word at ONE replica only, simulating a writer that crashed
    // mid-write (its value reached a minority).
    InOutReplica rep(w, layout, 1);
    Meta cache;
    auto value = ValN(24, 0x77);
    NodeMaxResult nm = co_await rep.WriteMax(Meta::Pack(50, w->tid(), false, 0), value, &cache);
    EXPECT_FALSE(nm.installed.empty());

    // A strong read must repair: after it, a majority holds the value.
    QuorumMax reg(rdr, layout, std::make_shared<ObjectCache>());
    ReadOutcome rd = co_await reg.ReadQuorum(true);
    EXPECT_TRUE(rd.ok);
    EXPECT_TRUE(rd.value_ok);
    EXPECT_EQ(rd.m.counter(), 50u);
    EXPECT_GE(rd.rtts, 2);  // Oop chase and/or write-back happened.

    ReadOutcome rd2 = co_await reg.ReadQuorum(true);
    int holders = 0;
    for (int r = 0; r < layout->num_replicas; ++r) {
      const auto idx = static_cast<size_t>(r);
      if (rd2.node_ok[idx] && rd2.node_words[idx].counter() == 50) {
        ++holders;
      }
    }
    EXPECT_GE(holders, layout->majority());
  };
  Spawn(driver(&w, &rdr, layout.get()));
  env.sim.Run();
}

TEST(QuorumMax, VerifiedReadIsOneRoundtripAfterPromotion) {
  TestEnv env;
  Worker& w = env.MakeWorker();
  const LayoutPin layout = env.MakeObject();
  auto cache = env.MakeCache();

  auto driver = [](Worker* w, const ObjectLayout* layout,
                   std::shared_ptr<ObjectCache> cache2) -> Task<void> {
    QuorumMax reg(w, layout, cache2);
    auto value = ValN(32, 5);
    WriteReadOutcome wr = co_await reg.WriteAndRead(Meta::Pack(10, 0, false, 0), value);
    EXPECT_TRUE(wr.ok);
    co_await QuorumMax::Promote(w, layout, /*pin=*/nullptr, wr.installed, value);
    co_await w->sim()->Delay(10000);  // Let the promotion land.

    const sim::Time start = w->sim()->Now();
    ReadOutcome rd = co_await reg.ReadQuorum(true);
    const sim::Time latency = w->sim()->Now() - start;
    EXPECT_TRUE(rd.ok);
    EXPECT_TRUE(rd.m.verified());
    EXPECT_TRUE(rd.used_inplace);  // In-place hash validated: no oop chase.
    EXPECT_EQ(rd.rtts, 1);
    EXPECT_LT(latency, 3000);  // ~1 roundtrip.
  };
  Spawn(driver(&w, layout.get(), cache));
  env.sim.Run();
}

TEST(QuorumMax, GuessedReadFallsBackToOopChase) {
  TestEnv env;
  Worker& w = env.MakeWorker();
  const LayoutPin layout = env.MakeObject();
  auto cache = env.MakeCache();

  auto driver = [](Worker* w, const ObjectLayout* layout,
                   std::shared_ptr<ObjectCache> cache2) -> Task<void> {
    QuorumMax reg(w, layout, cache2);
    auto value = ValN(32, 6);
    // No promotion: in-place data never written, read must chase the pointer.
    swarm::DiscardStatus(co_await reg.WriteAndRead(Meta::Pack(10, 0, false, 0), value));
    ReadOutcome rd = co_await reg.ReadQuorum(true);
    EXPECT_TRUE(rd.ok);
    EXPECT_TRUE(rd.value_ok);
    EXPECT_FALSE(rd.used_inplace);
    EXPECT_EQ(rd.value, value);
    EXPECT_GE(rd.rtts, 2);
  };
  Spawn(driver(&w, layout.get(), cache));
  env.sim.Run();
}

TEST(QuorumMax, SurvivesMinorityCrashViaEscalation) {
  TestEnv env;
  Worker& w = env.MakeWorker();
  const LayoutPin layout = env.MakeObject();
  auto cache = env.MakeCache();

  auto driver = [](Worker* w, const ObjectLayout* layout,
                   std::shared_ptr<ObjectCache> cache2) -> Task<void> {
    QuorumMax reg(w, layout, cache2);
    auto value = ValN(16, 9);
    WriteReadOutcome wr = co_await reg.WriteAndRead(Meta::Pack(10, 0, false, 0), value);
    EXPECT_TRUE(wr.ok);

    // Crash replica 0 (the designated in-place holder, in the preferred set).
    w->fabric()->Crash(layout->replica(0).node);
    ReadOutcome rd = co_await reg.ReadQuorum(true);
    EXPECT_TRUE(rd.ok);  // Escalation reached the remaining majority.
    EXPECT_TRUE(rd.value_ok);
    EXPECT_EQ(rd.value, value);
    EXPECT_GE(rd.rtts, 2);
    EXPECT_TRUE(w->NodeKnownFailed(layout->replica(0).node));

    // Next reads skip the dead node: back to a single escalation-free phase.
    ReadOutcome rd2 = co_await reg.ReadQuorum(true);
    EXPECT_TRUE(rd2.ok);
    EXPECT_EQ(rd2.value, value);
  };
  Spawn(driver(&w, layout.get(), cache));
  env.sim.Run();
}

TEST(QuorumMax, MajorityCrashMakesOpsUnavailable) {
  TestEnv env;
  Worker& w = env.MakeWorker();
  const LayoutPin layout = env.MakeObject();
  auto cache = env.MakeCache();
  env.fabric.Crash(layout->replica(0).node);
  env.fabric.Crash(layout->replica(1).node);

  auto driver = [](Worker* w, const ObjectLayout* layout,
                   std::shared_ptr<ObjectCache> cache2) -> Task<void> {
    QuorumMax reg(w, layout, cache2);
    WriteReadOutcome wr = co_await reg.WriteAndRead(Meta::Pack(10, 0, false, 0), ValN(8, 1));
    EXPECT_FALSE(wr.ok);
    ReadOutcome rd = co_await reg.ReadQuorum(true);
    EXPECT_FALSE(rd.ok);
  };
  Spawn(driver(&w, layout.get(), cache));
  env.sim.Run();
}

TEST(QuorumMax, TombstoneReadNeedsNoValue) {
  TestEnv env;
  Worker& w = env.MakeWorker();
  const LayoutPin layout = env.MakeObject();
  auto cache = env.MakeCache();

  auto driver = [](Worker* w, const ObjectLayout* layout,
                   std::shared_ptr<ObjectCache> cache2) -> Task<void> {
    QuorumMax reg(w, layout, cache2);
    swarm::DiscardStatus(co_await reg.WriteAndRead(Meta::Pack(10, 0, false, 0), ValN(8, 1)));
    EXPECT_TRUE(co_await reg.WriteVerified(Meta::Tombstone(w->tid()), {}));
    ReadOutcome rd = co_await reg.ReadQuorum(true);
    EXPECT_TRUE(rd.ok);
    EXPECT_TRUE(rd.m.deleted());
  };
  Spawn(driver(&w, layout.get(), cache));
  env.sim.Run();
}

}  // namespace
}  // namespace swarm
