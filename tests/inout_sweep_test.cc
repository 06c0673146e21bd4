// Parameterized In-n-Out sweeps (§4): max-register semantics over every
// metadata-array width, in-place validation across value sizes, and the MAX
// emulation's retry economics under multi-writer contention.

#include <gtest/gtest.h>

#include <tuple>

#include "src/sim/sync.h"
#include "src/swarm/inout.h"
#include "tests/support/test_env.h"

namespace swarm {
namespace {

using sim::Spawn;
using sim::Task;
using testing::TestEnv;
using testing::ValN;

// ---------- Array-max property across slot widths ----------

class SlotWidthSweep : public ::testing::TestWithParam<int> {};

TEST_P(SlotWidthSweep, NodeMaxIsMaxOverAllWriters) {
  const int slots = GetParam();
  fabric::FabricConfig fcfg = TestEnv::DefaultFabric();
  ProtocolConfig pcfg = TestEnv::DefaultProtocol();
  pcfg.meta_slots = slots;
  pcfg.max_writers = 8;
  TestEnv env(13, fcfg, pcfg);
  const LayoutPin layout = env.MakeObject();

  bool done = false;
  auto driver = [](TestEnv* env, const ObjectLayout* layout, bool* done2) -> Task<void> {
    // 8 writers install increasing counters in arbitrary slot mapping.
    uint32_t max_counter = 0;
    for (uint32_t tid = 0; tid < 8; ++tid) {
      Worker& w = env->MakeWorker();
      InOutReplica rep(&w, layout, 0);
      Meta cache;
      const uint32_t counter = 100 + tid * 7;
      max_counter = std::max(max_counter, counter);
      NodeMaxResult r = co_await rep.WriteMax(Meta::Pack(counter, w.tid(), false, 0),
                                              ValN(16, static_cast<uint8_t>(tid)), &cache);
      EXPECT_TRUE(r.ok());
    }
    // A reader scanning the array sees the global max regardless of width.
    Worker& reader = env->MakeWorker();
    InOutReplica rep(&reader, layout, 0);
    NodeView view = co_await rep.ReadNode(false);
    EXPECT_TRUE(view.ok());
    EXPECT_EQ(view.max.counter(), max_counter);
    EXPECT_EQ(view.slots.size(), static_cast<size_t>(layout->meta_slots));
    *done2 = true;
  };
  Spawn(driver(&env, layout.get(), &done));
  env.sim.Run();
  EXPECT_TRUE(done);
}

INSTANTIATE_TEST_SUITE_P(Widths, SlotWidthSweep, ::testing::Values(1, 2, 4, 8, 16, 64));

// ---------- In-place validation across value sizes ----------

class InPlaceSizeSweep : public ::testing::TestWithParam<uint32_t> {};

TEST_P(InPlaceSizeSweep, PromoteThenReadInPlace) {
  const uint32_t size = GetParam();
  fabric::FabricConfig fcfg = TestEnv::DefaultFabric();
  ProtocolConfig pcfg = TestEnv::DefaultProtocol();
  pcfg.max_value = size;
  TestEnv env(17, fcfg, pcfg);
  const LayoutPin layout = env.MakeObject();

  bool done = false;
  auto driver = [](TestEnv* env, const ObjectLayout* layout, uint32_t size2,
                   bool* done2) -> Task<void> {
    Worker& w = env->MakeWorker();
    InOutReplica rep(&w, layout, 0);
    Meta cache;
    auto value = ValN(size2, 0x3D);
    NodeMaxResult wr = co_await rep.WriteMax(Meta::Pack(9, w.tid(), false, 0), value, &cache);
    EXPECT_FALSE(wr.installed.empty());
    EXPECT_EQ(co_await rep.PromoteVerified(wr.installed, value), fabric::Status::kOk);
    NodeView view = co_await rep.ReadNode(true);
    EXPECT_TRUE(view.inplace_valid);
    EXPECT_EQ(view.value.size(), size2);
    EXPECT_EQ(view.value, value);
    // Short values must not leak stale bytes: write a shorter value on top.
    auto shorter = ValN(size2 / 2 + 1, 0x5E);
    NodeMaxResult wr2 = co_await rep.WriteMax(Meta::Pack(10, w.tid(), false, 0), shorter, &cache);
    EXPECT_EQ(co_await rep.PromoteVerified(wr2.installed, shorter), fabric::Status::kOk);
    NodeView view2 = co_await rep.ReadNode(true);
    EXPECT_TRUE(view2.inplace_valid);
    EXPECT_EQ(view2.value, shorter);
    *done2 = true;
  };
  Spawn(driver(&env, layout.get(), size, &done));
  env.sim.Run();
  EXPECT_TRUE(done);
}

INSTANTIATE_TEST_SUITE_P(Sizes, InPlaceSizeSweep,
                         ::testing::Values(8u, 24u, 64u, 250u, 1024u, 8192u));

// ---------- MAX-emulation retry economics ----------

TEST(InOutContention, SharedSlotRetriesBoundedByWriters) {
  // N writers with one shared slot, all issuing simultaneously with empty
  // caches: Algorithm 7 guarantees each write terminates within a bounded
  // number of CAS retries (every failure means someone else made progress).
  fabric::FabricConfig fcfg = TestEnv::DefaultFabric();
  ProtocolConfig pcfg = TestEnv::DefaultProtocol();
  pcfg.meta_slots = 1;
  TestEnv env(23, fcfg, pcfg);
  const LayoutPin layout = env.MakeObject();
  constexpr int kWriters = 8;

  int max_retries = 0;
  int completions = 0;
  auto writer = [](TestEnv* /*env*/, Worker* w, const ObjectLayout* layout, uint32_t counter,
                   int* max_retries, int* completions) -> Task<void> {
    InOutReplica rep(w, layout, 0);
    Meta cache;
    NodeMaxResult r =
        co_await rep.WriteMax(Meta::Pack(counter, w->tid(), false, 0), ValN(8, 1), &cache);
    EXPECT_TRUE(r.ok());
    *max_retries = std::max(*max_retries, r.cas_retries);
    ++*completions;
  };
  for (int i = 0; i < kWriters; ++i) {
    Worker& w = env.MakeWorker();
    Spawn(writer(&env, &w, layout.get(), 50 + static_cast<uint32_t>(i), &max_retries, &completions));
  }
  env.sim.Run();
  EXPECT_EQ(completions, kWriters);
  EXPECT_LE(max_retries, kWriters) << "retries must be bounded by concurrent writers";
  EXPECT_GE(max_retries, 1) << "contention should force at least one retry";
}

TEST(InOutContention, PerWriterSlotsEliminateRetries) {
  fabric::FabricConfig fcfg = TestEnv::DefaultFabric();
  ProtocolConfig pcfg = TestEnv::DefaultProtocol();
  pcfg.meta_slots = 8;
  TestEnv env(23, fcfg, pcfg);
  const LayoutPin layout = env.MakeObject();

  int total_retries = 0;
  int completions = 0;
  auto writer = [](TestEnv* /*env*/, Worker* w, const ObjectLayout* layout, uint32_t counter,
                   int* total_retries, int* completions) -> Task<void> {
    InOutReplica rep(w, layout, 0);
    Meta cache;
    NodeMaxResult r =
        co_await rep.WriteMax(Meta::Pack(counter, w->tid(), false, 0), ValN(8, 1), &cache);
    *total_retries += r.cas_retries;
    ++*completions;
  };
  for (int i = 0; i < 8; ++i) {
    Worker& w = env.MakeWorker();
    Spawn(writer(&env, &w, layout.get(), 50 + static_cast<uint32_t>(i), &total_retries, &completions));
  }
  env.sim.Run();
  EXPECT_EQ(completions, 8);
  EXPECT_EQ(total_retries, 0) << "§4.4: one buffer per writer makes MAX 1-RT";
}

}  // namespace
}  // namespace swarm
