// Tests for In-n-Out (§4): single-node max-register semantics, one-roundtrip
// pipelined writes, in-place validation, out-of-place fallback, the
// CAS-emulated MAX under contention, and the metadata buffer array.

#include "src/swarm/inout.h"

#include <gtest/gtest.h>

#include "src/sim/sync.h"
#include "tests/support/test_env.h"

namespace swarm {
namespace {

using sim::Spawn;
using sim::Task;
using testing::TestEnv;
using testing::ValN;

TEST(InOut, WriteThenReadInPlaceAfterPromotion) {
  TestEnv env;
  Worker& w = env.MakeWorker();
  const LayoutPin layout = env.MakeObject();
  auto value = ValN(48, 0x5A);

  auto driver = [](Worker* w, const ObjectLayout* layout,
                   std::vector<uint8_t> value2) -> Task<void> {
    InOutReplica rep(w, layout, 0);
    Meta cache;
    const Meta word = Meta::Pack(100, w->tid(), false, 0);
    NodeMaxResult wr = co_await rep.WriteMax(word, value2, &cache);
    EXPECT_TRUE(wr.ok());
    EXPECT_FALSE(wr.installed.empty());
    EXPECT_EQ(wr.cas_retries, 0);
    // `observed` reflects the slot content after the op: our own word.
    EXPECT_EQ(wr.observed.raw(), wr.installed.raw());

    // Before promotion: metadata points out-of-place, in-place is stale.
    NodeView v1 = co_await rep.ReadNode(true);
    EXPECT_TRUE(v1.ok());
    EXPECT_EQ(v1.max.same_write_key(), word.same_write_key());
    EXPECT_FALSE(v1.max.verified());
    EXPECT_FALSE(v1.inplace_valid);

    // The out-of-place fallback resolves the bytes.
    auto oop = co_await rep.ReadOop(v1.max);
    EXPECT_TRUE(oop.has_value());
    if (oop.has_value()) {
      EXPECT_EQ(*oop, value2);
    }

    // Promote to VERIFIED: refreshes in-place data in the same roundtrip.
    EXPECT_EQ(co_await rep.PromoteVerified(wr.installed, value2), fabric::Status::kOk);
    NodeView v2 = co_await rep.ReadNode(true);
    EXPECT_TRUE(v2.ok());
    EXPECT_TRUE(v2.max.verified());
    EXPECT_TRUE(v2.inplace_valid);
    EXPECT_EQ(v2.value, value2);
  };
  Spawn(driver(&w, layout.get(), value));
  env.sim.Run();
}

TEST(InOut, WriteIsOneRoundtrip) {
  TestEnv env;
  env.fabric.stats().Reset();
  Worker& w = env.MakeWorker();
  const LayoutPin layout = env.MakeObject();

  sim::Time latency = 0;
  auto driver = [](Worker* w, const ObjectLayout* layout, sim::Time* out) -> Task<void> {
    InOutReplica rep(w, layout, 0);
    Meta cache;
    auto value = ValN(64, 1);
    const sim::Time start = w->sim()->Now();
    NodeMaxResult wr = co_await rep.WriteMax(Meta::Pack(5, 0, false, 0), value, &cache);
    *out = w->sim()->Now() - start;
    EXPECT_TRUE(wr.ok());
    EXPECT_EQ(wr.cas_retries, 0);
  };
  Spawn(driver(&w, layout.get(), &latency));
  env.sim.Run();
  // One pipelined roundtrip: ~2 * 740 + transfer + submit + node costs.
  EXPECT_LT(latency, 2600);
}

TEST(InOut, MaxSemanticsKeepLargerTimestamp) {
  TestEnv env;
  Worker& w0 = env.MakeWorker();
  Worker& w1 = env.MakeWorker();
  const LayoutPin layout = env.MakeObject();

  auto driver = [](Worker* w0, Worker* w1, const ObjectLayout* layout) -> Task<void> {
    // Same slot: force tids into the same metadata buffer.
    InOutReplica rep0(w0, layout, 0);
    InOutReplica rep1(w1, layout, 0);
    Meta c0;
    Meta c1;
    auto high = ValN(8, 9);
    auto low = ValN(8, 1);
    // Writer 1 installs counter 200 first.
    NodeMaxResult r1 = co_await rep1.WriteMaxFor(Meta::Pack(200, 0, false, 0), high, c1);
    EXPECT_FALSE(r1.installed.empty());
    // Writer 0 then tries counter 100 into the same slot: must lose.
    NodeMaxResult r0 = co_await rep0.WriteMaxFor(Meta::Pack(100, 0, false, 0), low, c0);
    EXPECT_TRUE(r0.ok());
    EXPECT_TRUE(r0.installed.empty());
    EXPECT_EQ(r0.observed.counter(), 200u);

    NodeView v = co_await rep0.ReadNode(false);
    EXPECT_EQ(v.max.counter(), 200u);
  };
  Spawn(driver(&w0, &w1, layout.get()));
  env.sim.Run();
}

TEST(InOut, StaleCacheCostsCasRetry) {
  TestEnv env;
  Worker& w0 = env.MakeWorker();
  Worker& w1 = env.MakeWorker();
  ProtocolConfig pc = env.proto;
  // One shared buffer: both writers collide on slot 0 (§7.9's 1-buffer case).
  pc.meta_slots = 1;
  std::vector<int> nodes{0, 1, 2};
  const LayoutPin layout = AllocateObject(env.fabric, nodes.data(), 3, pc.meta_slots,
                                       pc.max_writers, pc.max_value);

  auto driver = [](Worker* w0, Worker* w1, const ObjectLayout* layout) -> Task<void> {
    InOutReplica rep0(w0, layout, 0);
    InOutReplica rep1(w1, layout, 0);
    Meta c0;
    Meta c1;
    auto v = ValN(16, 3);
    NodeMaxResult r0 = co_await rep0.WriteMax(Meta::Pack(50, w0->tid(), false, 0), v, &c0);
    EXPECT_FALSE(r0.installed.empty());
    // Writer 1 has never read the slot: its cached expected value (empty) is
    // stale, so the pipelined CAS fails and Algorithm 7 retries once.
    NodeMaxResult r1 = co_await rep1.WriteMax(Meta::Pack(60, w1->tid(), false, 0), v, &c1);
    EXPECT_TRUE(r1.ok());
    EXPECT_FALSE(r1.installed.empty());
    EXPECT_EQ(r1.cas_retries, 1);
    // Its cache is now fresh: the next write is retry-free.
    NodeMaxResult r2 = co_await rep1.WriteMax(Meta::Pack(70, w1->tid(), false, 0), v, &c1);
    EXPECT_EQ(r2.cas_retries, 0);
    EXPECT_FALSE(r2.installed.empty());
  };
  Spawn(driver(&w0, &w1, layout.get()));
  env.sim.Run();
}

TEST(InOut, SeparateSlotsAvoidContention) {
  TestEnv env;
  Worker& w0 = env.MakeWorker();
  Worker& w1 = env.MakeWorker();
  // meta_slots = 4 (default): tids 0 and 1 use different buffers.
  const LayoutPin layout = env.MakeObject();

  auto driver = [](Worker* w0, Worker* w1, const ObjectLayout* layout) -> Task<void> {
    InOutReplica rep0(w0, layout, 0);
    InOutReplica rep1(w1, layout, 0);
    Meta c0;
    Meta c1;
    auto v = ValN(16, 3);
    NodeMaxResult r0 = co_await rep0.WriteMax(Meta::Pack(50, w0->tid(), false, 0), v, &c0);
    NodeMaxResult r1 = co_await rep1.WriteMax(Meta::Pack(60, w1->tid(), false, 0), v, &c1);
    // No cross-writer CAS conflicts even though neither consulted the other.
    EXPECT_EQ(r0.cas_retries, 0);
    EXPECT_EQ(r1.cas_retries, 0);
    EXPECT_FALSE(r0.installed.empty());
    EXPECT_FALSE(r1.installed.empty());
    // A reader scanning the array sees the highest of the two (§4.4).
    NodeView view = co_await rep0.ReadNode(false);
    EXPECT_EQ(view.max.counter(), 60u);
    EXPECT_EQ(view.slots.size(), 4u);
  };
  Spawn(driver(&w0, &w1, layout.get()));
  env.sim.Run();
}

TEST(InOut, InPlaceHashRejectsTornData) {
  TestEnv env;
  Worker& w = env.MakeWorker();
  const LayoutPin layout = env.MakeObject();

  auto driver = [](Worker* w, const ObjectLayout* layout) -> Task<void> {
    InOutReplica rep(w, layout, 0);
    Meta cache;
    auto value = ValN(48, 0x11);
    NodeMaxResult wr = co_await rep.WriteMax(Meta::Pack(10, 0, false, 0), value, &cache);
    EXPECT_TRUE(co_await rep.PromoteVerified(wr.installed, value) == fabric::Status::kOk);

    // Corrupt one in-place byte directly (simulating a torn write that the
    // fabric's staged application would produce under concurrency).
    const ReplicaLayout& r0 = layout->replica(0);
    std::vector<uint8_t> junk{0xEE};
    w->fabric()->node(r0.node).WriteFrom(layout->inplace_addr(r0) + kInPlaceHeaderBytes + 5, junk);

    NodeView v = co_await rep.ReadNode(true);
    EXPECT_TRUE(v.ok());
    EXPECT_FALSE(v.inplace_valid) << "hash must reject torn in-place data";
    // The out-of-place copy still serves the correct bytes (Algorithm 6).
    auto oop = co_await rep.ReadOop(v.max);
    EXPECT_TRUE(oop.has_value());
    if (oop.has_value()) {
      EXPECT_EQ((*oop)[5], 0x11);
    }
  };
  Spawn(driver(&w, layout.get()));
  env.sim.Run();
}

TEST(InOut, RecyclingQuarantineThenReuseDetection) {
  TestEnv env;
  Worker& w = env.MakeWorker();
  const LayoutPin layout = env.MakeObject();

  auto driver = [](Worker* w, const ObjectLayout* layout) -> Task<void> {
    InOutReplica rep(w, layout, 0);
    Meta cache;
    NodeMaxResult first = co_await rep.WriteMax(Meta::Pack(10, w->tid(), false, 0),
                                                ValN(8, 1), &cache);
    const Meta stale = first.installed;
    // Superseding the value frees its buffer into quarantine...
    (void)co_await rep.WriteMax(Meta::Pack(11, w->tid(), false, 0), ValN(8, 2), &cache);
    // ...but within the quarantine window the old buffer is still intact, so
    // a slow reader chasing the stale word still gets the right bytes.
    auto bytes = co_await rep.ReadOop(stale);
    EXPECT_TRUE(bytes.has_value());
    if (bytes.has_value()) {
      EXPECT_EQ(*bytes, ValN(8, 1));
    }

    // After the quarantine expires, new writes may reuse the slot. A reader
    // still chasing the ancient word must detect the reuse via the header.
    co_await w->sim()->Delay(kOopQuarantineNs + 1000);
    const uint32_t reused = w->pool(rep.node()).AllocIdx();
    EXPECT_EQ(reused, stale.oop()) << "quarantined slot should be first in line for reuse";
    std::vector<uint8_t> clobber(kOopHeaderBytes, 0xEE);
    w->fabric()->node(rep.node()).WriteFrom(static_cast<uint64_t>(reused) * kOopGranuleBytes,
                                            clobber);
    auto stale_bytes = co_await rep.ReadOop(stale);
    EXPECT_FALSE(stale_bytes.has_value()) << "recycled buffer must not validate";
  };
  Spawn(driver(&w, layout.get()));
  env.sim.Run();
}

TEST(InOut, TombstoneWriteNeedsNoBuffer) {
  TestEnv env;
  Worker& w = env.MakeWorker();
  const LayoutPin layout = env.MakeObject();

  auto driver = [](Worker* w, const ObjectLayout* layout) -> Task<void> {
    InOutReplica rep(w, layout, 0);
    Meta cache;
    (void)co_await rep.WriteMax(Meta::Pack(10, 0, false, 0), ValN(8, 1), &cache);
    NodeMaxResult del = co_await rep.WriteMax(Meta::Tombstone(w->tid()), {}, &cache);
    EXPECT_TRUE(del.ok());
    EXPECT_FALSE(del.installed.empty());
    NodeView v = co_await rep.ReadNode(true);
    EXPECT_TRUE(v.max.deleted());
    // Nothing can overwrite the tombstone.
    NodeMaxResult after = co_await rep.WriteMax(Meta::Pack(10000, 0, false, 0), ValN(8, 2), &cache);
    EXPECT_TRUE(after.installed.empty());
  };
  Spawn(driver(&w, layout.get()));
  env.sim.Run();
}

}  // namespace
}  // namespace swarm
