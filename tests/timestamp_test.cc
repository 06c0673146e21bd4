// Tests for the metadata-word / timestamp encodings and the guess clock.

#include <gtest/gtest.h>

#include "src/sim/simulator.h"
#include "src/swarm/clock.h"
#include "src/swarm/timestamp.h"

namespace swarm {
namespace {

TEST(Meta, PackUnpackRoundtrip) {
  const Meta m = Meta::Pack(0x5EADBEEF, 93, true, 0xABCDEF);
  EXPECT_EQ(m.counter(), 0x5EADBEEFu);
  EXPECT_EQ(m.tid(), 93u);
  EXPECT_TRUE(m.verified());
  EXPECT_EQ(m.oop(), 0xABCDEFu);
}

TEST(Meta, ZeroIsEmpty) {
  Meta m;
  EXPECT_TRUE(m.empty());
  EXPECT_FALSE(m.deleted());
  EXPECT_EQ(m.raw(), 0u);
}

TEST(Meta, OrderCounterDominates) {
  const Meta lo = Meta::Pack(10, 120, true, 0xFFFFFF);
  const Meta hi = Meta::Pack(11, 0, false, 0);
  EXPECT_TRUE(TsLess(lo, hi));
  EXPECT_FALSE(TsLess(hi, lo));
}

TEST(Meta, OrderTidBreaksTies) {
  const Meta a = Meta::Pack(10, 3, true, 0);
  const Meta b = Meta::Pack(10, 4, false, 0);
  EXPECT_TRUE(TsLess(a, b));
}

TEST(Meta, VerifiedBeatsGuessedAtSameTimestamp) {
  // §3.2: VERIFIED is greater than GUESSED w.r.t. the max register's order.
  const Meta guessed = Meta::Pack(10, 3, false, 0x111111);
  const Meta verified = Meta::Pack(10, 3, true, 0x222222);
  EXPECT_TRUE(TsLess(guessed, verified));
  EXPECT_EQ(guessed.same_write_key(), verified.same_write_key());
}

TEST(Meta, OopDoesNotAffectOrderOrIdentity) {
  const Meta a = Meta::Pack(10, 3, false, 0x000001);
  const Meta b = Meta::Pack(10, 3, false, 0xFFFFFF);
  EXPECT_FALSE(TsLess(a, b));
  EXPECT_FALSE(TsLess(b, a));
  EXPECT_EQ(a.same_write_key(), b.same_write_key());
  EXPECT_EQ(a.ts_order_key(), b.ts_order_key());
}

TEST(Meta, TombstoneBeatsEverything) {
  const Meta t = Meta::Tombstone(5);
  EXPECT_TRUE(t.deleted());
  const Meta big = Meta::Pack(kDeleteCounter - 1, kMaxTid, true, kOopMask);
  EXPECT_TRUE(TsLess(big, t));
}

// 256 writer tids: Fig. 8's 64 clients x 4 workers each get their own.
TEST(Meta, HighestTidRoundTrips) {
  const Meta m = Meta::Pack(kDeleteCounter - 1, 255, false, kOopMask);
  EXPECT_EQ(kMaxTid, 255u);
  EXPECT_EQ(m.tid(), 255u);
  EXPECT_EQ(m.counter(), kDeleteCounter - 1);
  EXPECT_FALSE(m.verified());
  EXPECT_EQ(m.oop(), kOopMask);
}

// Tids 128 and up used to alias lower tids; now they order above them.
TEST(Meta, WriteOrderHoldsAcrossWideTids) {
  const Meta t127 = Meta::Pack(10, 127, true, 0);
  const Meta t128 = Meta::Pack(10, 128, false, 0);
  const Meta t255 = Meta::Pack(10, 255, false, 0);
  EXPECT_TRUE(TsLess(t127, t128));
  EXPECT_TRUE(TsLess(t128, t255));
  EXPECT_NE(t127.same_write_key(), t128.same_write_key());
  EXPECT_TRUE(TsLess(t255, Meta::Pack(11, 0, false, 0)));
}

TEST(Meta, TombstoneIsTheMaximumWord) {
  const Meta t = Meta::Tombstone(kMaxTid);
  EXPECT_EQ(t.raw() | kOopMask, ~uint64_t{0});
  for (uint32_t tid : {0u, 127u, 128u, kMaxTid}) {
    EXPECT_TRUE(TsLess(Meta::Pack(kDeleteCounter - 1, tid, true, kOopMask), Meta::Tombstone(0)))
        << "tid " << tid;
    EXPECT_TRUE(Meta::Tombstone(tid).deleted());
  }
}

TEST(Meta, WithVerifiedPreservesIdentity) {
  const Meta g = Meta::Pack(77, 2, false, 42);
  const Meta v = g.WithVerified();
  EXPECT_TRUE(v.verified());
  EXPECT_EQ(v.counter(), g.counter());
  EXPECT_EQ(v.oop(), g.oop());
  EXPECT_EQ(v.same_write_key(), g.same_write_key());
}

TEST(Meta, OopAddrUsesGranules) {
  const Meta m = Meta::Pack(1, 0, false, 10);
  EXPECT_EQ(m.oop_addr(), 10 * kOopGranuleBytes);
}

TEST(TslWord, PackUnpack) {
  const TslWord w = TslWord::Pack(1234, LockMode::kWrite);
  EXPECT_EQ(w.counter(), 1234u);
  EXPECT_EQ(w.mode(), LockMode::kWrite);
  EXPECT_FALSE(w.bottom());
  const TslWord r = TslWord::Pack(1234, LockMode::kRead);
  EXPECT_EQ(r.mode(), LockMode::kRead);
  EXPECT_NE(w.raw(), r.raw());
  EXPECT_TRUE(TslWord().bottom());
}

TEST(GuessClock, StrictlyMonotonicPerClient) {
  sim::Simulator sim;
  GuessClock clock(&sim, 0);
  uint32_t last = 0;
  for (int i = 0; i < 100; ++i) {
    const uint32_t c = clock.Guess();
    EXPECT_GT(c, last);
    last = c;
    sim.RunUntil(sim.Now() + 10);  // Less than one counter unit sometimes.
  }
}

TEST(GuessClock, TracksVirtualTime) {
  sim::Simulator sim;
  GuessClock clock(&sim, 0);
  sim.RunUntil(1 << 20);
  const uint32_t c = clock.Guess();
  EXPECT_NEAR(static_cast<double>(c), static_cast<double>((1 << 20) >> kCounterShiftNs), 2.0);
}

TEST(GuessClock, SkewShiftsGuesses) {
  sim::Simulator sim;
  sim.RunUntil(1 << 20);
  GuessClock fast(&sim, 4096);
  GuessClock slow(&sim, -4096);
  EXPECT_GT(fast.Guess(), slow.Guess());
}

TEST(GuessClock, ObserveStaleResynchronizes) {
  sim::Simulator sim;
  sim.RunUntil(1 << 16);
  GuessClock clock(&sim, -60000);  // Badly lagging clock.
  const uint32_t observed = static_cast<uint32_t>((sim.Now() + 50000) >> kCounterShiftNs);
  clock.ObserveStale(observed);
  EXPECT_GT(clock.Guess(), observed);
  EXPECT_EQ(clock.resyncs(), 1u);
}

TEST(GuessClock, NeverReachesTombstone) {
  sim::Simulator sim;
  GuessClock clock(&sim, 0);
  clock.ObserveStale(kDeleteCounter - 1);
  for (int i = 0; i < 10; ++i) {
    EXPECT_LT(clock.Guess(), kDeleteCounter);
  }
}

}  // namespace
}  // namespace swarm
