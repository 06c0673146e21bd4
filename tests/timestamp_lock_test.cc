// Tests for timestamp locks (§3.3, Appendix B): True safety, True exclusion,
// supersession by higher timestamps, concurrency races, and fault tolerance.

#include "src/swarm/timestamp_lock.h"

#include <gtest/gtest.h>

#include "src/fabric/fabric.h"
#include "tests/support/test_env.h"

namespace swarm {
namespace {

using sim::Spawn;
using sim::Task;
using testing::TestEnv;

TEST(TimestampLock, UncontendedLockSucceeds) {
  TestEnv env;
  Worker& w = env.MakeWorker();
  const LayoutPin layout = env.MakeObject();

  auto driver = [](Worker* w, LayoutPin layout2) -> Task<void> {
    TimestampLock lock(w, layout2, 0);
    TryLockResult r = co_await lock.TryLock(42, LockMode::kWrite);
    EXPECT_TRUE(r.quorum_ok);
    EXPECT_TRUE(r.acquired);  // True safety: no conflicting attempt exists.
    EXPECT_EQ(r.rtts, 1);     // One CAS roundtrip per replica, in parallel.
  };
  Spawn(driver(&w, layout));
  env.sim.Run();
}

TEST(TimestampLock, SameModeSameTimestampBothSucceed) {
  TestEnv env;
  Worker& r1 = env.MakeWorker();
  Worker& r2 = env.MakeWorker();
  const LayoutPin layout = env.MakeObject();

  auto driver = [](Worker* a, Worker* b, LayoutPin layout2) -> Task<void> {
    TimestampLock la(a, layout2, 0);
    TimestampLock lb(b, layout2, 0);
    auto [ra, rb] = co_await fabric::PostBoth(nullptr, a->sim(), la.TryLock(7, LockMode::kRead),
                                              lb.TryLock(7, LockMode::kRead));
    // Two readers may both lock the same timestamp (readers-writer style).
    EXPECT_TRUE(ra.acquired);
    EXPECT_TRUE(rb.acquired);
  };
  Spawn(driver(&r1, &r2, layout));
  env.sim.Run();
}

TEST(TimestampLock, TrueExclusionSequential) {
  TestEnv env;
  Worker& a = env.MakeWorker();
  Worker& b = env.MakeWorker();
  const LayoutPin layout = env.MakeObject();

  auto driver = [](Worker* a, Worker* b, LayoutPin layout2) -> Task<void> {
    TimestampLock la(a, layout2, 0);
    TimestampLock lb(b, layout2, 0);
    TryLockResult w = co_await la.TryLock(9, LockMode::kWrite);
    EXPECT_TRUE(w.acquired);
    TryLockResult r = co_await lb.TryLock(9, LockMode::kRead);
    EXPECT_FALSE(r.acquired);  // Opposite mode already holds a majority.
  };
  Spawn(driver(&a, &b, layout));
  env.sim.Run();
}

TEST(TimestampLock, HigherTimestampSupersedes) {
  TestEnv env;
  Worker& a = env.MakeWorker();
  Worker& b = env.MakeWorker();
  const LayoutPin layout = env.MakeObject();

  auto driver = [](Worker* a, Worker* b, LayoutPin layout2) -> Task<void> {
    TimestampLock la(a, layout2, 0);
    TimestampLock lb(b, layout2, 0);
    // Locks are never unlocked, but can be relocked at higher timestamps.
    TryLockResult hi = co_await la.TryLock(100, LockMode::kRead);
    EXPECT_TRUE(hi.acquired);
    TryLockResult lo = co_await lb.TryLock(50, LockMode::kWrite);
    EXPECT_FALSE(lo.acquired);  // A higher timestamp was locked before.
    TryLockResult hi2 = co_await lb.TryLock(150, LockMode::kWrite);
    EXPECT_TRUE(hi2.acquired);  // Relocking higher succeeds.
  };
  Spawn(driver(&a, &b, layout));
  env.sim.Run();
}

// Property: under concurrent racing, TRYLOCK(ts, READ) and TRYLOCK(ts, WRITE)
// never both return true (Theorem B.2), across many seeds and racer counts.
struct RaceResult {
  int read_acquired = 0;
  int write_acquired = 0;
};

Task<void> Racer(Worker* w, LayoutPin layout, uint32_t owner, uint32_t ts, LockMode mode,
                 sim::Time delay, RaceResult* out) {
  co_await w->sim()->Delay(delay);
  TimestampLock lock(w, layout, owner);
  TryLockResult r = co_await lock.TryLock(ts, mode);
  if (r.acquired) {
    if (mode == LockMode::kRead) {
      out->read_acquired++;
    } else {
      out->write_acquired++;
    }
  }
}

class TimestampLockRace : public ::testing::TestWithParam<uint64_t> {};

TEST_P(TimestampLockRace, TrueExclusionUnderConcurrency) {
  TestEnv env(GetParam());
  const LayoutPin layout = env.MakeObject();
  RaceResult result;
  const int racers = 6;
  for (int i = 0; i < racers; ++i) {
    Worker& w = env.MakeWorker();
    const LockMode mode = (i % 2 == 0) ? LockMode::kRead : LockMode::kWrite;
    const sim::Time delay = static_cast<sim::Time>(env.sim.rng().Below(2000));
    Spawn(Racer(&w, layout, /*owner=*/0, /*ts=*/77, mode, delay, &result));
  }
  env.sim.Run();
  // Readers may all win or all lose; but never both modes.
  EXPECT_FALSE(result.read_acquired > 0 && result.write_acquired > 0)
      << "True exclusion violated: " << result.read_acquired << " readers and "
      << result.write_acquired << " writers acquired ts=77";
}

INSTANTIATE_TEST_SUITE_P(Seeds, TimestampLockRace, ::testing::Range<uint64_t>(1, 40));

TEST(TimestampLock, SurvivesMinorityCrash) {
  TestEnv env;
  Worker& w = env.MakeWorker();
  const LayoutPin layout = env.MakeObject();
  env.fabric.Crash(0);  // One of three replicas.

  bool done = false;
  auto driver = [](Worker* w, LayoutPin layout2, bool* done2) -> Task<void> {
    TimestampLock lock(w, layout2, 0);
    TryLockResult r = co_await lock.TryLock(5, LockMode::kWrite);
    EXPECT_TRUE(r.quorum_ok);
    EXPECT_TRUE(r.acquired);
    *done2 = true;
  };
  Spawn(driver(&w, layout, &done));
  env.sim.Run();
  EXPECT_TRUE(done);
}

TEST(TimestampLock, MajorityCrashReturnsUnacquired) {
  TestEnv env;
  Worker& w = env.MakeWorker();
  const LayoutPin layout = env.MakeObject();
  env.fabric.Crash(0);
  env.fabric.Crash(1);

  bool done = false;
  auto driver = [](Worker* w, LayoutPin layout2, bool* done2) -> Task<void> {
    TimestampLock lock(w, layout2, 0);
    TryLockResult r = co_await lock.TryLock(5, LockMode::kWrite);
    EXPECT_FALSE(r.quorum_ok);
    EXPECT_FALSE(r.acquired);  // Not acquired is always safe.
    *done2 = true;
  };
  Spawn(driver(&w, layout, &done));
  env.sim.Run();
  EXPECT_TRUE(done);
}

TEST(TimestampLock, DistinctOwnersAreIndependent) {
  TestEnv env;
  Worker& a = env.MakeWorker();
  Worker& b = env.MakeWorker();
  const LayoutPin layout = env.MakeObject();

  auto driver = [](Worker* a, Worker* b, LayoutPin layout2) -> Task<void> {
    TimestampLock la(a, layout2, /*owner=*/1);
    TimestampLock lb(b, layout2, /*owner=*/2);
    TryLockResult ra = co_await la.TryLock(9, LockMode::kWrite);
    TryLockResult rb = co_await lb.TryLock(9, LockMode::kRead);
    EXPECT_TRUE(ra.acquired);
    EXPECT_TRUE(rb.acquired);  // Different writers' locks never conflict.
  };
  Spawn(driver(&a, &b, layout));
  env.sim.Run();
}

}  // namespace
}  // namespace swarm
