// Deterministic tests for Safe-Guess's rare paths, orchestrated directly on
// the building blocks:
//  * Algorithm 3 lines 23–24 (the wait-free escape hatch): a reader that can
//    never lock a timestamp still returns after seeing two different tuples
//    from the same writer.
//  * Algorithm 2's lock-lost outcome: a writer whose guess may be stale
//    finds its timestamp lock taken in READ mode and must NOT re-execute —
//    some reader committed to its guessed value.
//  * Reader-side VERIFIED promotion (line 21): a second read of a GUESSED
//    tuple promotes it so later readers take the fast path.

#include <gtest/gtest.h>

#include "src/sim/sync.h"
#include "src/swarm/inout.h"
#include "src/swarm/safe_guess.h"
#include "src/swarm/timestamp_lock.h"
#include "tests/support/test_env.h"

namespace swarm {
namespace {

using sim::Spawn;
using sim::Task;
using testing::TestEnv;
using testing::ValN;

// Installs a GUESSED word at every replica directly (as a writer's combined
// phase would), without any background promotion.
Task<void> InstallGuessed(Worker* w, const ObjectLayout* layout, uint32_t counter, uint32_t tid,
                          std::vector<uint8_t> value) {
  for (int r = 0; r < layout->num_replicas; ++r) {
    InOutReplica rep(w, layout, r);
    Meta cache;
    (void)co_await rep.WriteMax(Meta::Pack(counter, tid, false, 0), value, &cache);
  }
}

TEST(SafeGuessPaths, WaitFreeEscapeAfterTwoTuplesFromSameWriter) {
  TestEnv env;
  Worker& helper = env.MakeWorker();
  Worker& reader_w = env.MakeWorker();
  const LayoutPin layout = env.MakeObject();
  constexpr uint32_t kWriterTid = 5;

  bool done = false;
  auto driver = [](TestEnv* env, Worker* helper, Worker* reader_w, const ObjectLayout* layout,
                   bool* done2) -> Task<void> {
    // A "writer" (tid 5) that saw an even higher timestamp holds its lock in
    // WRITE mode at a high counter, so no reader can ever lock any of its
    // guessed timestamps (the lock is never released, Algorithm 9).
    TimestampLock wlock(helper, layout, kWriterTid);
    TryLockResult wl = co_await wlock.TryLock(1000, LockMode::kWrite);
    EXPECT_TRUE(wl.acquired);

    // First guessed tuple from tid 5.
    co_await InstallGuessed(helper, layout, 100, kWriterTid, ValN(8, 0xAA));

    // Start the reader; while it loops (it can never lock ts 100 because of
    // the higher WRITE lock), install a SECOND tuple from the same writer.
    sim::Counter read_done(&env->sim);
    auto read_task = [](Worker* w, const ObjectLayout* layout2, sim::Counter done2,
                        SgReadResult* out) -> Task<void> {
      SafeGuessObject obj(w, layout2, w->SlotCacheFor(layout2));
      *out = co_await obj.Read();
      done2.Add(1);
    };
    auto result = std::make_shared<SgReadResult>();
    Spawn(read_task(reader_w, layout, read_done, result.get()));

    // Give the reader time for two iterations on tuple (100), then move on.
    co_await env->sim.Delay(12 * sim::kMicrosecond);
    co_await InstallGuessed(helper, layout, 200, kWriterTid, ValN(8, 0xBB));

    co_await read_done.WaitFor(1);
    // Line 23–24: the reader returns the FIRST tuple's value — the writer
    // having started a second write proves the first completed.
    EXPECT_EQ(result->status, SgStatus::kOk);
    EXPECT_EQ(result->value, ValN(8, 0xAA));
    EXPECT_GE(result->iterations, 2);
    *done2 = true;
  };
  Spawn(driver(&env, &helper, &reader_w, layout.get(), &done));
  env.sim.Run();
  EXPECT_TRUE(done);
}

TEST(SafeGuessPaths, WriterLockLostMeansReaderCommittedItsGuess) {
  TestEnv env;
  Worker& fresh = env.MakeWorker(/*skew=*/500 * sim::kMicrosecond);  // Fast clock.
  Worker& laggy = env.MakeWorker(/*skew=*/0);
  const LayoutPin layout = env.MakeObject();

  bool done = false;
  auto driver = [](TestEnv* env, Worker* fresh, Worker* laggy, const ObjectLayout* layout,
                   bool* done2) -> Task<void> {
    co_await env->sim.Delay(100 * sim::kMicrosecond);
    // The fast-clock writer installs a value far in the "future".
    SafeGuessObject a(fresh, layout, fresh->SlotCacheFor(layout));
    SgWriteResult r1 = co_await a.Write(ValN(8, 1));
    EXPECT_TRUE(r1.fast_path);

    // A reader pre-locks the laggy writer's NEXT guess in READ mode: lock
    // its whole plausible guess range by locking a counter just above what
    // its clock will produce. TryLock(ts, WRITE) with ANY lower ts then
    // fails with higher_seen — which Safe-Guess must treat as "a reader
    // committed", not as permission to re-execute.
    TimestampLock reader_lock(laggy, layout, laggy->tid());
    const uint32_t above_laggy_guess =
        static_cast<uint32_t>((env->sim.Now() + 50 * sim::kMicrosecond) >> kCounterShiftNs);
    TryLockResult rl = co_await reader_lock.TryLock(above_laggy_guess, LockMode::kRead);
    EXPECT_TRUE(rl.acquired);

    // The laggy writer's guess is stale (the fast-clock value is newer), so
    // it enters the slow path; its WRITE trylock loses to the reader lock.
    SafeGuessObject b(laggy, layout, laggy->SlotCacheFor(layout));
    SgWriteResult r2 = co_await b.Write(ValN(8, 2));
    EXPECT_EQ(r2.status, SgStatus::kOk);
    EXPECT_FALSE(r2.fast_path);
    EXPECT_TRUE(r2.lock_lost);

    // The write stands at its guessed (stale) timestamp: the register's
    // value is still the fast-clock writer's.
    SgReadResult rd = co_await a.Read();
    EXPECT_EQ(rd.status, SgStatus::kOk);
    EXPECT_EQ(rd.value, ValN(8, 1));
    *done2 = true;
  };
  Spawn(driver(&env, &fresh, &laggy, layout.get(), &done));
  env.sim.Run();
  EXPECT_TRUE(done);
}

TEST(SafeGuessPaths, ReaderPromotesGuessedTupleToVerified) {
  TestEnv env;
  Worker& helper = env.MakeWorker();
  Worker& reader1 = env.MakeWorker();
  Worker& reader2 = env.MakeWorker();
  const LayoutPin layout = env.MakeObject();

  bool done = false;
  auto driver = [](TestEnv* env, Worker* helper, Worker* r1, Worker* r2,
                   const ObjectLayout* layout, bool* done2) -> Task<void> {
    // A guessed tuple with no writer around to promote it (writer "crashed"
    // right after its fast path returned).
    co_await InstallGuessed(helper, layout, 300, 3, ValN(8, 0x77));

    // Reader 1 needs two iterations (double read) + a READ-mode lock, then
    // returns and promotes in the background (Algorithm 3 line 21).
    SafeGuessObject obj1(r1, layout, r1->SlotCacheFor(layout));
    SgReadResult first = co_await obj1.Read();
    EXPECT_EQ(first.status, SgStatus::kOk);
    EXPECT_EQ(first.value, ValN(8, 0x77));
    EXPECT_GE(first.iterations, 2);

    co_await env->sim.Delay(20 * sim::kMicrosecond);  // Promotion lands.

    // Reader 2 now takes the VERIFIED fast path in a single iteration.
    SafeGuessObject obj2(r2, layout, r2->SlotCacheFor(layout));
    SgReadResult second = co_await obj2.Read();
    EXPECT_EQ(second.status, SgStatus::kOk);
    EXPECT_EQ(second.value, ValN(8, 0x77));
    EXPECT_EQ(second.iterations, 1);
    EXPECT_TRUE(second.fast_path);
    *done2 = true;
  };
  Spawn(driver(&env, &helper, &reader1, &reader2, layout.get(), &done));
  env.sim.Run();
  EXPECT_TRUE(done);
}

TEST(SafeGuessPaths, ReadersNeverBlockOnWriterCrashMidWrite) {
  // A writer installs a GUESSED tuple at a MINORITY of replicas and
  // "crashes". Readers must still terminate (wait-freedom) and agree.
  TestEnv env;
  Worker& helper = env.MakeWorker();
  Worker& r1 = env.MakeWorker();
  Worker& r2 = env.MakeWorker();
  const LayoutPin layout = env.MakeObject();

  bool done = false;
  auto driver = [](TestEnv* env, Worker* helper, Worker* r1, Worker* r2,
                   const ObjectLayout* layout, bool* done2) -> Task<void> {
    // Baseline value everywhere.
    SafeGuessObject base(helper, layout, helper->SlotCacheFor(layout));
    (void)co_await base.Write(ValN(8, 0x11));
    co_await env->sim.Delay(20 * sim::kMicrosecond);

    // Partial write at a single replica from a "crashing" writer (tid 6).
    InOutReplica rep(helper, layout, 1);
    Meta cache;
    (void)co_await rep.WriteMax(Meta::Pack(5000000, 6, false, 0), ValN(8, 0x22), &cache);

    SafeGuessObject o1(r1, layout, r1->SlotCacheFor(layout));
    SafeGuessObject o2(r2, layout, r2->SlotCacheFor(layout));
    SgReadResult a = co_await o1.Read();
    SgReadResult b = co_await o2.Read();
    EXPECT_EQ(a.status, SgStatus::kOk);
    EXPECT_EQ(b.status, SgStatus::kOk);
    // Once a reader returns the partial value (repairing it to a majority),
    // every later reader must agree — no new/old inversion.
    SgReadResult c = co_await o1.Read();
    EXPECT_EQ(c.value, b.value);
    *done2 = true;
  };
  Spawn(driver(&env, &helper, &r1, &r2, layout.get(), &done));
  env.sim.Run();
  EXPECT_TRUE(done);
}

}  // namespace
}  // namespace swarm
