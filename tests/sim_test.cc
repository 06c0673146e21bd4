// Unit tests for the discrete-event simulation kernel: virtual clock, event
// ordering, coroutine tasks, spawning, and quorum counters.

#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>
#include <vector>

#include "src/sim/simulator.h"
#include "src/sim/sync.h"
#include "src/sim/task.h"

namespace swarm::sim {
namespace {

TEST(Simulator, StartsAtTimeZero) {
  Simulator sim;
  EXPECT_EQ(sim.Now(), 0);
}

TEST(Simulator, EventsRunInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.At(30, [&] { order.push_back(3); });
  sim.At(10, [&] { order.push_back(1); });
  sim.At(20, [&] { order.push_back(2); });
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.Now(), 30);
}

TEST(Simulator, TiedEventsRunInSchedulingOrder) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 16; ++i) {
    sim.At(5, [&, i] { order.push_back(i); });
  }
  sim.Run();
  for (int i = 0; i < 16; ++i) {
    EXPECT_EQ(order[static_cast<size_t>(i)], i);
  }
}

TEST(Simulator, PastEventsClampToNow) {
  Simulator sim;
  Time observed = -1;
  sim.At(100, [&] {
    sim.At(50, [&] { observed = sim.Now(); });  // In the past.
  });
  sim.Run();
  EXPECT_EQ(observed, 100);
}

TEST(Simulator, RunUntilAdvancesClockWithoutLaterEvents) {
  Simulator sim;
  int ran = 0;
  sim.At(10, [&] { ran++; });
  sim.At(500, [&] { ran++; });
  sim.RunUntil(100);
  EXPECT_EQ(ran, 1);
  EXPECT_EQ(sim.Now(), 100);
  sim.Run();
  EXPECT_EQ(ran, 2);
}

TEST(Rng, DeterministicForSeed) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.U64(), b.U64());
  }
}

TEST(Rng, BelowStaysInRange) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.Below(17), 17u);
  }
}

TEST(Rng, RangeInclusive) {
  Rng rng(7);
  bool saw_lo = false;
  bool saw_hi = false;
  for (int i = 0; i < 10000; ++i) {
    int64_t v = rng.Range(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    saw_lo |= (v == -3);
    saw_hi |= (v == 3);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

Task<int> Return42() { co_return 42; }

Task<int> AddAfterDelay(Simulator* sim, int a, int b) {
  co_await sim->Delay(100);
  co_return a + b;
}

Task<void> RunAndStore(Simulator* sim, int* out) {
  int v = co_await Return42();
  int w = co_await AddAfterDelay(sim, v, 8);
  *out = w;
}

TEST(Task, AwaitChainsAndDelays) {
  Simulator sim;
  int out = 0;
  Spawn(RunAndStore(&sim, &out));
  sim.Run();
  EXPECT_EQ(out, 50);
  EXPECT_EQ(sim.Now(), 100);
}

TEST(Task, LazyUntilAwaited) {
  Simulator sim;
  bool started = false;
  auto body = [](bool* s) -> Task<void> {
    *s = true;
    co_return;
  };
  {
    Task<void> t = body(&started);
    EXPECT_FALSE(started);  // Lazy: not started, and safely destroyed below.
  }
  EXPECT_FALSE(started);
  Spawn(body(&started));
  EXPECT_TRUE(started);  // Spawn starts eagerly.
}

Task<void> DeepChain(Simulator* sim, int depth, int* out) {
  if (depth == 0) {
    *out += 1;
    co_return;
  }
  co_await DeepChain(sim, depth - 1, out);
}

TEST(Task, DeepAwaitChainDoesNotOverflowStack) {
  // ASan's instrumentation defeats the symmetric-transfer tail calls this
  // test exercises, so the chain must stay shallow enough for a real stack.
#if !defined(SWARM_ASAN_BUILD) && defined(__has_feature)
#if __has_feature(address_sanitizer)
#define SWARM_ASAN_BUILD 1
#endif
#endif
#if defined(__SANITIZE_ADDRESS__) || defined(SWARM_ASAN_BUILD)
  constexpr int kDepth = 2000;
#else
  constexpr int kDepth = 100000;
#endif
  Simulator sim;
  int out = 0;
  Spawn(DeepChain(&sim, kDepth, &out));
  sim.Run();
  EXPECT_EQ(out, 1);
}

TEST(Counter, ThresholdWakesWaiter) {
  Simulator sim;
  Counter c(&sim);
  bool reached = false;
  auto waiter = [](Counter c2, bool* r) -> Task<void> {
    *r = co_await c2.WaitFor(3);
  };
  Spawn(waiter(c, &reached));
  sim.Run();
  EXPECT_FALSE(reached);
  c.Add(2);
  sim.Run();
  EXPECT_FALSE(reached);
  c.Add(1);
  sim.Run();
  EXPECT_TRUE(reached);
}

TEST(Counter, AlreadyReachedReturnsImmediately) {
  Simulator sim;
  Counter c(&sim);
  c.Add(5);
  bool reached = false;
  auto waiter = [](Counter c2, bool* r) -> Task<void> {
    *r = co_await c2.WaitFor(3);
  };
  Spawn(waiter(c, &reached));
  sim.Run();
  EXPECT_TRUE(reached);
}

TEST(Counter, TimeoutReturnsFalse) {
  Simulator sim;
  Counter c(&sim);
  bool result = true;
  Time when = -1;
  auto waiter = [](Simulator* sim, Counter c2, bool* r, Time* w) -> Task<void> {
    *r = co_await c2.WaitFor(2, 1000);
    *w = sim->Now();
  };
  Spawn(waiter(&sim, c, &result, &when));
  c.Add(1);
  sim.Run();
  EXPECT_FALSE(result);
  EXPECT_EQ(when, 1000);
}

TEST(Counter, ReachedBeforeTimeoutReturnsTrue) {
  Simulator sim;
  Counter c(&sim);
  bool result = false;
  auto waiter = [](Counter c2, bool* r) -> Task<void> {
    *r = co_await c2.WaitFor(2, 1000);
  };
  Spawn(waiter(c, &result));
  sim.At(500, [&] { c.Add(2); });
  sim.Run();
  EXPECT_TRUE(result);
  EXPECT_EQ(sim.Now(), 1000);  // The stale timeout event still fires harmlessly.
}

TEST(Counter, LateSignalAfterTimeoutIsHarmless) {
  Simulator sim;
  Counter c(&sim);
  bool result = true;
  auto waiter = [](Counter c2, bool* r) -> Task<void> {
    *r = co_await c2.WaitFor(1, 100);
  };
  Spawn(waiter(c, &result));
  sim.At(5000, [&] { c.Add(1); });
  sim.Run();
  EXPECT_FALSE(result);
  EXPECT_EQ(c.count(), 1);
}

// Waits follow one another on one counter: each resumes at its own
// threshold, and a wait already satisfied resumes at once.
TEST(Counter, WaitsInTurn) {
  Simulator sim;
  Counter c(&sim);
  std::vector<Time> woke;
  auto waiter = [](Simulator* sim, Counter c2, std::vector<Time>* w) -> Task<void> {
    for (const int threshold : {1, 3, 2}) {
      const bool reached = co_await c2.WaitFor(threshold);
      EXPECT_TRUE(reached);
      w->push_back(sim->Now());
    }
  };
  Spawn(waiter(&sim, c, &woke));
  sim.At(100, [&] { c.Add(1); });
  sim.At(200, [&] { c.Add(1); });
  sim.At(300, [&] { c.Add(1); });
  sim.Run();
  EXPECT_EQ(woke, (std::vector<Time>{100, 300, 300}));
}

// A wait satisfied before its timeout leaves its timer pending. That timer
// must not resume (or time out) the next wait on the same counter.
TEST(Counter, StaleTimerDoesNotResumeTheNextWait) {
  Simulator sim;
  Counter c(&sim);
  bool second = false;
  Time second_at = -1;
  auto waiter = [](Simulator* sim, Counter c2, bool* r, Time* at) -> Task<void> {
    const bool first = co_await c2.WaitFor(1, /*timeout=*/1000);
    EXPECT_TRUE(first);
    EXPECT_EQ(sim->Now(), 100);
    *r = co_await c2.WaitFor(2);  // Pending when the first wait's timer fires.
    *at = sim->Now();
  };
  Spawn(waiter(&sim, c, &second, &second_at));
  sim.At(100, [&] { c.Add(1); });
  sim.At(2000, [&] { c.Add(1); });
  sim.Run();
  EXPECT_TRUE(second);
  EXPECT_EQ(second_at, 2000);
}

// Escalation's pattern: a wait times out, then a second timed wait on the
// same counter resumes at its own threshold, or at its own timeout.
TEST(Counter, TimedWaitAfterATimeout) {
  for (const bool reach : {true, false}) {
    Simulator sim;
    Counter c(&sim);
    bool first = true;
    bool second = !reach;
    Time second_at = -1;
    auto waiter = [](Simulator* sim, Counter c2, bool* r1, bool* r2, Time* at) -> Task<void> {
      *r1 = co_await c2.WaitFor(2, /*timeout=*/100);
      *r2 = co_await c2.WaitFor(2, /*timeout=*/500);
      *at = sim->Now();
    };
    Spawn(waiter(&sim, c, &first, &second, &second_at));
    sim.At(50, [&] { c.Add(1); });
    if (reach) {
      sim.At(400, [&] { c.Add(1); });
    }
    sim.Run();
    EXPECT_FALSE(first);
    EXPECT_EQ(second, reach);
    EXPECT_EQ(second_at, reach ? 400 : 600);
  }
}

TEST(CounterDeathTest, ASecondConcurrentWaiterAborts) {
  EXPECT_DEATH(
      {
        Simulator sim;
        Counter c(&sim);
        auto waiter = [](Counter c2) -> Task<void> { (void)co_await c2.WaitFor(1); };
        Spawn(waiter(c));
        Spawn(waiter(c));
      },
      "sim::Counter: a second coroutine waits while one already does");
}

TEST(TaskDeathTest, AnExceptionEscapingASpawnedTaskTerminates) {
  auto thrower = [](Simulator* sim) -> Task<void> {
    co_await sim->Delay(10);
    throw std::runtime_error("escaped a spawned task");
  };
  EXPECT_DEATH(
      {
        Simulator sim;
        Spawn(thrower(&sim));
        sim.Run();
      },
      "escaped a spawned task");
}

TEST(Task, BackgroundSpawnOutlivesParent) {
  Simulator sim;
  int bg_done = 0;
  auto background = [](Simulator* sim, int* flag) -> Task<void> {
    co_await sim->Delay(1000);
    *flag = 1;
  };
  auto parent = [](Simulator* sim, int* flag) -> Task<void> {
    Spawn([](Simulator* s, int* f) -> Task<void> {
      co_await s->Delay(1000);
      *f = 1;
    }(sim, flag));
    co_return;  // Parent finishes immediately; background continues.
  };
  (void)background;
  Spawn(parent(&sim, &bg_done));
  EXPECT_EQ(bg_done, 0);
  sim.Run();
  EXPECT_EQ(bg_done, 1);
  EXPECT_EQ(sim.Now(), 1000);
}

}  // namespace
}  // namespace swarm::sim
