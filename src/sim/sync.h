// Coroutine synchronization primitives for quorum-style protocols.
//
// The replication protocols in this repository constantly follow the pattern
// "issue one op per memory node, wait for a majority, let the rest finish in
// the background". Counter implements that: spawned per-node ops Add(1) on
// completion and the issuing coroutine awaits a threshold, optionally with a
// timeout (used for the optimistic-majority escalation of SWARM §6).
//
// Counter is a shared handle (copyable); its state outlives the awaiting
// scope so that straggler ops completing later never touch freed memory.

#ifndef SWARM_SRC_SIM_SYNC_H_
#define SWARM_SRC_SIM_SYNC_H_

#include <coroutine>
#include <memory>
#include <utility>
#include <vector>

#include "src/sim/pool.h"
#include "src/sim/simulator.h"
#include "src/sim/task.h"
#include "src/sim/time.h"

namespace swarm::sim {

class Counter {
 public:
  // State and Waiter nodes live on the frame pool (allocate_shared with
  // PoolAlloc puts the object and its control block in one pooled slot), so
  // quorum waits allocate nothing at steady state. The shared_ptr refcounts
  // keep the lifetime rules identical to the heap version: a straggler
  // completion or a pending timeout callback holds its own reference, so a
  // recycled slot can never be reached through a stale pointer.
  explicit Counter(Simulator* sim) : state_(std::allocate_shared<State>(PoolAlloc<State>{})) {
    state_->sim = sim;
  }

  void Add(int delta = 1) {
    state_->count += delta;
    WakeReady();
  }

  int count() const { return state_->count; }

  // Suspends until count() >= threshold. If `timeout` >= 0 and the threshold
  // is not reached within `timeout` virtual ns, resumes returning false.
  Task<bool> WaitFor(int threshold, Time timeout = kNoTimeout) {
    State& s = *state_;
    if (s.count >= threshold) {
      co_return true;
    }
    auto w = std::allocate_shared<Waiter>(PoolAlloc<Waiter>{});
    w->threshold = threshold;
    s.waiters.push_back(w);
    if (timeout >= 0) {
      auto state = state_;
      s.sim->After(timeout, [state, w] {
        if (!w->settled) {
          w->settled = true;
          w->reached = false;
          state->sim->At(state->sim->Now(), [w] { w->handle.resume(); });
        }
      });
    }
    co_await SuspendInto{w.get()};
    co_return w->reached;
  }

 private:
  struct Waiter {
    int threshold = 0;
    bool settled = false;
    bool reached = false;
    std::coroutine_handle<> handle;
  };

  struct State {
    Simulator* sim = nullptr;
    int count = 0;
    PoolVec<std::shared_ptr<Waiter>> waiters;
  };

  struct SuspendInto {
    Waiter* w;
    bool await_ready() const noexcept { return false; }
    void await_suspend(std::coroutine_handle<> h) { w->handle = h; }
    void await_resume() const noexcept {}
  };

  void WakeReady() {
    State& s = *state_;
    for (size_t i = 0; i < s.waiters.size();) {
      auto& w = s.waiters[i];
      if (!w->settled && w->handle && s.count >= w->threshold) {
        auto ready = w;
        s.waiters.erase(s.waiters.begin() + static_cast<long>(i));
        ready->settled = true;
        ready->reached = true;
        // Resume via the event queue so Add() never reenters protocol code.
        s.sim->At(s.sim->Now(), [ready] { ready->handle.resume(); });
      } else if (w->settled) {
        s.waiters.erase(s.waiters.begin() + static_cast<long>(i));
      } else {
        ++i;
      }
    }
  }

  std::shared_ptr<State> state_;
};

// Building blocks for fan-out/join combinators (WhenBoth/WhenAll here, the
// doorbell-batched PostBoth in the fabric layer): run a task, deposit its
// result, signal a completion counter.

template <typename T>
Task<void> StoreInto(Task<T> t, std::shared_ptr<T> out, Counter done) {
  *out = co_await std::move(t);
  done.Add(1);
}

inline Task<void> SignalWhenDone(Task<void> t, Counter done) {
  co_await std::move(t);
  done.Add(1);
}

// Runs two tasks concurrently and resumes when both have completed, returning
// both results. Used for Safe-Guess's parallel {m = M.READ(), M.WRITE(w)}.
template <typename A, typename B>
Task<std::pair<A, B>> WhenBoth(Simulator* sim, Task<A> a, Task<B> b) {
  Counter done(sim);
  auto ra = std::allocate_shared<A>(PoolAlloc<A>{});
  auto rb = std::allocate_shared<B>(PoolAlloc<B>{});
  Spawn(StoreInto(std::move(a), ra, done));
  Spawn(StoreInto(std::move(b), rb, done));
  co_await done.WaitFor(2);
  co_return std::pair<A, B>{std::move(*ra), std::move(*rb)};
}

// Runs all tasks concurrently and resumes when every one has completed.
inline Task<void> WhenAll(Simulator* sim, std::vector<Task<void>> tasks) {
  Counter done(sim);
  const int n = static_cast<int>(tasks.size());
  for (auto& t : tasks) {
    Spawn(SignalWhenDone(std::move(t), done));
  }
  co_await done.WaitFor(n);
}

}  // namespace swarm::sim

#endif  // SWARM_SRC_SIM_SYNC_H_
