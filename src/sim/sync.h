// Coroutine synchronization for quorum-style protocols.
//
// The replication protocols in this repository constantly follow the pattern
// "issue one op per memory node, wait for a majority, let the rest finish in
// the background". Counter implements that: spawned per-node ops Add(1) on
// completion and the issuing coroutine awaits a threshold, optionally with a
// timeout (used for the optimistic-majority escalation of SWARM §6).
//
// Every such wait has exactly one waiter, so a Counter holds at most one: a
// wait is an awaiter on the caller's frame, with no frame or block of its
// own, and a second coroutine suspending while one waits aborts. Waits may
// follow one another (an escalation waits twice on one counter).
//
// Counter is a shared handle (copyable); its state outlives the awaiting
// scope so that straggler ops completing later never touch freed memory.

#ifndef SWARM_SRC_SIM_SYNC_H_
#define SWARM_SRC_SIM_SYNC_H_

#include <coroutine>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <utility>

#include "src/sim/pool.h"
#include "src/sim/simulator.h"
#include "src/sim/task.h"
#include "src/sim/time.h"

namespace swarm::sim {

class Counter {
  struct State;

 public:
  // The state lives on the frame pool (one pooled slot for the object and
  // its control block), so quorum waits allocate nothing at steady state. A
  // straggler completion or a pending timeout callback holds its own
  // reference, so a recycled slot can never be reached through a stale
  // pointer.
  explicit Counter(Simulator* sim) : state_(MakePooled<State>()) { state_->sim = sim; }

  void Add(int delta = 1) {
    State& s = *state_;
    s.count += delta;
    if (s.waiter && s.count >= s.threshold) {
      s.reached = true;
      s.Wake();
    }
  }

  int count() const { return state_->count; }

  // Awaitable: suspends until count() >= threshold and yields true. If
  // `timeout` >= 0 and the threshold is not reached within `timeout` virtual
  // ns, resumes yielding false.
  struct [[nodiscard]] Wait {
    std::shared_ptr<State> s;
    int threshold;
    Time timeout;
    bool suspended = false;

    bool await_ready() const noexcept { return s->count >= threshold; }
    void await_suspend(std::coroutine_handle<> h) {
      if (s->waiter) {
        std::fprintf(stderr, "sim::Counter: a second coroutine waits while one already does\n");
        std::abort();
      }
      suspended = true;
      s->waiter = h;
      s->threshold = threshold;
      s->reached = false;
      ++s->wait;
      if (timeout >= 0) {
        // The wait number makes a stale timer, whose wait was already woken,
        // inert even when a later wait is pending.
        s->sim->After(timeout, [state = s, wait = s->wait] {
          if (state->wait == wait && state->waiter) {
            state->Wake();
          }
        });
      }
    }
    bool await_resume() const noexcept { return !suspended || s->reached; }
  };

  Wait WaitFor(int threshold, Time timeout = kNoTimeout) const {
    return {state_, threshold, timeout};
  }

 private:
  struct State {
    Simulator* sim = nullptr;
    int count = 0;
    int threshold = 0;
    bool reached = false;
    uint64_t wait = 0;  // Numbers the suspended waits.
    std::coroutine_handle<> waiter;

    // Resumes the waiter through the event queue, so Add() never reenters
    // protocol code.
    void Wake() {
      sim->At(sim->Now(), [h = std::exchange(waiter, {})] { h.resume(); });
    }
  };

  std::shared_ptr<State> state_;
};

// Runs a task, deposits its result and signals a completion counter: the
// building block of the doorbell-batched PostBoth in the fabric layer.
template <typename T>
Task<void> StoreInto(Task<T> t, std::shared_ptr<T> out, Counter done) {
  *out = co_await std::move(t);
  done.Add(1);
}

}  // namespace swarm::sim

#endif  // SWARM_SRC_SIM_SYNC_H_
