// Lazy coroutine task for single-threaded discrete-event simulation.
//
// Task<T> is the return type of every asynchronous protocol function. Tasks
// are lazy: the coroutine body does not start until the task is co_awaited
// (or handed to Spawn for detached execution). Completion resumes the awaiter
// through symmetric transfer, so long await chains do not grow the stack.
//
// Lifetime rules (all single-threaded, no synchronization needed):
//  * An awaited Task is owned by the awaiting coroutine frame; the frame of
//    the inner coroutine is destroyed when the Task goes out of scope.
//  * A Spawned task owns itself: Spawn releases the handle and marks the
//    promise detached, and the final awaiter destroys the frame.

#ifndef SWARM_SRC_SIM_TASK_H_
#define SWARM_SRC_SIM_TASK_H_

#include <coroutine>
#include <cstddef>
#include <exception>
#include <optional>
#include <type_traits>
#include <utility>

#include "src/sim/pool.h"

namespace swarm::sim {

template <typename T>
class Task;

namespace internal {

struct PromiseBase {
  std::coroutine_handle<> continuation;
  std::exception_ptr exception;
  bool detached = false;  // Spawned: nothing awaits it, it frees itself.

  // Coroutine frames are the single largest per-op allocation class (every
  // protocol step is a coroutine). Routing them through the size-class pool
  // makes frame creation/destruction free-list pops at steady state.
  static void* operator new(size_t n) { return FramePool::Alloc(n); }
  static void operator delete(void* p, size_t n) { FramePool::Free(p, n); }

  struct FinalAwaiter {
    bool await_ready() const noexcept { return false; }
    template <typename Promise>
    std::coroutine_handle<> await_suspend(std::coroutine_handle<Promise> h) noexcept {
      auto& p = h.promise();
      if (p.continuation) {
        return p.continuation;
      }
      if (p.detached) {
        h.destroy();  // Suspended at its final point: the frame may go.
      }
      return std::noop_coroutine();
    }
    void await_resume() const noexcept {}
  };

  std::suspend_always initial_suspend() noexcept { return {}; }
  FinalAwaiter final_suspend() noexcept { return {}; }
  // Nothing could rethrow a detached task's exception: it terminates.
  void unhandled_exception() {
    if (detached) {
      std::terminate();
    }
    exception = std::current_exception();
  }
};

template <typename T>
struct Promise : PromiseBase {
  std::optional<T> value;

  Task<T> get_return_object();
  template <typename U>
  void return_value(U&& v) {
    value.emplace(std::forward<U>(v));
  }
};

template <>
struct Promise<void> : PromiseBase {
  Task<void> get_return_object();
  void return_void() {}
};

}  // namespace internal

template <typename T>
class [[nodiscard]] Task {
 public:
  using promise_type = internal::Promise<T>;

  Task() = default;
  explicit Task(std::coroutine_handle<promise_type> h) : h_(h) {}
  Task(Task&& o) noexcept : h_(std::exchange(o.h_, {})) {}
  Task& operator=(Task&& o) noexcept {
    if (this != &o) {
      Destroy();
      h_ = std::exchange(o.h_, {});
    }
    return *this;
  }
  Task(const Task&) = delete;
  Task& operator=(const Task&) = delete;
  ~Task() { Destroy(); }

  auto operator co_await() && noexcept {
    struct Awaiter {
      std::coroutine_handle<promise_type> h;
      bool await_ready() const noexcept { return false; }
      std::coroutine_handle<> await_suspend(std::coroutine_handle<> cont) noexcept {
        h.promise().continuation = cont;
        return h;  // Start (or resume into) the task body.
      }
      T await_resume() {
        auto& p = h.promise();
        if (p.exception) {
          std::rethrow_exception(p.exception);
        }
        if constexpr (!std::is_void_v<T>) {
          return std::move(*p.value);
        }
      }
    };
    return Awaiter{h_};
  }

 private:
  friend void Spawn(Task<void> t);

  void Destroy() {
    if (h_) {
      h_.destroy();
      h_ = {};
    }
  }

  std::coroutine_handle<promise_type> h_;
};

namespace internal {

template <typename T>
Task<T> Promise<T>::get_return_object() {
  return Task<T>(std::coroutine_handle<Promise>::from_promise(*this));
}

inline Task<void> Promise<void>::get_return_object() {
  return Task<void>(std::coroutine_handle<Promise>::from_promise(*this));
}

}  // namespace internal

// Starts `t` immediately and lets it run to completion in the background;
// its frame frees itself at the end. Any exception escaping a detached task
// terminates the program.
inline void Spawn(Task<void> t) {
  const auto h = std::exchange(t.h_, {});
  h.promise().detached = true;
  h.resume();
}

}  // namespace swarm::sim

#endif  // SWARM_SRC_SIM_TASK_H_
