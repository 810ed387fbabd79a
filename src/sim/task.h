// Coroutine machinery for simulated threads of execution.
//
// A simulated NT thread runs as a C++20 coroutine of type Task. Blocking
// syscalls suspend the coroutine; the kernel resumes it — always via the
// simulation event queue, never inline — through a WakeToken. WakeTokens make
// it safe to destroy a whole simulated process (crash semantics) while its
// threads are blocked: killing marks each token dead, and any already-queued
// resume event sees the flag and does nothing. Coroutine frames come from the
// per-thread block pool (sim/pool.h), not the host heap.
#pragma once

#include <coroutine>
#include <exception>
#include <functional>
#include <memory>
#include <optional>
#include <utility>

#include "sim/pool.h"
#include "sim/simulation.h"

namespace dts::sim {

/// Why a blocked coroutine was woken.
enum class WakeReason : int {
  kSignaled = 0,   // the awaited condition became true
  kTimeout = 1,    // the wait's deadline passed first
  kAbandoned = 2,  // the awaited object was destroyed / the wait was cancelled
};

/// One-shot wake channel shared between a blocked coroutine, the kernel
/// object it waits on, and any timeout event racing against the signal.
struct WakeToken {
  std::coroutine_handle<> handle{};
  bool fired = false;  // a wake has been accepted; later wakes are ignored
  bool dead = false;   // coroutine destroyed; never resume
  WakeReason reason = WakeReason::kSignaled;
};

using WakePtr = std::shared_ptr<WakeToken>;

/// Delivers a wake to `tok` (first wake wins). The actual resume happens on
/// the event queue, so callers may hold kernel locks / iterate waiter lists.
inline void wake(Simulation& sim, const WakePtr& tok, WakeReason reason) {
  if (!tok || tok->fired || tok->dead) return;
  tok->fired = true;
  tok->reason = reason;
  sim.schedule_resume(tok);
}

/// Schedules a wake for `tok` after `d` of simulated time.
inline void wake_later(Simulation& sim, const WakePtr& tok, Duration d, WakeReason reason) {
  sim.schedule_wake(d, tok, reason);
}

/// Awaitable that suspends the current coroutine until its token is woken.
/// The caller creates the token, registers it wherever the wake will come
/// from (waiter list, timer, ...), then `co_await WaitOn{tok}`.
class WaitOn {
 public:
  explicit WaitOn(WakePtr tok) : tok_(std::move(tok)) {}

  bool await_ready() const noexcept { return tok_->fired; }
  void await_suspend(std::coroutine_handle<> h) noexcept { tok_->handle = h; }
  WakeReason await_resume() const noexcept { return tok_->reason; }

 private:
  WakePtr tok_;
};

/// Fire-and-forget coroutine representing a simulated thread body. Owned by
/// the simulated Thread object; destroying the Task while suspended kills the
/// thread (stack unwinding runs destructors of locals in every frame).
class Task {
 public:
  struct promise_type : PooledFrame {
    std::function<void(std::exception_ptr)> on_complete;
    std::exception_ptr error;

    Task get_return_object() {
      return Task{std::coroutine_handle<promise_type>::from_promise(*this)};
    }
    std::suspend_always initial_suspend() noexcept { return {}; }

    struct FinalAwaiter {
      bool await_ready() noexcept { return false; }
      void await_suspend(std::coroutine_handle<promise_type> h) noexcept {
        auto& p = h.promise();
        // The callback runs while this frame sits at its final suspend
        // point; it must defer any destruction of the frame (our Process
        // reaps exited threads via a zero-delay event).
        if (p.on_complete) p.on_complete(p.error);
      }
      void await_resume() noexcept {}
    };
    FinalAwaiter final_suspend() noexcept { return {}; }

    void return_void() {}
    void unhandled_exception() { error = std::current_exception(); }
  };

  Task() noexcept = default;
  Task(Task&& o) noexcept : h_(std::exchange(o.h_, {})) {}
  Task& operator=(Task&& o) noexcept {
    if (this != &o) {
      destroy();
      h_ = std::exchange(o.h_, {});
    }
    return *this;
  }
  ~Task() { destroy(); }

  bool valid() const { return static_cast<bool>(h_); }
  bool done() const { return h_ && h_.done(); }

  /// Registers a completion callback (invoked with the escaped exception, or
  /// nullptr on clean return). Must be set before start().
  void on_complete(std::function<void(std::exception_ptr)> fn) {
    h_.promise().on_complete = std::move(fn);
  }

  /// Schedules the first resume on the simulation queue.
  void start(Simulation& sim) {
    auto h = h_;
    sim.schedule(Duration{}, [h] {
      if (h && !h.done()) h.resume();
    });
  }

  /// Destroys the coroutine frame. The coroutine must be suspended (it is,
  /// whenever control is outside it — the simulator is single-threaded).
  void destroy() {
    if (h_) {
      h_.destroy();
      h_ = {};
    }
  }

  /// Releases ownership without destroying (used by Process teardown when the
  /// frame is the one currently executing and must be reaped later).
  std::coroutine_handle<promise_type> release() { return std::exchange(h_, {}); }

 private:
  explicit Task(std::coroutine_handle<promise_type> h) : h_(h) {}
  std::coroutine_handle<promise_type> h_;
};

/// Awaitable sub-coroutine: a helper the thread body co_awaits. Lazily
/// started; completion resumes the awaiting frame by symmetric transfer.
/// Exceptions propagate to the awaiter. Destroying an CoTask that is still
/// suspended destroys its frame (and transitively any CoTasks it owns).
template <typename T>
class [[nodiscard]] CoTask {
 public:
  struct promise_type : PooledFrame {
    std::coroutine_handle<> continuation;
    std::optional<T> value;
    std::exception_ptr error;

    CoTask get_return_object() {
      return CoTask{std::coroutine_handle<promise_type>::from_promise(*this)};
    }
    std::suspend_always initial_suspend() noexcept { return {}; }

    struct FinalAwaiter {
      bool await_ready() noexcept { return false; }
      std::coroutine_handle<> await_suspend(std::coroutine_handle<promise_type> h) noexcept {
        auto cont = h.promise().continuation;
        return cont ? cont : std::noop_coroutine();
      }
      void await_resume() noexcept {}
    };
    FinalAwaiter final_suspend() noexcept { return {}; }

    template <typename U>
    void return_value(U&& v) {
      value.emplace(std::forward<U>(v));
    }
    void unhandled_exception() { error = std::current_exception(); }
  };

  CoTask(CoTask&& o) noexcept : h_(std::exchange(o.h_, {})) {}
  CoTask& operator=(CoTask&&) = delete;
  ~CoTask() {
    if (h_) h_.destroy();
  }

  bool await_ready() const noexcept { return false; }
  std::coroutine_handle<> await_suspend(std::coroutine_handle<> awaiter) {
    h_.promise().continuation = awaiter;
    return h_;  // symmetric transfer into the child
  }
  T await_resume() {
    auto& p = h_.promise();
    if (p.error) std::rethrow_exception(p.error);
    return std::move(*p.value);
  }

 private:
  explicit CoTask(std::coroutine_handle<promise_type> h) : h_(h) {}
  std::coroutine_handle<promise_type> h_;
};

/// void specialization of CoTask.
template <>
class [[nodiscard]] CoTask<void> {
 public:
  struct promise_type : PooledFrame {
    std::coroutine_handle<> continuation;
    std::exception_ptr error;

    CoTask get_return_object() {
      return CoTask{std::coroutine_handle<promise_type>::from_promise(*this)};
    }
    std::suspend_always initial_suspend() noexcept { return {}; }

    struct FinalAwaiter {
      bool await_ready() noexcept { return false; }
      std::coroutine_handle<> await_suspend(std::coroutine_handle<promise_type> h) noexcept {
        auto cont = h.promise().continuation;
        return cont ? cont : std::noop_coroutine();
      }
      void await_resume() noexcept {}
    };
    FinalAwaiter final_suspend() noexcept { return {}; }

    void return_void() {}
    void unhandled_exception() { error = std::current_exception(); }
  };

  CoTask(CoTask&& o) noexcept : h_(std::exchange(o.h_, {})) {}
  CoTask& operator=(CoTask&&) = delete;
  ~CoTask() {
    if (h_) h_.destroy();
  }

  bool await_ready() const noexcept { return false; }
  std::coroutine_handle<> await_suspend(std::coroutine_handle<> awaiter) {
    h_.promise().continuation = awaiter;
    return h_;
  }
  void await_resume() {
    if (h_.promise().error) std::rethrow_exception(h_.promise().error);
  }

 private:
  explicit CoTask(std::coroutine_handle<promise_type> h) : h_(h) {}
  std::coroutine_handle<promise_type> h_;
};

}  // namespace dts::sim
