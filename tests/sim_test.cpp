// Tests for the discrete-event simulation engine: time, RNG, event queue,
// simulation loop, and the coroutine task machinery.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "sim/event_queue.h"
#include "sim/pool.h"
#include "sim/rng.h"
#include "sim/simulation.h"
#include "sim/task.h"
#include "sim/time.h"

namespace dts::sim {
namespace {

// ---------------------------------------------------------------- time

TEST(Time, DurationArithmetic) {
  auto a = Duration::millis(1500);
  auto b = Duration::seconds(2);
  EXPECT_EQ((a + b).count_micros(), 3'500'000);
  EXPECT_EQ((b - a).count_millis(), 500);
  EXPECT_EQ((a * 2).count_millis(), 3000);
  EXPECT_EQ((b / 4).count_millis(), 500);
  EXPECT_LT(a, b);
  EXPECT_TRUE(Duration{}.is_zero());
  EXPECT_TRUE((a - b).is_negative());
}

TEST(Time, FromSecondsRounds) {
  EXPECT_EQ(Duration::from_seconds(1.5).count_micros(), 1'500'000);
  EXPECT_EQ(Duration::from_seconds(0.0000005).count_micros(), 1);
  EXPECT_DOUBLE_EQ(Duration::seconds(3).to_seconds(), 3.0);
}

TEST(Time, TimePointArithmetic) {
  TimePoint t0;
  auto t1 = t0 + Duration::seconds(5);
  EXPECT_EQ((t1 - t0).count_micros(), 5'000'000);
  EXPECT_GT(t1, t0);
  t1 += Duration::millis(1);
  EXPECT_EQ((t1 - t0).count_millis(), 5001);
}

TEST(Time, ToString) {
  EXPECT_EQ(to_string(Duration::from_seconds(14.21)), "14.21s");
  EXPECT_EQ(to_string(Duration::millis(350)), "350ms");
  EXPECT_EQ(to_string(Duration::micros(42)), "42us");
}

// ---------------------------------------------------------------- rng

TEST(Rng, Deterministic) {
  Rng a{42}, b{42};
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, SeedsDiffer) {
  Rng a{1}, b{2};
  int same = 0;
  for (int i = 0; i < 100; ++i) same += (a.next() == b.next());
  EXPECT_EQ(same, 0);
}

TEST(Rng, UniformInRange) {
  Rng r{7};
  for (int i = 0; i < 10000; ++i) {
    auto v = r.uniform(-3, 9);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 9);
  }
}

TEST(Rng, UniformCoversRange) {
  Rng r{11};
  std::set<std::int64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(r.uniform(0, 7));
  EXPECT_EQ(seen.size(), 8u);
}

TEST(Rng, Uniform01Bounds) {
  Rng r{3};
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    double v = r.uniform01();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
    sum += v;
  }
  EXPECT_NEAR(sum / 10000, 0.5, 0.02);
}

TEST(Rng, ChanceExtremes) {
  Rng r{5};
  EXPECT_FALSE(r.chance(0.0));
  EXPECT_TRUE(r.chance(1.0));
}

TEST(Rng, SplitIndependent) {
  Rng root{9};
  Rng a = root.split(1);
  Rng b = root.split(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) same += (a.next() == b.next());
  EXPECT_EQ(same, 0);
}

TEST(Rng, HashStable) {
  EXPECT_EQ(Rng::hash("CreateEventA"), Rng::hash("CreateEventA"));
  EXPECT_NE(Rng::hash("CreateEventA"), Rng::hash("CreateEventW"));
  EXPECT_NE(Rng::hash(""), Rng::hash("a"));
}

// ---------------------------------------------------------------- simulation

TEST(Simulation, RunsEventsInTimeOrder) {
  Simulation sim;
  std::vector<int> order;
  sim.schedule(Duration::millis(30), [&] { order.push_back(3); });
  sim.schedule(Duration::millis(10), [&] { order.push_back(1); });
  sim.schedule(Duration::millis(20), [&] { order.push_back(2); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now(), TimePoint{} + Duration::millis(30));
}

TEST(Simulation, SameInstantIsFifo) {
  Simulation sim;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    sim.schedule(Duration::millis(5), [&order, i] { order.push_back(i); });
  }
  sim.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST(Simulation, EventsCanScheduleEvents) {
  Simulation sim;
  int fired = 0;
  sim.schedule(Duration::millis(1), [&] {
    sim.schedule(Duration::millis(1), [&] { fired = 1; });
  });
  sim.run();
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.now() - TimePoint{}, Duration::millis(2));
}

TEST(Simulation, RunUntilAdvancesClockExactly) {
  Simulation sim;
  int fired = 0;
  sim.schedule(Duration::seconds(100), [&] { fired = 1; });
  sim.run_until(TimePoint{} + Duration::seconds(10));
  EXPECT_EQ(fired, 0);
  EXPECT_EQ(sim.now(), TimePoint{} + Duration::seconds(10));
  sim.run_for(Duration::seconds(90));
  EXPECT_EQ(fired, 1);
}

TEST(Simulation, StopHaltsLoop) {
  Simulation sim;
  int count = 0;
  for (int i = 0; i < 10; ++i) {
    sim.schedule(Duration::millis(i), [&] {
      if (++count == 3) sim.stop();
    });
  }
  sim.run();
  EXPECT_EQ(count, 3);
  EXPECT_GT(sim.pending_events(), 0u);
}

TEST(Simulation, StopInsideRunUntilKeepsClockMonotonic) {
  Simulation sim;
  int fired = 0;
  sim.schedule(Duration::millis(1), [&] {
    ++fired;
    sim.stop();
  });
  sim.schedule(Duration::millis(2), [&] { ++fired; });
  sim.schedule(Duration::millis(3), [&] { ++fired; });
  sim.run_until(TimePoint{} + Duration::millis(10));
  // Stopped with earlier events queued: the clock stays at the stop.
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.pending_events(), 2u);
  EXPECT_EQ(sim.now(), TimePoint{} + Duration::millis(1));
  ASSERT_TRUE(sim.step());
  EXPECT_EQ(sim.now(), TimePoint{} + Duration::millis(2));
}

TEST(Simulation, SameInstantFifoAcrossSlotReuse) {
  Simulation sim;
  std::string order;
  sim.schedule(Duration::millis(5), [&] { order += 'A'; });
  sim.schedule(Duration::millis(5), [&] { order += 'B'; });
  ASSERT_TRUE(sim.step());
  // C reuses A's payload slot, but it was queued after B.
  sim.schedule(Duration{}, [&] { order += 'C'; });
  sim.run();
  EXPECT_EQ(order, "ABC");
}

// The same-instant lane changes where keys wait, never the order they pop
// in: random pushes into the past, at the current instant (the last pop's)
// and into the future, interleaved with pops, pop exactly as a reference
// queue ordered by (at, push order) does. The fixed prefix pushes a key
// earlier than the lane's back, which must bypass the lane.
TEST(EventQueue, PopsInReferenceOrderUnderRandomPushes) {
  EventQueue q;
  std::set<std::pair<std::int64_t, std::uint64_t>> ref;  // (at, push order)
  std::uint64_t pushed = 0;
  std::uint64_t popped_id = 0;
  std::int64_t last = 0;  // instant of the last pop
  const auto push = [&](std::int64_t at) {
    const std::uint64_t id = pushed++;
    EventQueue::Event ev;
    ev.fn = [&popped_id, id] { popped_id = id; };
    q.push(TimePoint::from_micros(at), std::move(ev));
    ref.emplace(at, id);
  };
  const auto pop = [&] {
    ASSERT_FALSE(q.empty());
    ASSERT_EQ(q.size(), ref.size());
    EXPECT_EQ(q.next_time().count_micros(), ref.begin()->first);
    TimePoint at;
    q.pop(&at).fn();
    EXPECT_EQ(at.count_micros(), ref.begin()->first);
    EXPECT_EQ(popped_id, ref.begin()->second);
    last = ref.begin()->first;
    ref.erase(ref.begin());
  };

  push(10);
  pop();     // the instant is 10
  push(10);  // joins the lane
  push(5);   // the past: the heap
  pop();     // 5 beats the lane's front; the instant is now 5
  push(5);   // earlier than the lane's back (10): the heap
  push(5);
  for (int i = 0; i < 3; ++i) pop();  // 5, 5, then the lane's 10
  EXPECT_TRUE(q.empty());

  Rng rng{4099};
  for (int step = 0; step < 20000; ++step) {
    if (ref.empty() || rng.chance(0.55)) {
      switch (rng.uniform(0, 3)) {
        case 0: push(last - rng.uniform(1, 20)); break;
        case 3: push(last + rng.uniform(1, 20)); break;
        default: push(last); break;
      }
    } else {
      pop();
    }
  }
  while (!ref.empty()) pop();
  EXPECT_TRUE(q.empty());
}

// Through Simulation: events that schedule zero-delay, later and clamped
// past events from inside events, with run_until moving the clock past the
// last pop between bursts, run in a stable sort of (effective time,
// schedule order).
TEST(Simulation, RunsInStableTimeOrderAcrossLaneAndHeap) {
  Simulation sim;
  Rng rng{7};
  std::vector<std::pair<std::int64_t, std::size_t>> scheduled;  // (at, id)
  std::vector<std::size_t> ran;
  std::function<void(int)> spawn = [&](int depth) {
    const std::size_t id = scheduled.size();
    const auto body = [&, id, depth] {
      ran.push_back(id);
      EXPECT_EQ(sim.now().count_micros(), scheduled[id].first);
      for (auto k = rng.uniform(0, 2); k > 0 && depth < 12; --k) spawn(depth + 1);
    };
    const std::int64_t r = rng.uniform(0, 5);
    if (r == 0) {  // in the past: clamped to now
      scheduled.emplace_back(sim.now().count_micros(), id);
      sim.schedule_at(sim.now() + Duration::micros(-3), body);
    } else {
      const std::int64_t delay = r <= 3 ? 0 : rng.uniform(1, 40);
      scheduled.emplace_back(sim.now().count_micros() + delay, id);
      sim.schedule(Duration::micros(delay), body);
    }
  };
  for (int burst = 0; burst < 200; ++burst) {
    for (auto k = rng.uniform(1, 3); k > 0; --k) spawn(0);
    sim.run_until(sim.now() + Duration::micros(rng.uniform(0, 60)));
  }
  sim.run();

  std::vector<std::pair<std::int64_t, std::size_t>> expected = scheduled;
  std::stable_sort(expected.begin(), expected.end(),
                   [](const auto& a, const auto& b) { return a.first < b.first; });
  ASSERT_EQ(ran.size(), expected.size());
  for (std::size_t i = 0; i < ran.size(); ++i) {
    ASSERT_EQ(ran[i], expected[i].second) << "event " << i;
  }
  EXPECT_GT(ran.size(), 1000u);
}

TEST(Simulation, PastScheduleClampsToNow) {
  Simulation sim;
  sim.run_until(TimePoint{} + Duration::seconds(5));
  int fired = 0;
  sim.schedule_at(TimePoint{} + Duration::seconds(1), [&] { fired = 1; });
  sim.run();
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.now(), TimePoint{} + Duration::seconds(5));
}

TEST(Simulation, EventBudgetThrows) {
  Simulation sim;
  sim.set_event_budget(100);
  std::function<void()> loop = [&] { sim.schedule(Duration{}, loop); };
  sim.schedule(Duration{}, loop);
  EXPECT_THROW(sim.run(), SimBudgetExhausted);
}

// In-place advance (what a sleep with nothing queued before its wake does):
// only inside an event that step_before or run_until runs, only to instants
// strictly before every queued event and within the loop's horizon, only
// while two more events fit the budget, and not after hold() or stop().

TEST(Simulation, AdvanceInPlaceOnlyStrictlyBeforeEveryQueuedEvent) {
  Simulation sim;
  const TimePoint t = TimePoint{} + Duration::millis(5);
  std::vector<bool> verdicts;
  std::vector<TimePoint> clocks;
  sim.schedule(Duration::millis(1), [&] {
    sim.schedule_at(t, [] {});
    verdicts.push_back(sim.advance_in_place(t));  // the event at t runs first
    verdicts.push_back(sim.advance_in_place(t + Duration::micros(-1)));
    clocks.push_back(sim.now());
    // A zero-length sleep with an event queued at the current instant.
    sim.schedule(Duration{}, [] {});
    verdicts.push_back(sim.advance_in_place(sim.now()));
  });
  sim.run_until(TimePoint{} + Duration::seconds(1));
  EXPECT_EQ(verdicts, (std::vector<bool>{false, true, false}));
  EXPECT_EQ(clocks, (std::vector<TimePoint>{t + Duration::micros(-1)}));
  // Three callbacks ran, and the advance counted its timer and resume.
  EXPECT_EQ(sim.events_processed(), 5u);
}

TEST(Simulation, AdvanceInPlaceFollowsEachLoopsHorizon) {
  Simulation sim;
  const TimePoint cap = TimePoint{} + Duration::millis(10);
  std::vector<bool> verdicts;
  const auto probe = [&](TimePoint at) {
    sim.schedule(Duration{}, [&sim, &verdicts, at] {
      verdicts.push_back(sim.advance_in_place(at));
    });
  };
  // Outside any event.
  verdicts.push_back(sim.advance_in_place(sim.now()));
  // step() and run() never advance in place.
  probe(sim.now());
  ASSERT_TRUE(sim.step());
  probe(sim.now());
  sim.run();
  // step_before(cap): instants before cap only.
  probe(cap);
  ASSERT_TRUE(sim.step_before(cap));
  probe(cap + Duration::micros(-1));
  ASSERT_TRUE(sim.step_before(cap));
  // run_until(t): instants up to t.
  TimePoint t = sim.now() + Duration::micros(500);
  probe(t + Duration::micros(1));
  sim.run_until(t);
  t = sim.now() + Duration::micros(500);
  probe(t);
  sim.run_until(t);
  EXPECT_EQ(verdicts, (std::vector<bool>{false, false, false, false, true, false, true}));
  EXPECT_EQ(sim.now(), t);
  EXPECT_EQ(sim.events_processed(), 10u);  // six probes, two advances
}

TEST(Simulation, AdvanceInPlaceNeedsBothEventsWithinTheBudget) {
  Simulation sim;
  std::vector<bool> verdicts;
  sim.schedule(Duration{}, [&] {
    // One event processed so far.
    sim.set_event_budget(2);
    verdicts.push_back(sim.advance_in_place(sim.now() + Duration::micros(1)));
    sim.set_event_budget(3);
    verdicts.push_back(sim.advance_in_place(sim.now() + Duration::micros(1)));
  });
  sim.run_until(TimePoint{} + Duration::seconds(1));
  EXPECT_EQ(verdicts, (std::vector<bool>{false, true}));
  EXPECT_EQ(sim.events_processed(), 3u);
}

TEST(Simulation, HoldAndStopEndAdvanceInPlaceForTheRestOfTheEvent) {
  Simulation sim;
  std::vector<bool> verdicts;
  const auto advance = [&] {
    verdicts.push_back(sim.advance_in_place(sim.now() + Duration::micros(1)));
  };
  sim.schedule(Duration::millis(1), [&] {
    advance();
    sim.hold();
    advance();
  });
  sim.schedule(Duration::millis(2), [&] {
    advance();  // the hold ended with its event
    sim.stop();
    advance();
  });
  sim.run_until(TimePoint{} + Duration::seconds(1));
  EXPECT_EQ(verdicts, (std::vector<bool>{true, false, true, false}));
  EXPECT_EQ(sim.now(), TimePoint{} + Duration::millis(2) + Duration::micros(1));
}

// ---------------------------------------------------------------- tasks

Task counting_task(Simulation& sim, int& counter) {
  for (int i = 0; i < 3; ++i) {
    ++counter;
    auto tok = std::make_shared<WakeToken>();
    sim.schedule(Duration::millis(10), [&sim, tok] { wake(sim, tok, WakeReason::kSignaled); });
    co_await WaitOn{tok};
  }
}

TEST(Task, RunsAcrossSuspensions) {
  Simulation sim;
  int counter = 0;
  Task t = counting_task(sim, counter);
  bool completed = false;
  t.on_complete([&](std::exception_ptr e) {
    completed = true;
    EXPECT_EQ(e, nullptr);
  });
  t.start(sim);
  sim.run();
  EXPECT_EQ(counter, 3);
  EXPECT_TRUE(completed);
  EXPECT_TRUE(t.done());
}

Task throwing_task() {
  throw std::runtime_error("boom");
  co_return;  // unreachable; makes this a coroutine
}

TEST(Task, ExceptionReachesCallback) {
  Simulation sim;
  Task t = throwing_task();
  std::string msg;
  t.on_complete([&](std::exception_ptr e) {
    try {
      if (e) std::rethrow_exception(e);
    } catch (const std::exception& ex) {
      msg = ex.what();
    }
  });
  t.start(sim);
  sim.run();
  EXPECT_EQ(msg, "boom");
}

Task blocked_forever(int& progress) {
  progress = 1;
  auto tok = std::make_shared<WakeToken>();
  co_await WaitOn{tok};  // nobody will ever wake this
  progress = 2;
}

TEST(Task, DestroyWhileSuspendedRunsDestructors) {
  Simulation sim;
  int progress = 0;
  {
    Task t = blocked_forever(progress);
    t.start(sim);
    sim.run();
    EXPECT_EQ(progress, 1);
  }  // Task destroyed here while suspended
  EXPECT_EQ(progress, 1);
  sim.run();  // queue empty, no crash
}

TEST(Task, DeadTokenNeverResumes) {
  Simulation sim;
  int progress = 0;
  auto tok = std::make_shared<WakeToken>();
  {
    // Hand-rolled: task waits on an external token we control.
    struct Body {
      static Task run(WakePtr tok, int& progress) {
        progress = 1;
        co_await WaitOn{tok};
        progress = 2;
      }
    };
    Task t = Body::run(tok, progress);
    t.start(sim);
    sim.run();
    EXPECT_EQ(progress, 1);
    // Queue a wake, THEN kill the task before the wake event runs.
    wake(sim, tok, WakeReason::kSignaled);
    tok->dead = true;
    t.destroy();
  }
  sim.run();  // the queued wake must be a no-op
  EXPECT_EQ(progress, 1);
}

TEST(Task, FirstWakeWins) {
  Simulation sim;
  auto tok = std::make_shared<WakeToken>();
  WakeReason got{};
  struct Body {
    static Task run(WakePtr tok, WakeReason& got) {
      got = co_await WaitOn{tok};
    }
  };
  Task t = Body::run(tok, got);
  t.start(sim);
  sim.run();
  wake(sim, tok, WakeReason::kTimeout);
  wake(sim, tok, WakeReason::kSignaled);  // loses the race
  sim.run();
  EXPECT_EQ(got, WakeReason::kTimeout);
}

TEST(Task, TimeoutAfterSignalResumesNothing) {
  Simulation sim;
  auto tok = std::make_shared<WakeToken>();
  int resumes = 0;
  WakeReason got{};
  struct Body {
    static Task run(Simulation& sim, WakePtr tok, int& resumes, WakeReason& got) {
      wake_later(sim, tok, Duration::millis(10), WakeReason::kTimeout);
      got = co_await WaitOn{tok};
      ++resumes;
    }
  };
  Task t = Body::run(sim, tok, resumes, got);
  t.start(sim);
  ASSERT_TRUE(sim.step());  // runs the body up to its wait
  EXPECT_EQ(sim.pending_events(), 1u);  // the timeout timer
  wake(sim, tok, WakeReason::kSignaled);
  EXPECT_EQ(sim.pending_events(), 2u);  // the timer and the resume
  sim.run();
  EXPECT_EQ(resumes, 1);
  EXPECT_EQ(got, WakeReason::kSignaled);
  EXPECT_TRUE(t.done());
  // The timer still ran at its deadline, as an event that resumed nothing.
  EXPECT_EQ(sim.now(), TimePoint{} + Duration::millis(10));
  EXPECT_EQ(sim.events_processed(), 3u);
}

CoTask<int> add_later(Simulation& sim, int a, int b) {
  auto tok = std::make_shared<WakeToken>();
  sim.schedule(Duration::millis(1), [&sim, tok] { wake(sim, tok, WakeReason::kSignaled); });
  co_await WaitOn{tok};
  co_return a + b;
}

Task uses_subtask(Simulation& sim, int& out) {
  out = co_await add_later(sim, 2, 3);
}

TEST(CoTask, ValuePropagates) {
  Simulation sim;
  int out = 0;
  Task t = uses_subtask(sim, out);
  t.start(sim);
  sim.run();
  EXPECT_EQ(out, 5);
}

CoTask<void> sub_throws() {
  throw std::logic_error("inner");
  co_return;
}

Task catches_subtask(std::string& msg) {
  try {
    co_await sub_throws();
  } catch (const std::exception& e) {
    msg = e.what();
  }
}

TEST(CoTask, ExceptionPropagatesToAwaiter) {
  Simulation sim;
  std::string msg;
  Task t = catches_subtask(msg);
  t.start(sim);
  sim.run();
  EXPECT_EQ(msg, "inner");
}

CoTask<void> deep_block(WakePtr tok, int& progress) {
  progress = 1;
  co_await WaitOn{tok};
  progress = 2;
}

Task outer_block(WakePtr tok, int& progress) {
  co_await deep_block(tok, progress);
  progress = 3;
}

TEST(CoTask, DestroyTopFrameDestroysNestedFrame) {
  Simulation sim;
  int progress = 0;
  auto tok = std::make_shared<WakeToken>();
  {
    Task t = outer_block(tok, progress);
    t.start(sim);
    sim.run();
    EXPECT_EQ(progress, 1);
    tok->dead = true;
  }  // destroying the outer frame must destroy the suspended inner frame
  EXPECT_EQ(progress, 1);
}

// Determinism: two simulations with the same seed and same program produce
// identical event interleavings.
// ---------------------------------------------------------------- pool

TEST(Pool, ReusesBlocksPerThreadAndSizeClass) {
  void* a = pool_allocate(40);
  pool_deallocate(a, 40);
  void* other = nullptr;
  std::thread([&other] {
    // This thread's lists are its own: the block cached above is not here.
    other = pool_allocate(40);
    pool_deallocate(other, 40);
  }).join();  // the thread's exit returns `other` to the host heap
  EXPECT_NE(other, a);
  void* b = pool_allocate(33);  // the same 64-byte class
  EXPECT_EQ(b, a);
  pool_deallocate(b, 33);
  void* big = pool_allocate(kPoolMaxBlock + 1);  // beyond the classes: the heap
  pool_deallocate(big, kPoolMaxBlock + 1);
  auto tok = std::allocate_shared<WakeToken>(PoolAllocator<WakeToken>{});
  EXPECT_FALSE(tok->fired);
}

// A freed pool block stays poisoned until the pool hands it out again, so
// the asan preset still catches a write through a destroyed wake token or
// coroutine frame.
TEST(PoolDeathTest, WriteToFreedBlockDiesUnderAsan) {
#if defined(__SANITIZE_ADDRESS__)
  EXPECT_DEATH(
      {
        auto tok = std::allocate_shared<WakeToken>(PoolAllocator<WakeToken>{});
        WakeToken* raw = tok.get();
        tok.reset();
        *static_cast<volatile bool*>(&raw->fired) = true;
      },
      "use-after-poison");
#else
  GTEST_SKIP() << "poisoned blocks fault only in the asan preset";
#endif
}

TEST(Simulation, DeterministicReplay) {
  auto run_once = [](std::uint64_t seed) {
    Simulation sim{seed};
    std::vector<std::int64_t> trace;
    for (int i = 0; i < 50; ++i) {
      auto d = Duration::micros(sim.rng().uniform(0, 1000));
      sim.schedule(d, [&trace, &sim] { trace.push_back(sim.now().count_micros()); });
    }
    sim.run();
    return trace;
  };
  EXPECT_EQ(run_once(123), run_once(123));
  EXPECT_NE(run_once(123), run_once(456));
}

}  // namespace
}  // namespace dts::sim
