// The discrete-event simulation kernel.
//
// A Simulation owns the virtual clock, the event queue, and the root random
// stream. All other subsystems (the simulated NT machines, the network, the
// fault injector) schedule work through it. One fault-injection run = one
// Simulation instance, so runs cannot contaminate each other.
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <stdexcept>

#include "sim/event_queue.h"
#include "sim/rng.h"
#include "sim/time.h"

namespace dts::sim {

class Simulation {
 public:
  explicit Simulation(std::uint64_t seed = 0);

  Simulation(const Simulation&) = delete;
  Simulation& operator=(const Simulation&) = delete;

  TimePoint now() const { return now_; }
  Rng& rng() { return rng_; }

  /// Called by simulated kernel code whenever a root-RNG draw's *value*
  /// escapes into machine state (e.g. GetTempFileName's unique suffix). A
  /// golden run stands in for a run under a different per-fault seed only
  /// while this count is zero: the trajectory is seed-invariant, but an
  /// escaped draw value is not. Golden-tail synthesis (src/exec/synthesis.h)
  /// checks it after the host run and falls back to full runs when it is
  /// positive.
  void note_semantic_rng_draw() { ++semantic_rng_draws_; }
  std::uint64_t semantic_rng_draws() const { return semantic_rng_draws_; }

  /// Schedules `fn` to run `delay` from now (delay may be zero).
  void schedule(Duration delay, std::function<void()> fn);

  /// Schedules `fn` at absolute time `at` (clamped to now if in the past).
  void schedule_at(TimePoint at, std::function<void()> fn);

  /// Queues the wake that sim::wake_later promises: `delay` from now, the
  /// event runs sim::wake(tok, reason).
  void schedule_wake(Duration delay, std::shared_ptr<WakeToken> tok, WakeReason reason);

  /// Queues the second hop of sim::wake: at the current instant, resume
  /// tok's coroutine unless the token has died in the meantime.
  void schedule_resume(std::shared_ptr<WakeToken> tok);

  /// Runs a single event. Returns false if the queue was empty. A sleep in
  /// it never finishes in place (see advance_in_place).
  bool step();

  /// Runs a single event, like step(), in which a sleep may finish in place
  /// at any instant before `cap`: for a loop that steps while now() < cap,
  /// which would stop after the timer of a wake at or past `cap`, before
  /// its resume.
  bool step_before(TimePoint cap);

  /// Runs until the queue drains, `stop()` is called, or the event budget
  /// (a runaway-loop backstop) is exhausted. Sleeps never finish in place.
  void run();

  /// Runs events with time <= t, then advances the clock to exactly t —
  /// unless stop() ended the loop, which leaves the clock at the stopping
  /// event so that later steps never move it backwards. A sleep may finish
  /// in place at any instant up to t.
  void run_until(TimePoint t);
  void run_for(Duration d) { run_until(now_ + d); }

  /// Finishes a sleep that wakes at `t` without queueing it, if the event
  /// loop would run the sleep's timer and resume events next and back to
  /// back: `t` is strictly earlier than every queued event, within the
  /// horizon of the loop running events (step_before, run_until) and not
  /// held, the simulation is not stopped, and both events fit the event
  /// budget. Then the clock moves to `t`, the two events count as
  /// processed, and it returns true; otherwise it changes nothing and
  /// returns false.
  bool advance_in_place(TimePoint t);

  /// Ends in-place advance until the next event: for code that changes
  /// what an event loop checks between events (a client's finished flag),
  /// so the loop sees it at the instant the event ran.
  void hold() { advance_until_ = kNoAdvance; }

  /// Makes run()/run_until() return after the current event completes.
  void stop() { stopped_ = true; }
  bool stopped() const { return stopped_; }

  std::uint64_t events_processed() const { return events_processed_; }
  std::size_t pending_events() const { return queue_.size(); }

  /// Maximum number of events run() will process before throwing
  /// SimBudgetExhausted; guards against accidental infinite event loops.
  void set_event_budget(std::uint64_t budget) { event_budget_ = budget; }

 private:
  static constexpr TimePoint kNoAdvance =
      TimePoint::from_micros(std::numeric_limits<std::int64_t>::min());

  /// Pops and runs one event; a sleep in it may finish in place at instants
  /// up to `advance_until`.
  bool run_event(TimePoint advance_until);

  TimePoint now_;
  /// Latest instant a sleep may finish in place at: set by step_before and
  /// run_until for the event they run; kNoAdvance outside events and after
  /// hold().
  TimePoint advance_until_ = kNoAdvance;
  EventQueue queue_;
  Rng rng_;
  bool stopped_ = false;
  std::uint64_t events_processed_ = 0;
  std::uint64_t event_budget_ = 50'000'000;
  std::uint64_t semantic_rng_draws_ = 0;
};

/// Thrown when a simulation exceeds its event budget.
class SimBudgetExhausted : public std::runtime_error {
 public:
  SimBudgetExhausted() : std::runtime_error("simulation event budget exhausted") {}
};

}  // namespace dts::sim
