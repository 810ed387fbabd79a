// The discrete-event simulation kernel.
//
// A Simulation owns the virtual clock, the event queue, and the root random
// stream. All other subsystems (the simulated NT machines, the network, the
// fault injector) schedule work through it. One fault-injection run = one
// Simulation instance, so runs cannot contaminate each other.
#pragma once

#include <cstdint>
#include <functional>
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

  /// Runs a single event. Returns false if the queue was empty.
  bool step();

  /// Runs until the queue drains, `stop()` is called, or the event budget
  /// (a runaway-loop backstop) is exhausted.
  void run();

  /// Runs events with time <= t, then advances the clock to exactly t.
  void run_until(TimePoint t);
  void run_for(Duration d) { run_until(now_ + d); }

  /// Makes run()/run_until() return after the current event completes.
  void stop() { stopped_ = true; }
  bool stopped() const { return stopped_; }

  std::uint64_t events_processed() const { return events_processed_; }
  std::size_t pending_events() const { return queue_.size(); }

  /// Maximum number of events run() will process before throwing
  /// SimBudgetExhausted; guards against accidental infinite event loops.
  void set_event_budget(std::uint64_t budget) { event_budget_ = budget; }

 private:
  TimePoint now_;
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
