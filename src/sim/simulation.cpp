#include "sim/simulation.h"

#include <utility>

#include "sim/task.h"

namespace dts::sim {

using Event = EventQueue::Event;

Simulation::Simulation(std::uint64_t seed) : rng_(seed) {}

void Simulation::schedule(Duration delay, std::function<void()> fn) {
  schedule_at(now_ + (delay.is_negative() ? Duration{} : delay), std::move(fn));
}

void Simulation::schedule_at(TimePoint at, std::function<void()> fn) {
  if (at < now_) at = now_;
  queue_.push(at, Event{Event::Kind::kCallback, {}, nullptr, std::move(fn)});
}

void Simulation::schedule_wake(Duration delay, WakePtr tok, WakeReason reason) {
  const TimePoint at = now_ + (delay.is_negative() ? Duration{} : delay);
  queue_.push(at, Event{Event::Kind::kWake, reason, std::move(tok), {}});
}

void Simulation::schedule_resume(WakePtr tok) {
  queue_.push(now_, Event{Event::Kind::kResume, {}, std::move(tok), {}});
}

bool Simulation::step() {
  if (queue_.empty()) return false;
  TimePoint at;
  Event ev = queue_.pop(&at);
  now_ = at;
  ++events_processed_;
  if (events_processed_ > event_budget_) throw SimBudgetExhausted{};
  switch (ev.kind) {
    case Event::Kind::kCallback:
      ev.fn();
      break;
    case Event::Kind::kWake:
      wake(*this, ev.tok, ev.reason);
      break;
    case Event::Kind::kResume:
      if (!ev.tok->dead && ev.tok->handle) ev.tok->handle.resume();
      break;
  }
  return true;
}

void Simulation::run() {
  stopped_ = false;
  while (!stopped_ && step()) {
  }
}

void Simulation::run_until(TimePoint t) {
  stopped_ = false;
  while (!stopped_ && !queue_.empty() && queue_.next_time() <= t) {
    step();
  }
  if (!stopped_ && now_ < t) now_ = t;
}

}  // namespace dts::sim
