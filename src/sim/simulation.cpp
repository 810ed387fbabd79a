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

bool Simulation::step() { return run_event(kNoAdvance); }

bool Simulation::step_before(TimePoint cap) {
  return run_event(cap + Duration::micros(-1));
}

bool Simulation::advance_in_place(TimePoint t) {
  if (t > advance_until_ || stopped_ || events_processed_ + 2 > event_budget_ ||
      (!queue_.empty() && queue_.next_time() <= t)) {
    return false;
  }
  now_ = t;
  events_processed_ += 2;  // the timer and the resume it would have queued
  return true;
}

bool Simulation::run_event(TimePoint advance_until) {
  if (queue_.empty()) return false;
  TimePoint at;
  Event ev = queue_.pop(&at);
  now_ = at;
  ++events_processed_;
  if (events_processed_ > event_budget_) throw SimBudgetExhausted{};
  advance_until_ = advance_until;
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
  advance_until_ = kNoAdvance;
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
    run_event(t);
  }
  if (!stopped_ && now_ < t) now_ = t;
}

}  // namespace dts::sim
