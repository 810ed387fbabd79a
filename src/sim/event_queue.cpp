#include "sim/event_queue.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace dts::sim {

void EventQueue::push(TimePoint at, Event ev) {
  std::uint32_t slot;
  if (free_slots_.empty()) {
    slot = static_cast<std::uint32_t>(slots_.size());
    slots_.push_back(std::move(ev));
  } else {
    slot = free_slots_.back();
    free_slots_.pop_back();
    slots_[slot] = std::move(ev);
  }
  heap_.push_back(Key{at, next_seq_++, slot});
  std::push_heap(heap_.begin(), heap_.end(), Later{});
}

TimePoint EventQueue::next_time() const {
  if (heap_.empty()) throw std::logic_error("EventQueue::next_time on empty queue");
  return heap_.front().at;
}

EventQueue::Event EventQueue::pop(TimePoint* at) {
  if (heap_.empty()) throw std::logic_error("EventQueue::pop on empty queue");
  std::pop_heap(heap_.begin(), heap_.end(), Later{});
  const Key key = heap_.back();
  heap_.pop_back();
  if (at != nullptr) *at = key.at;
  // Moved out before the caller runs it: running an event may push others,
  // which can reuse this slot or grow the arena.
  Event ev = std::move(slots_[key.slot]);
  free_slots_.push_back(key.slot);
  return ev;
}

}  // namespace dts::sim
