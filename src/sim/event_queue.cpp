#include "sim/event_queue.h"

#include <algorithm>
#include <cstddef>
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
  const Key key{at, next_seq_++, slot};
  if (at == last_pop_ && (lane_.empty() || lane_.back().at == at)) {
    // Drop the popped prefix once it outweighs the pending keys: a long
    // same-instant chain never grows the lane past twice what is pending.
    if (lane_head_ >= 32 && 2 * lane_head_ >= lane_.size()) {
      lane_.erase(lane_.begin(), lane_.begin() + static_cast<std::ptrdiff_t>(lane_head_));
      lane_head_ = 0;
    }
    lane_.push_back(key);
    return;
  }
  heap_.push_back(key);
  std::push_heap(heap_.begin(), heap_.end(), Later{});
}

bool EventQueue::lane_first() const {
  return lane_head_ != lane_.size() &&
         (heap_.empty() || Later{}(heap_.front(), lane_[lane_head_]));
}

TimePoint EventQueue::next_time() const {
  if (empty()) throw std::logic_error("EventQueue::next_time on empty queue");
  return lane_first() ? lane_[lane_head_].at : heap_.front().at;
}

EventQueue::Event EventQueue::pop(TimePoint* at) {
  if (empty()) throw std::logic_error("EventQueue::pop on empty queue");
  Key key;
  if (lane_first()) {
    key = lane_[lane_head_++];
    if (lane_head_ == lane_.size()) {
      lane_.clear();
      lane_head_ = 0;
    }
  } else {
    std::pop_heap(heap_.begin(), heap_.end(), Later{});
    key = heap_.back();
    heap_.pop_back();
  }
  last_pop_ = key.at;
  if (at != nullptr) *at = key.at;
  // Moved out before the caller runs it: running an event may push others,
  // which can reuse this slot or grow the arena.
  Event ev = std::move(slots_[key.slot]);
  free_slots_.push_back(key.slot);
  return ev;
}

}  // namespace dts::sim
