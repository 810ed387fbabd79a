// Priority queue of timed simulation events.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "sim/time.h"

namespace dts::sim {

/// Timed callback queue. Ties are broken by insertion order so that
/// same-instant events run FIFO — required for deterministic replay.
///
/// The heap is an explicit vector (std::push_heap/pop_heap — the exact
/// algorithm std::priority_queue wraps, so pop order is unchanged) rather
/// than std::priority_queue, whose top() is const: pop() moves the callback
/// out of the heap instead of copying its closure.
class EventQueue {
 public:
  using Callback = std::function<void()>;

  /// Enqueues `fn` to run at time `at`. Returns a unique event id.
  std::uint64_t push(TimePoint at, Callback fn);

  bool empty() const { return heap_.empty(); }
  std::size_t size() const { return heap_.size(); }

  /// Time of the earliest pending event. Requires !empty().
  TimePoint next_time() const;

  /// Removes and returns the earliest event's callback. Requires !empty().
  Callback pop(TimePoint* at = nullptr);

  void clear();

 private:
  struct Event {
    TimePoint at;
    std::uint64_t seq = 0;
    Callback fn;
  };
  struct Later {
    bool operator()(const Event& a, const Event& b) const {
      if (a.at != b.at) return a.at > b.at;
      return a.seq > b.seq;
    }
  };
  std::vector<Event> heap_;
  std::uint64_t next_seq_ = 0;
};

}  // namespace dts::sim
