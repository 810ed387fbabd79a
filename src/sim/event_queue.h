// Priority queue of timed simulation events.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "sim/time.h"

namespace dts::sim {

struct WakeToken;             // sim/task.h
enum class WakeReason : int;  // sim/task.h

/// Timed event queue. Ties are broken by insertion order so that
/// same-instant events run FIFO — required for deterministic replay.
///
/// An event is either a callback or a wake: the two hops of sim::wake (a
/// wake delivered to a token, then the resume of its coroutine) carry the
/// token itself, so the hot blocking path queues no closure. The binary heap
/// (std::push_heap/pop_heap) orders trivially copyable {at, seq, slot} keys;
/// the payloads stay put in a slot arena whose slots are reused through a
/// free list, so a heap sift moves 24 bytes and no std::function.
class EventQueue {
 public:
  using Callback = std::function<void()>;

  struct Event {
    enum class Kind : std::uint8_t {
      kCallback,  // run `fn`
      kWake,      // sim::wake(tok, reason)
      kResume,    // resume tok's coroutine unless the token is dead
    };
    Kind kind = Kind::kCallback;
    WakeReason reason{};
    std::shared_ptr<WakeToken> tok;
    Callback fn;
  };

  /// Enqueues `ev` to run at time `at`.
  void push(TimePoint at, Event ev);

  bool empty() const { return heap_.empty(); }
  std::size_t size() const { return heap_.size(); }

  /// Time of the earliest pending event. Requires !empty().
  TimePoint next_time() const;

  /// Removes and returns the earliest event. Requires !empty().
  Event pop(TimePoint* at = nullptr);

 private:
  struct Key {
    TimePoint at;
    std::uint64_t seq = 0;
    std::uint32_t slot = 0;
  };
  struct Later {
    bool operator()(const Key& a, const Key& b) const {
      if (a.at != b.at) return a.at > b.at;
      return a.seq > b.seq;
    }
  };
  std::vector<Key> heap_;
  std::vector<Event> slots_;
  std::vector<std::uint32_t> free_slots_;
  std::uint64_t next_seq_ = 0;
};

}  // namespace dts::sim
