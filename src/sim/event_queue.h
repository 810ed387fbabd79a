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
///
/// A key pushed for the instant of the last pop (a zero-delay event, the
/// second hop of every wake) skips the heap: it joins a FIFO lane, and pop()
/// takes whichever of the lane's front and the heap's top is smaller by
/// (at, seq). A key joins the lane only while the lane is empty or its back
/// has the same instant, so the lane holds one instant in push (= seq)
/// order and the pop order is the same total order as with the heap alone.
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

  bool empty() const { return heap_.empty() && lane_head_ == lane_.size(); }
  std::size_t size() const { return heap_.size() + (lane_.size() - lane_head_); }

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
  /// Whether the next key to pop is the lane's front rather than the heap's
  /// top. Requires !empty().
  bool lane_first() const;

  std::vector<Key> heap_;
  std::vector<Key> lane_;      // FIFO; [lane_head_, end) is pending
  std::size_t lane_head_ = 0;
  TimePoint last_pop_;         // instant of the last pop
  std::vector<Event> slots_;
  std::vector<std::uint32_t> free_slots_;
  std::uint64_t next_seq_ = 0;
};

}  // namespace dts::sim
