#include "sim/pool.h"

#include <sanitizer/asan_interface.h>

#include <new>

#ifdef __GLIBC__
#include <malloc.h>
#endif

namespace dts::sim {

namespace {

constexpr std::size_t kClassBytes = 32;
constexpr std::size_t kClasses = kPoolMaxBlock / kClassBytes;

constexpr std::size_t class_of(std::size_t size) {
  return size == 0 ? 0 : (size - 1) / kClassBytes;
}
constexpr std::size_t class_bytes(std::size_t c) { return (c + 1) * kClassBytes; }

/// The calling thread's free lists. Trivially destructible, so it outlives
/// every thread_local destructor and static destructor that may still free
/// a pooled block; a free block stores the link to the next one.
struct FreeLists {
  void* head[kClasses];
  bool reaper_armed;  // ~Reaper is registered for this thread
  bool closed;        // the thread is exiting: blocks go back to the host heap
};
thread_local FreeLists lists{};

/// Returns the thread's cached blocks to the host heap when it exits.
struct Reaper {
  Reaper() = default;
  Reaper(const Reaper&) = delete;
  Reaper& operator=(const Reaper&) = delete;
  ~Reaper() {
    lists.closed = true;
    for (std::size_t c = 0; c < kClasses; ++c) {
      while (void* p = lists.head[c]) {
        ASAN_UNPOISON_MEMORY_REGION(p, class_bytes(c));
        lists.head[c] = *static_cast<void**>(p);
        ::operator delete(p, class_bytes(c));
      }
    }
  }
};
thread_local Reaper reaper;

}  // namespace

void* pool_allocate(std::size_t size) {
  if (size > kPoolMaxBlock) return ::operator new(size);
  const std::size_t c = class_of(size);
  if (void* p = lists.head[c]) {
    ASAN_UNPOISON_MEMORY_REGION(p, class_bytes(c));
    lists.head[c] = *static_cast<void**>(p);
    return p;
  }
  return ::operator new(class_bytes(c));
}

void pool_deallocate(void* p, std::size_t size) noexcept {
  if (size > kPoolMaxBlock) {
    ::operator delete(p, size);
    return;
  }
  const std::size_t c = class_of(size);
  if (lists.closed) {
    ::operator delete(p, class_bytes(c));
    return;
  }
  if (!lists.reaper_armed) {
    lists.reaper_armed = true;
    static_cast<void>(&reaper);  // the first use registers ~Reaper
  }
  *static_cast<void**>(p) = lists.head[c];
  lists.head[c] = p;
  ASAN_POISON_MEMORY_REGION(p, class_bytes(c));
}

void retain_host_heap() {
#ifdef __GLIBC__
  // Setting either threshold stops glibc adapting both, so both are pinned
  // where its own adaptation tops out on 64-bit hosts: blocks below 32 MB
  // come from the arenas, and an arena trims only past 64 MB free (twice
  // the mmap threshold, glibc's rule). Measured at seed 4099: a run's live
  // heap peaks at 2.1 MB (three-tier; 0.4 MB classic), and a planned I=48
  // campaign's largest buffer, its 166,608 results of 192 bytes, is 30.5 MB,
  // so neither goes back to the kernel between uses. A runaway app-model
  // buffer (the SQL GetFileSize tail) still gets mappings of its own,
  // returned when freed.
  static const bool once = [] {
    mallopt(M_MMAP_THRESHOLD, 32 << 20);
    mallopt(M_TRIM_THRESHOLD, 64 << 20);
    return true;
  }();
  (void)once;
#endif
}

}  // namespace dts::sim
