// Per-thread block pool for the simulator's short-lived host blocks.
//
// Every simulated KERNEL32 call and every blocking wait creates a coroutine
// frame or a wake token and destroys it a few simulated events later, so the
// host heap would see thousands of malloc/free pairs per fault-injection run.
// The pool keeps freed blocks on per-thread free lists in 32-byte size
// classes up to kPoolMaxBlock bytes and hands them out again; larger blocks go
// straight to ::operator new. Nothing simulated reads a host address, so
// pooling cannot change an output byte.
//
// Free blocks are ASan-poisoned while they sit on a list, so the asan preset
// still reports a use of a destroyed frame or token (until the block is
// reused). A block freed on another thread joins that thread's list; no list
// is ever shared between threads. Blocks still cached when a thread exits go
// back to the host heap.
#pragma once

#include <cstddef>

namespace dts::sim {

inline constexpr std::size_t kPoolMaxBlock = 2048;

/// A block of at least `size` bytes, aligned for any fundamental type.
void* pool_allocate(std::size_t size);

/// Returns a block that pool_allocate(size) handed out, with the same size.
void pool_deallocate(void* p, std::size_t size) noexcept;

/// Allocator over the pool, for std::allocate_shared.
template <typename T>
struct PoolAllocator {
  using value_type = T;

  PoolAllocator() noexcept = default;
  template <typename U>
  PoolAllocator(const PoolAllocator<U>&) noexcept {}

  T* allocate(std::size_t n) { return static_cast<T*>(pool_allocate(n * sizeof(T))); }
  void deallocate(T* p, std::size_t n) noexcept { pool_deallocate(p, n * sizeof(T)); }

  template <typename U>
  bool operator==(const PoolAllocator<U>&) const noexcept {
    return true;
  }
};

/// Keeps the host heap's freed memory in the process from one run to the
/// next. glibc returns the top of an arena to the kernel once more than
/// 128 kB is free there, and a fault-injection run frees its whole working
/// set when it ends, so the next run would fault those pages back in: tens of
/// thousands of minor faults per three-tier sweep. Sets the thresholds once
/// per process; a no-op outside glibc. Every run calls it (FaultInjectionRun).
void retain_host_heap();

/// Base of a coroutine promise type: the compiler finds these in the
/// promise's scope and takes the coroutine's frame from the pool.
struct PooledFrame {
  static void* operator new(std::size_t size) { return pool_allocate(size); }
  static void operator delete(void* p, std::size_t size) noexcept {
    pool_deallocate(p, size);
  }
};

}  // namespace dts::sim
