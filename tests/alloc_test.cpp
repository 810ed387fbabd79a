// Host allocation budget of the wake and syscall path.
//
// Every simulated KERNEL32 call and every simulated sleep turns into a
// suspension and a wake, thousands of times per fault-injection run, so the
// blocks this path takes from the host heap bound campaign throughput. Once
// warm, the path takes none: the wake token of each wait (still a
// shared_ptr, so that killing a blocked process stays safe) and the
// Kernel32::call coroutine frame come from the per-thread block pool
// (sim/pool.h), and queued events, the sleep itself and the interceptor's
// counters allocate nothing.
//
// Simulated memory takes host bytes only where the simulation writes it: an
// untouched VirtualAlloc reservation (SQL Server's buffer pool) costs none.
//
// The test replaces the global operator new with a counting one, which is
// why it is an executable of its own.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

#include "inject/interceptor.h"
#include "ntsim/kernel.h"
#include "ntsim/kernel32.h"

namespace {
std::atomic<std::uint64_t> g_allocations{0};
std::atomic<std::uint64_t> g_bytes{0};

// Out of line: with the counting inlined into operator new, GCC 12 warns
// -Wmismatched-new-delete on the free() in operator delete below.
[[gnu::noinline]] void count_allocation(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  g_bytes.fetch_add(size, std::memory_order_relaxed);
}
}  // namespace

void* operator new(std::size_t size) {
  count_allocation(size);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc{};
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
// Array forms too: a sanitizer runtime supplies its own, which would bypass
// the counter (VirtualMemory takes a block's host bytes with new[]).
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete[](void* p) noexcept { ::operator delete(p); }
void operator delete[](void* p, std::size_t) noexcept { ::operator delete(p); }

namespace dts {
namespace {

constexpr std::uint64_t kOps = 1000;

/// A machine with the interceptor installed, as in every fault-injection run.
struct HookedMachine {
  sim::Simulation simu;
  nt::Machine m{simu, nt::MachineConfig{}};
  inject::Interceptor icept;

  HookedMachine() { m.k32().set_hook(&icept); }

  /// Starts `body` as a process, steps through kOps operations (counted by
  /// `done`) to warm up the event queue and the counters, then returns the
  /// blocks allocated over the next kOps operations.
  std::uint64_t blocks_after_warmup(nt::Machine::ProgramMain body, const std::uint64_t& done) {
    m.register_program("alloc.exe", std::move(body));
    m.start_process("alloc.exe", "alloc.exe");
    while (done < kOps) simu.step();
    const std::uint64_t before = g_allocations.load();
    while (done < 2 * kOps) simu.step();
    return g_allocations.load() - before;
  }
};

TEST(AllocBudget, SleepAllocatesNothingOnceWarm) {
  HookedMachine w;
  std::uint64_t sleeps = 0;
  const std::uint64_t blocks = w.blocks_after_warmup(
      [&sleeps](nt::Ctx c) -> sim::Task {
        for (;;) {
          co_await nt::sleep_in_sim(c, sim::Duration::micros(1));
          ++sleeps;
        }
      },
      sleeps);
  EXPECT_EQ(blocks, 0u) << static_cast<double>(blocks) / kOps << " blocks per sleep";
}

TEST(AllocBudget, HookedSyscallAllocatesNothingOnceWarm) {
  HookedMachine w;
  std::uint64_t calls = 0;
  const std::uint64_t blocks = w.blocks_after_warmup(
      [&calls](nt::Ctx c) -> sim::Task {
        for (;;) {
          (void)co_await c.m().k32().call(c, nt::Fn::GetCurrentProcessId);
          ++calls;
        }
      },
      calls);
  EXPECT_EQ(blocks, 0u) << static_cast<double>(blocks) / kOps << " blocks per call";
  // Every call went through the hook; the next one is already in flight.
  EXPECT_EQ(w.icept.calls_observed(), calls + 1);
}

TEST(AllocBudget, VirtualAllocTakesNoHostBytesUntilWritten) {
  HookedMachine w;
  constexpr nt::Word kMegabyte = 1u << 20;
  constexpr nt::Word kMemCommit = 0x1000;
  constexpr nt::Word kPageReadWrite = 0x04;
  std::uint64_t alloc_bytes = ~0ull, write_bytes = 0;
  nt::Word base = 0;
  w.m.register_program("alloc.exe", [&](nt::Ctx c) -> sim::Task {
    auto& k32 = c.m().k32();
    // Warm the call path and the block table with one small reservation.
    const nt::Word warm = co_await k32.call(c, nt::Fn::VirtualAlloc, 0, 4096, kMemCommit,
                                            kPageReadWrite);
    (void)co_await k32.call(c, nt::Fn::VirtualFree, warm, 0, 0x8000);
    std::uint64_t before = g_bytes.load();
    base = co_await k32.call(c, nt::Fn::VirtualAlloc, 0, kMegabyte, kMemCommit,
                             kPageReadWrite);
    alloc_bytes = g_bytes.load() - before;
    before = g_bytes.load();
    c.process->mem().write_u32(nt::Ptr{base + 4096}, 7);
    write_bytes = g_bytes.load() - before;
  });
  w.m.start_process("alloc.exe", "alloc.exe");
  w.simu.run_until(w.simu.now() + sim::Duration::seconds(1));
  ASSERT_NE(base, 0u);
  EXPECT_EQ(alloc_bytes, 0u) << "a 1 MB reservation took host bytes before any write";
  // The first write takes the whole block, zeroed but for what it wrote.
  EXPECT_EQ(write_bytes, kMegabyte);
}

}  // namespace
}  // namespace dts
