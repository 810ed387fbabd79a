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
}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc{};
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

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

}  // namespace
}  // namespace dts
