// Containment fuzzing: every implemented KERNEL32 function is called with
// random argument words. The invariant under test is the simulator's core
// safety property — a corrupted call may fail, hang the simulated thread or
// crash the simulated process, but the HOST process must never crash, leak
// into other simulated state, or wedge the event loop.
//
// This is exactly the space DTS explores (it corrupts one argument; we
// corrupt all of them), so surviving this sweep means no fault list can take
// the tool itself down.
#include <gtest/gtest.h>

#include <algorithm>

#include "ntsim/kernel.h"
#include "ntsim/kernel32.h"

namespace dts::nt {
namespace {

using sim::Duration;

class SyscallFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SyscallFuzz, RandomArgumentsAreContained) {
  const auto& reg = Kernel32Registry::instance();
  sim::Rng rng{GetParam()};

  for (std::uint16_t id = 0; id < kImplementedFunctionCount; ++id) {
    const Fn fn = static_cast<Fn>(id);
    const FunctionInfo& info = reg.info(fn);
    // Three random-argument calls per function per seed.
    for (int round = 0; round < 3; ++round) {
      sim::Simulation simu{rng.next()};
      Machine m{simu, MachineConfig{.name = "target"}};
      m.fs().put_file("C:\\data\\seed.txt", "contents");

      CallRecord rec;
      rec.fn = fn;
      rec.argc = info.param_count();
      for (int i = 0; i < rec.argc; ++i) {
        // Mix of the corruption values DTS uses and fully random words.
        Word& arg = rec.args[static_cast<std::size_t>(i)];
        switch (rng.uniform(0, 3)) {
          case 0: arg = 0; break;
          case 1: arg = 0xFFFFFFFF; break;
          case 2: arg = static_cast<Word>(rng.next()); break;
          default: arg = static_cast<Word>(rng.uniform(0, 0x10000)); break;
        }
      }

      m.register_program("fuzz.exe", [rec](Ctx c) -> sim::Task {
        // A couple of real allocations so low random addresses can hit
        // something live occasionally.
        (void)c.process->mem().alloc(64);
        (void)c.process->mem().alloc(4096);
        (void)co_await c.m().k32().call(c, rec);
      });
      const Pid pid = m.start_process("fuzz.exe", "fuzz.exe");
      ASSERT_NE(pid, 0u);
      // Bounded run: blocked-forever calls simply leave the process alive.
      simu.run_until(simu.now() + Duration::seconds(30));
      // The machine survives and remains usable: start a healthy process
      // afterwards and watch it complete.
      bool healthy_ran = false;
      m.register_program("healthy.exe", [&healthy_ran](Ctx c) -> sim::Task {
        (void)co_await c.m().k32().call(c, Fn::GetCurrentProcessId);
        healthy_ran = true;
      });
      m.start_process("healthy.exe", "healthy.exe");
      simu.run_until(simu.now() + Duration::seconds(5));
      ASSERT_TRUE(healthy_ran) << info.name << " wedged the machine";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SyscallFuzz, ::testing::Values(1, 2, 3, 4));

// Error-return injection fuzz (src/fault/ oserror model): a hook that forces
// random completion actions — forced error returns with arbitrary Win32
// error codes, result rewrites, delays — onto every KERNEL32 call. The
// containment invariant is the same as for argument corruption: the host
// survives and the machine stays usable whatever error code the "OS" claims.
// kDrop is exercised separately with a bounded run (it blocks the caller
// forever by design).
TEST(SyscallFuzzErrorReturns, ForcedCompletionActionsAreContained) {
  struct ErrorHook : SyscallHook {
    sim::Rng rng{0};
    void on_call(const Process&, CallRecord& rec) override {
      switch (rng.uniform(0, 4)) {
        case 0:
          rec.action = CallRecord::Action::kForceResult;
          rec.forced_result = rng.chance(0.5) ? 0 : static_cast<Word>(rng.next());
          // Arbitrary 32-bit error codes, not just the catalogued ones: a
          // hostile fault list must not find an unconstrained code path.
          rec.forced_error = static_cast<Dword>(rng.next());
          break;
        case 1: rec.action = CallRecord::Action::kZeroResult; break;
        case 2: rec.action = CallRecord::Action::kFlipResult; break;
        case 3:
          rec.action = CallRecord::Action::kDelay;
          rec.delay_us = static_cast<std::uint32_t>(rng.uniform(0, 200000));
          break;
        default: break;  // kNone: let the call through
      }
    }
  };

  const auto& reg = Kernel32Registry::instance();
  for (std::uint64_t seed = 200; seed < 204; ++seed) {
    sim::Rng rng{seed};
    sim::Simulation simu{seed};
    Machine m{simu, MachineConfig{.name = "target"}};
    m.fs().put_file("C:\\data\\x.txt", "payload");
    ErrorHook hook;
    hook.rng = sim::Rng{seed * 31 + 1};
    m.k32().set_hook(&hook);

    std::vector<Fn> script;
    for (int i = 0; i < 40; ++i) {
      const Fn fn = static_cast<Fn>(rng.uniform(0, kImplementedFunctionCount - 1));
      if (fn == Fn::ExitProcess || fn == Fn::ExitThread) continue;
      script.push_back(fn);
    }
    m.register_program("fuzz.exe", [script, &reg](Ctx c) -> sim::Task {
      for (Fn fn : script) {
        CallRecord rec;
        rec.fn = fn;
        rec.argc = reg.info(fn).param_count();
        std::fill_n(rec.args.begin(), rec.argc, Word{1});
        (void)co_await c.m().k32().call(c, rec);
      }
    });
    m.start_process("fuzz.exe", "fuzz.exe");
    simu.run_until(simu.now() + Duration::seconds(60));

    // Healthy process afterwards, with the hook removed: the machine is not
    // wedged by whatever the forced completions did.
    m.k32().set_hook(nullptr);
    bool healthy_ran = false;
    m.register_program("healthy.exe", [&healthy_ran](Ctx c) -> sim::Task {
      (void)co_await c.m().k32().call(c, Fn::GetCurrentProcessId);
      healthy_ran = true;
    });
    m.start_process("healthy.exe", "healthy.exe");
    simu.run_until(simu.now() + Duration::seconds(5));
    ASSERT_TRUE(healthy_ran) << "seed " << seed << " wedged the machine";
  }
}

TEST(SyscallFuzzErrorReturns, DroppedCompletionsOnlyBlockTheCaller) {
  struct DropHook : SyscallHook {
    void on_call(const Process& proc, CallRecord& rec) override {
      // Drop every call of the fuzz target; other processes run untouched.
      if (proc.image() == "fuzz.exe") rec.action = CallRecord::Action::kDrop;
    }
  };
  sim::Simulation simu{5};
  Machine m{simu, MachineConfig{.name = "target"}};
  DropHook hook;
  m.k32().set_hook(&hook);

  bool past_drop = false;
  m.register_program("fuzz.exe", [&past_drop](Ctx c) -> sim::Task {
    (void)co_await c.m().k32().call(c, Fn::GetCurrentProcessId);
    past_drop = true;  // must never execute: the completion was dropped
  });
  m.start_process("fuzz.exe", "fuzz.exe");

  bool healthy_ran = false;
  m.register_program("healthy.exe", [&healthy_ran](Ctx c) -> sim::Task {
    (void)co_await c.m().k32().call(c, Fn::GetCurrentProcessId);
    healthy_ran = true;
  });
  m.start_process("healthy.exe", "healthy.exe");
  simu.run_until(simu.now() + Duration::seconds(30));
  EXPECT_FALSE(past_drop);
  EXPECT_TRUE(healthy_ran);
}

TEST(SyscallFuzzSequence, RandomCallSequencesAreContained) {
  // Longer random sequences inside one process: state built up by earlier
  // calls (handles, heaps, critical sections) feeds later corrupted calls.
  for (std::uint64_t seed = 100; seed < 108; ++seed) {
    sim::Rng rng{seed};
    sim::Simulation simu{seed};
    Machine m{simu, MachineConfig{.name = "target"}};
    m.fs().put_file("C:\\data\\x.txt", "payload");

    // Pre-generate the call script (deterministic per seed).
    std::vector<CallRecord> script;
    const auto& reg = Kernel32Registry::instance();
    for (int i = 0; i < 60; ++i) {
      const Fn fn = static_cast<Fn>(rng.uniform(0, kImplementedFunctionCount - 1));
      // Skip the two calls that intentionally never return.
      if (fn == Fn::ExitProcess || fn == Fn::ExitThread) continue;
      CallRecord call;
      call.fn = fn;
      call.argc = reg.info(fn).param_count();
      for (int p = 0; p < call.argc; ++p) {
        call.args[static_cast<std::size_t>(p)] = rng.chance(0.3)
                                                     ? static_cast<Word>(rng.next())
                                                     : static_cast<Word>(rng.uniform(0, 64));
      }
      script.push_back(call);
    }

    m.register_program("fuzz.exe", [script](Ctx c) -> sim::Task {
      for (const CallRecord& call : script) {
        (void)co_await c.m().k32().call(c, call);
      }
    });
    m.start_process("fuzz.exe", "fuzz.exe");
    simu.run_until(simu.now() + Duration::seconds(120));
    // Reaching here without a host crash or an exception is the pass.
    SUCCEED();
  }
}

}  // namespace
}  // namespace dts::nt
