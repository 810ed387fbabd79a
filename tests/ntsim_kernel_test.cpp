// Tests for the simulated NT kernel: processes, threads, syscalls, crash
// semantics, kernel objects, pipes, SCM, the event log, and sleeps that
// finish in place.
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "ntsim/kernel.h"
#include "ntsim/kernel32.h"
#include "ntsim/netsim.h"
#include "ntsim/scm.h"
#include "sim/rng.h"
#include "sim/simulation.h"

namespace dts::nt {
namespace {

using sim::Duration;

struct World {
  sim::Simulation simu{42};
  Machine m{simu, MachineConfig{.name = "target", .cpu_scale = 1.0}};
};

// Convenience: run one program to completion and return its exit record.
ProcessExitRecord run_program(World& w, Machine::ProgramMain main_fn,
                              Duration limit = Duration::seconds(600)) {
  w.m.register_program("test.exe", std::move(main_fn));
  const Pid pid = w.m.start_process("test.exe", "test.exe");
  EXPECT_NE(pid, 0u);
  w.simu.run_until(w.simu.now() + limit);
  for (const auto& rec : w.m.exit_history()) {
    if (rec.pid == pid) return rec;
  }
  ADD_FAILURE() << "process did not exit within the time limit";
  return {};
}

TEST(Kernel, ProgramRunsAndExits) {
  World w;
  int steps = 0;
  auto rec = run_program(w, [&](Ctx c) -> sim::Task {
    ++steps;
    co_await sleep_in_sim(c, Duration::millis(5));
    ++steps;
  });
  EXPECT_EQ(steps, 2);
  EXPECT_EQ(rec.exit_code, 0u);
  EXPECT_EQ(w.m.live_processes(), 0u);
}

TEST(Kernel, SyscallsChargeTime) {
  World w;
  sim::Duration elapsed{};
  run_program(w, [&](Ctx c) -> sim::Task {
    auto& k = c.m().k32();
    const auto t0 = c.m().sim().now();
    for (int i = 0; i < 10; ++i) (void)co_await k.call(c, Fn::GetCurrentProcessId);
    elapsed = c.m().sim().now() - t0;
  });
  EXPECT_GE(elapsed, Kernel32::kBaseCost * 10);
}

TEST(Kernel, AccessViolationCrashesProcess) {
  World w;
  auto rec = run_program(w, [&](Ctx c) -> sim::Task {
    auto& k = c.m().k32();
    // GetStartupInfoA writes through the pointer in user mode: corrupted
    // pointer = crash.
    (void)co_await k.call(c, Fn::GetStartupInfoA, 0);
    ADD_FAILURE() << "should have crashed";
  });
  EXPECT_EQ(rec.exit_code, kExitCodeAccessViolation);
  EXPECT_EQ(w.m.crashes_of("test.exe"), 1u);
}

TEST(Kernel, BadHandleIsErrorNotCrash) {
  World w;
  Word result = 99;
  Word error = 0;
  auto rec = run_program(w, [&](Ctx c) -> sim::Task {
    auto& k = c.m().k32();
    result = co_await k.call(c, Fn::SetEvent, 0x12345678);
    error = co_await k.call(c, Fn::GetLastError);
  });
  EXPECT_EQ(result, 0u);
  EXPECT_EQ(error, to_dword(Win32Error::kInvalidHandle));
  EXPECT_EQ(rec.exit_code, 0u);
}

TEST(Kernel, EventSignalsAcrossThreads) {
  World w;
  std::vector<int> order;
  run_program(w, [&](Ctx c) -> sim::Task {
    auto& k = c.m().k32();
    const Word ev = co_await k.call(c, Fn::CreateEventA, 0, 1, 0, 0);
    EXPECT_NE(ev, 0u);

    const Word routine = c.process->register_routine(
        [&, ev](Ctx tc, Word) -> sim::Task {
          co_await sleep_in_sim(tc, Duration::millis(50));
          order.push_back(1);
          (void)co_await tc.m().k32().call(tc, Fn::SetEvent, ev);
        });
    const Word th = co_await k.call(c, Fn::CreateThread, 0, 0, routine, 0, 0, 0);
    EXPECT_NE(th, 0u);

    const Word r = co_await k.call(c, Fn::WaitForSingleObject, ev, kInfinite);
    EXPECT_EQ(r, kWaitObject0);
    order.push_back(2);
    (void)co_await k.call(c, Fn::WaitForSingleObject, th, kInfinite);
  });
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(Kernel, WaitTimesOut) {
  World w;
  Word r = 0;
  sim::Duration waited{};
  run_program(w, [&](Ctx c) -> sim::Task {
    auto& k = c.m().k32();
    const Word ev = co_await k.call(c, Fn::CreateEventA, 0, 1, 0, 0);
    const auto t0 = c.m().sim().now();
    r = co_await k.call(c, Fn::WaitForSingleObject, ev, 200);
    waited = c.m().sim().now() - t0;
  });
  EXPECT_EQ(r, kWaitTimeout);
  EXPECT_GE(waited, Duration::millis(200));
  EXPECT_LT(waited, Duration::millis(400));
}

TEST(Kernel, CorruptedThreadStartAddressCrashes) {
  World w;
  auto rec = run_program(w, [&](Ctx c) -> sim::Task {
    auto& k = c.m().k32();
    // A corrupted lpStartAddress creates a thread that faults immediately,
    // taking the process down.
    (void)co_await k.call(c, Fn::CreateThread, 0, 0, 0xDEAD0000, 0, 0, 0);
    co_await sleep_in_sim(c, Duration::seconds(10));
  });
  EXPECT_EQ(rec.exit_code, kExitCodeAccessViolation);
}

TEST(Kernel, ParentWaitsOnChildProcess) {
  World w;
  w.m.register_program("child.exe", [](Ctx c) -> sim::Task {
    co_await sleep_in_sim(c, Duration::millis(100));
    (void)co_await c.m().k32().call(c, Fn::ExitProcess, 7);
  });
  Word exit_code = 999;
  run_program(w, [&](Ctx c) -> sim::Task {
    auto& k = c.m().k32();
    const Ptr cmd = c.process->mem().alloc_cstr("child.exe");
    const Ptr pi = c.process->mem().alloc(16);
    const Word ok = co_await k.call(c, Fn::CreateProcessA, 0, cmd.addr, 0, 0, 0,
                                    0, 0, 0, 0, pi.addr);
    EXPECT_EQ(ok, 1u);
    const Word h_child = c.process->mem().read_u32(pi);
    const Word r = co_await k.call(c, Fn::WaitForSingleObject, h_child, kInfinite);
    EXPECT_EQ(r, kWaitObject0);
    const Ptr code_out = c.process->mem().alloc(4);
    (void)co_await k.call(c, Fn::GetExitCodeProcess, h_child, code_out.addr);
    exit_code = c.process->mem().read_u32(code_out);
  });
  EXPECT_EQ(exit_code, 7u);
}

TEST(Kernel, TerminateProcessKillsTarget) {
  World w;
  w.m.register_program("victim.exe", [](Ctx c) -> sim::Task {
    co_await sleep_in_sim(c, Duration::seconds(1000));  // would run forever
  });
  run_program(w, [&](Ctx c) -> sim::Task {
    auto& k = c.m().k32();
    const Ptr cmd = c.process->mem().alloc_cstr("victim.exe");
    const Ptr pi = c.process->mem().alloc(16);
    EXPECT_EQ(co_await k.call(c, Fn::CreateProcessA, 0, cmd.addr, 0, 0, 0, 0, 0, 0, 0, pi.addr),
              1u);
    const Word h = c.process->mem().read_u32(pi);
    EXPECT_EQ(co_await k.call(c, Fn::TerminateProcess, h, 42), 1u);
    EXPECT_EQ(co_await k.call(c, Fn::WaitForSingleObject, h, 5000), kWaitObject0);
  });
  EXPECT_EQ(w.m.live_processes(), 0u);
}

TEST(Kernel, PipesCarryDataBetweenProcesses) {
  World w;
  std::string received;
  run_program(w, [&](Ctx c) -> sim::Task {
    auto& k = c.m().k32();
    auto& mem = c.process->mem();
    const Ptr handles = mem.alloc(8);
    EXPECT_EQ(co_await k.call(c, Fn::CreatePipe, handles.addr, handles.addr + 4, 0, 0), 1u);
    const Word h_read = mem.read_u32(handles);
    const Word h_write = mem.read_u32(handles.offset(4));

    const Ptr msg = mem.alloc_cstr("through the pipe");
    EXPECT_EQ(co_await k.call(c, Fn::WriteFile, h_write, msg.addr, 16, 0, 0), 1u);
    (void)co_await k.call(c, Fn::CloseHandle, h_write);

    const Ptr buf = mem.alloc(64);
    const Ptr n_out = mem.alloc(4);
    EXPECT_EQ(co_await k.call(c, Fn::ReadFile, h_read, buf.addr, 64, n_out.addr, 0), 1u);
    received = mem.read_bytes(buf, mem.read_u32(n_out));

    // After the writer closed, the next read reports a broken pipe.
    EXPECT_EQ(co_await k.call(c, Fn::ReadFile, h_read, buf.addr, 64, n_out.addr, 0), 0u);
    EXPECT_EQ(co_await k.call(c, Fn::GetLastError),
              to_dword(Win32Error::kBrokenPipe));
  });
  EXPECT_EQ(received, "through the pipe");
}

TEST(Kernel, FileRoundTripThroughSyscalls) {
  World w;
  w.m.fs().put_file("C:\\data\\in.txt", "file contents here");
  std::string read_back;
  run_program(w, [&](Ctx c) -> sim::Task {
    auto& k = c.m().k32();
    auto& mem = c.process->mem();
    const Ptr name = mem.alloc_cstr("C:\\data\\in.txt");
    const Word h = co_await k.call(c, Fn::CreateFileA, name.addr, kGenericRead, 0,
                                   0, kOpenExisting, 0, 0);
    EXPECT_NE(h, kInvalidHandleValue);
    const Word size = co_await k.call(c, Fn::GetFileSize, h, 0);
    const Ptr buf = mem.alloc(size);
    const Ptr n_out = mem.alloc(4);
    EXPECT_EQ(co_await k.call(c, Fn::ReadFile, h, buf.addr, size, n_out.addr, 0), 1u);
    read_back = mem.read_bytes(buf, mem.read_u32(n_out));
    (void)co_await k.call(c, Fn::CloseHandle, h);
  });
  EXPECT_EQ(read_back, "file contents here");
}

TEST(Kernel, CorruptedSleepParameterHangsThread) {
  World w;
  bool reached_end = false;
  w.m.register_program("test.exe", [&](Ctx c) -> sim::Task {
    // Sleep with all bits set = INFINITE: the thread hangs forever.
    (void)co_await c.m().k32().call(c, Fn::Sleep, 0xFFFFFFFF);
    reached_end = true;
  });
  const Pid pid = w.m.start_process("test.exe", "test.exe");
  w.simu.run_until(w.simu.now() + Duration::seconds(3600));
  EXPECT_FALSE(reached_end);
  EXPECT_TRUE(w.m.alive(pid));  // hung, not dead
}

TEST(Kernel, MutexAbandonedOnCrash) {
  World w;
  Word wait_result = 0;
  w.m.register_program("holder.exe", [](Ctx c) -> sim::Task {
    auto& k = c.m().k32();
    const Ptr name = c.process->mem().alloc_cstr("Global\\TestMutex");
    (void)co_await k.call(c, Fn::CreateMutexA, 0, 1, name.addr);
    co_await sleep_in_sim(c, Duration::millis(100));
    throw AccessViolation{0xBAD, false};  // crash while holding the mutex
  });
  run_program(w, [&](Ctx c) -> sim::Task {
    auto& k = c.m().k32();
    c.m().start_process("holder.exe", "holder.exe");
    co_await sleep_in_sim(c, Duration::millis(20));
    const Ptr name = c.process->mem().alloc_cstr("Global\\TestMutex");
    const Word h = co_await k.call(c, Fn::OpenMutexA, 0, 0, name.addr);
    EXPECT_NE(h, 0u);
    wait_result = co_await k.call(c, Fn::WaitForSingleObject, h, 10000);
  });
  EXPECT_EQ(wait_result, kWaitAbandoned);
}

TEST(Kernel, TlsPerThreadValues) {
  World w;
  Word main_val = 0, thread_val = 0;
  run_program(w, [&](Ctx c) -> sim::Task {
    auto& k = c.m().k32();
    const Word slot = co_await k.call(c, Fn::TlsAlloc);
    (void)co_await k.call(c, Fn::TlsSetValue, slot, 111);
    const Word done = co_await k.call(c, Fn::CreateEventA, 0, 1, 0, 0);
    const Word routine = c.process->register_routine(
        [&, slot, done](Ctx tc, Word) -> sim::Task {
          auto& tk = tc.m().k32();
          (void)co_await tk.call(tc, Fn::TlsSetValue, slot, 222);
          thread_val = co_await tk.call(tc, Fn::TlsGetValue, slot);
          (void)co_await tk.call(tc, Fn::SetEvent, done);
        });
    (void)co_await k.call(c, Fn::CreateThread, 0, 0, routine, 0, 0, 0);
    (void)co_await k.call(c, Fn::WaitForSingleObject, done, kInfinite);
    main_val = co_await k.call(c, Fn::TlsGetValue, slot);
  });
  EXPECT_EQ(main_val, 111u);
  EXPECT_EQ(thread_val, 222u);
}

// ---------------------------------------------------------------- SCM

struct ScmWorld : World {
  ScmWorld() {
    m.register_program("svc.exe", [](Ctx c) -> sim::Task {
      co_await sleep_in_sim(c, Duration::millis(500));  // init work
      c.m().scm().set_service_status(c.process->pid(), ServiceState::kRunning);
      co_await sleep_in_sim(c, Duration::seconds(1000000));  // serve forever
    });
    m.scm().register_service(ServiceConfig{
        .name = "TestSvc",
        .image = "svc.exe",
        .command_line = "svc.exe",
        .start_wait_hint = Duration::seconds(30),
    });
  }
};

TEST(Scm, StartReachesRunning) {
  ScmWorld w;
  EXPECT_EQ(w.m.scm().start_service("TestSvc"), Win32Error::kSuccess);
  EXPECT_EQ(w.m.scm().query("TestSvc")->state, ServiceState::kStartPending);
  EXPECT_TRUE(w.m.scm().database_locked());
  w.simu.run_until(w.simu.now() + Duration::seconds(2));
  EXPECT_EQ(w.m.scm().query("TestSvc")->state, ServiceState::kRunning);
  EXPECT_FALSE(w.m.scm().database_locked());
  EXPECT_EQ(w.m.scm().starts(), 1u);
}

TEST(Scm, StartWhileLockedIsDenied) {
  ScmWorld w;
  w.m.scm().register_service(ServiceConfig{"Other", "svc.exe", "svc.exe",
                                           Duration::seconds(30)});
  EXPECT_EQ(w.m.scm().start_service("TestSvc"), Win32Error::kSuccess);
  // While TestSvc is StartPending, the database is locked for everyone.
  EXPECT_EQ(w.m.scm().start_service("Other"), Win32Error::kServiceDatabaseLocked);
  EXPECT_EQ(w.m.scm().start_service("TestSvc"), Win32Error::kServiceDatabaseLocked);
  w.simu.run_until(w.simu.now() + Duration::seconds(2));
  EXPECT_EQ(w.m.scm().start_service("Other"), Win32Error::kSuccess);
}

TEST(Scm, CrashWhileRunningDropsToStopped) {
  ScmWorld w;
  w.m.scm().start_service("TestSvc");
  w.simu.run_until(w.simu.now() + Duration::seconds(2));
  const Pid pid = w.m.scm().query("TestSvc")->pid;
  w.m.request_process_exit(pid, kExitCodeAccessViolation, "injected crash");
  w.simu.run_until(w.simu.now() + Duration::millis(10));
  EXPECT_EQ(w.m.scm().query("TestSvc")->state, ServiceState::kStopped);
  // The crash is visible in the event log.
  EXPECT_EQ(w.m.event_log().count("Service Control Manager", 7031), 1u);
}

TEST(Scm, DeathDuringStartPendingHoldsLockUntilHintExpires) {
  // The paper's key SCM behaviour: a service dying right after start leaves
  // the SCM in StartPending (database locked) until the wait hint expires.
  ScmWorld w;
  w.m.register_program("dies.exe", [](Ctx c) -> sim::Task {
    co_await sleep_in_sim(c, Duration::millis(50));
    throw AccessViolation{0xBAD, false};
  });
  w.m.scm().register_service(ServiceConfig{"Dies", "dies.exe", "dies.exe",
                                           Duration::seconds(30)});
  EXPECT_EQ(w.m.scm().start_service("Dies"), Win32Error::kSuccess);
  w.simu.run_until(w.simu.now() + Duration::seconds(5));
  // Process is long dead, but the SCM still says StartPending and the
  // database stays locked.
  EXPECT_EQ(w.m.scm().query("Dies")->state, ServiceState::kStartPending);
  EXPECT_TRUE(w.m.scm().database_locked());
  EXPECT_EQ(w.m.scm().start_service("Dies"), Win32Error::kServiceDatabaseLocked);
  // After the wait hint, the service drops to Stopped and the lock clears.
  w.simu.run_until(w.simu.now() + Duration::seconds(30));
  EXPECT_EQ(w.m.scm().query("Dies")->state, ServiceState::kStopped);
  EXPECT_FALSE(w.m.scm().database_locked());
  EXPECT_EQ(w.m.scm().start_service("Dies"), Win32Error::kSuccess);
}

TEST(Scm, HungStartIsKilledAtDeadline) {
  ScmWorld w;
  w.m.register_program("hang.exe", [](Ctx c) -> sim::Task {
    co_await sleep_in_sim(c, Duration::seconds(1000000));  // never reports
  });
  w.m.scm().register_service(ServiceConfig{"Hang", "hang.exe", "hang.exe",
                                           Duration::seconds(10)});
  w.m.scm().start_service("Hang");
  w.simu.run_until(w.simu.now() + Duration::seconds(15));
  EXPECT_EQ(w.m.scm().query("Hang")->state, ServiceState::kStopped);
  EXPECT_EQ(w.m.live_processes(), 0u);
}

TEST(Scm, ControlStopStopsService) {
  ScmWorld w;
  w.m.scm().start_service("TestSvc");
  w.simu.run_until(w.simu.now() + Duration::seconds(2));
  EXPECT_EQ(w.m.scm().control_stop("TestSvc"), Win32Error::kSuccess);
  w.simu.run_until(w.simu.now() + Duration::millis(100));
  EXPECT_EQ(w.m.scm().query("TestSvc")->state, ServiceState::kStopped);
  EXPECT_EQ(w.m.scm().control_stop("TestSvc"), Win32Error::kServiceNotActive);
}

TEST(Scm, QueryExposesProcessWhileAlive) {
  ScmWorld w;
  w.m.scm().start_service("TestSvc");
  w.simu.run_until(w.simu.now() + Duration::millis(100));
  auto st = w.m.scm().query("TestSvc");
  ASSERT_TRUE(st);
  EXPECT_NE(st->process, nullptr);  // alive: handle available
  w.m.request_process_exit(st->pid, 1, "test kill");
  w.simu.run_until(w.simu.now() + Duration::millis(10));
  EXPECT_EQ(w.m.scm().query("TestSvc")->process, nullptr);  // dead: no handle
}

// ------------------------------------------------------------ in-place sleeps

// A sleep whose wake no queued event precedes finishes in place: the clock
// moves to the wake, its timer and resume count as processed events, and
// nothing is queued (sim::Simulation::advance_in_place). Everything a run
// computes must stay as with every sleep queued, which a plain step() loop
// guarantees.

struct LogEntry {
  std::int64_t at_us = 0;
  int action = 0;
  std::int64_t result = 0;
  friend bool operator==(const LogEntry&, const LogEntry&) = default;
};

/// Threads on machine "a" sleep, make KERNEL32 calls, signal and wait with
/// timeouts on a shared auto-reset event, and exchange data with an echo
/// server on machine "b"; each logs (time, action, result). The last thread
/// sleeps past kChunkEnd, then sets `finished` the way a client does.
struct RandomWorld {
  static constexpr int kWorkers = 5;
  static constexpr std::uint16_t kPort = 80;
  static constexpr sim::TimePoint kChunkEnd = sim::TimePoint::from_micros(20'000);

  explicit RandomWorld(std::uint64_t seed) : simu(seed), seed(seed) {}

  sim::Simulation simu;
  std::uint64_t seed;
  net::Network net{simu};
  Machine a{simu, MachineConfig{.name = "a", .cpu_scale = 1.0, .jitter = 0.3}};
  Machine b{simu, MachineConfig{.name = "b", .cpu_scale = 0.5}};
  std::shared_ptr<EventObject> ev = std::make_shared<EventObject>(simu, false, false);
  std::vector<std::vector<LogEntry>> logs =
      std::vector<std::vector<LogEntry>>(kWorkers + 1);
  bool finished = false;
};

sim::Task echo_thread(Ctx c, std::shared_ptr<net::Socket> sock) {
  auto msg = co_await sock->recv(c, 1 << 16, Duration::millis(5));
  if (msg && !msg->empty()) {
    co_await sleep_in_sim(c, Duration::micros(30));
    sock->send(*msg);
  }
  sock->close();
}

sim::Task echo_server(Ctx c, net::Network* net) {
  auto listener = net->listen("b", RandomWorld::kPort);
  for (;;) {
    auto sock = co_await listener->accept(c);
    if (sock == nullptr) co_return;
    c.proc().spawn_thread([sock](Ctx tc) { return echo_thread(tc, sock); });
  }
}

sim::Task random_thread(Ctx c, RandomWorld* w, int index) {
  sim::Rng rng(w->seed * 131 + static_cast<std::uint64_t>(index));
  sim::Simulation& s = c.m().sim();
  std::vector<LogEntry>& log = w->logs[static_cast<std::size_t>(index)];
  const auto note = [&](int action, std::int64_t result) {
    log.push_back({(s.now() - sim::TimePoint{}).count_micros(), action, result});
  };
  const bool finisher = index == RandomWorld::kWorkers;
  if (finisher) {
    co_await sleep_in_sim(c, RandomWorld::kChunkEnd - s.now() + Duration::millis(1));
    note(-1, c.thread().current_wait == nullptr);
  }
  const int actions = finisher ? 30 : 150;
  for (int i = 0; i < actions; ++i) {
    const int action = static_cast<int>(rng.uniform(0, 5));
    switch (action) {
      case 0:
        co_await sleep_in_sim(c, Duration::micros(rng.uniform(0, 400)));
        note(action, c.thread().current_wait == nullptr);
        break;
      case 1:
        note(action, co_await c.m().k32().call(c, Fn::GetCurrentProcessId));
        break;
      case 2:
        w->ev->set();
        note(action, 0);
        break;
      case 3:
        note(action, co_await wait_on_object(c, w->ev, static_cast<Dword>(rng.uniform(0, 3))));
        break;
      case 4: {
        auto sock = co_await w->net.connect(c, "b", RandomWorld::kPort);
        if (sock == nullptr) {
          note(action, -2);
          break;
        }
        sock->send(std::string(static_cast<std::size_t>(rng.uniform(1, 3000)), 'x'));
        auto reply = co_await sock->recv_exactly(c, 1, Duration::millis(10));
        note(action, reply ? static_cast<std::int64_t>(reply->size()) : -1);
        break;
      }
      default:
        co_await sleep_in_sim(c, Duration::micros(rng.uniform(1000, 5000)));
        note(action, c.thread().current_wait == nullptr);
        break;
    }
  }
  if (finisher) {
    w->finished = true;
    s.hold();
    co_await sleep_in_sim(c, Duration::micros(1));  // after hold: queues
    note(-2, c.thread().current_wait == nullptr);
  }
}

struct Driven {
  std::vector<std::vector<LogEntry>> logs;
  sim::TimePoint now;
  std::uint64_t events = 0;
  std::uint64_t loop_steps = 0;  // events the capped loop popped itself
  bool finished = false;
};

/// Runs the world to `cap` with the capped loop of a fault-injection run
/// (stop once finished, at the cap, or when the queue drains). The queued
/// reference drives it with step(); otherwise run_until covers
/// [0, kChunkEnd] in two chunks and step_before(cap) the rest.
Driven drive_random_world(std::uint64_t seed, sim::TimePoint cap, bool in_place) {
  RandomWorld w(seed);
  w.b.register_program("echo.exe", [net = &w.net](Ctx c) { return echo_server(c, net); });
  w.a.register_program("workers.exe", [&w](Ctx c) -> sim::Task {
    for (int i = 0; i <= RandomWorld::kWorkers; ++i) {
      c.proc().spawn_thread([&w, i](Ctx tc) { return random_thread(tc, &w, i); });
    }
    co_return;
  });
  w.b.start_process("echo.exe", "echo.exe");
  w.a.start_process("workers.exe", "workers.exe");
  Driven d;
  if (in_place) {
    w.simu.run_until(RandomWorld::kChunkEnd + Duration::millis(-12));
    w.simu.run_until(RandomWorld::kChunkEnd);
    EXPECT_FALSE(w.finished);
  }
  while (!w.finished && w.simu.now() < cap && w.simu.pending_events() > 0) {
    if (in_place) {
      w.simu.step_before(cap);
    } else {
      w.simu.step();
    }
    ++d.loop_steps;
  }
  d.logs = w.logs;
  d.now = w.simu.now();
  d.events = w.simu.events_processed();
  d.finished = w.finished;
  return d;
}

TEST(SleepInPlace, RandomWorldRunsAsWithEverySleepQueued) {
  sim::Rng caps(2026);
  int finished_runs = 0;
  std::size_t sleeps = 0;
  std::uint64_t pops_saved = 0;
  for (std::uint64_t seed = 1; seed <= 24; ++seed) {
    const sim::TimePoint cap =
        RandomWorld::kChunkEnd + Duration::micros(caps.uniform(1'000, 150'000));
    const Driven queued = drive_random_world(seed, cap, false);
    const Driven in_place = drive_random_world(seed, cap, true);
    ASSERT_EQ(in_place.logs, queued.logs) << "seed " << seed;
    EXPECT_EQ(in_place.now, queued.now) << "seed " << seed;
    EXPECT_EQ(in_place.events, queued.events) << "seed " << seed;
    EXPECT_EQ(in_place.finished, queued.finished) << "seed " << seed;
    // Fewer pops: sleeps after kChunkEnd finished in place too.
    EXPECT_LT(in_place.loop_steps, queued.loop_steps) << "seed " << seed;
    pops_saved += queued.loop_steps - in_place.loop_steps;
    for (const auto& log : queued.logs) {
      for (const LogEntry& e : log) {
        if (e.action == 0 || e.action == 5 || e.action < 0) {
          ++sleeps;
          EXPECT_EQ(e.result, 1) << "a sleep left current_wait set, seed " << seed;
        }
      }
    }
    finished_runs += queued.finished ? 1 : 0;
  }
  EXPECT_GT(sleeps, 1000u);
  EXPECT_GT(pops_saved, 2000u);
  // Both ways out of the loop are covered: finished before the cap, and cut
  // at the cap.
  EXPECT_GT(finished_runs, 0);
  EXPECT_LT(finished_runs, 24);
}

/// One program on a fresh machine, driven by the capped loop with step()
/// (every sleep queued) or step_before(cap); it logs instants in µs.
struct SleeperRun {
  std::vector<std::int64_t> log;
  sim::TimePoint now;
  std::uint64_t events = 0;
  int pops = 0;
  bool threw = false;
  friend bool operator==(const SleeperRun&, const SleeperRun&) = default;
};

using Sleeper = std::function<sim::Task(Ctx, std::vector<std::int64_t>*)>;

std::int64_t now_us(Ctx c) { return (c.m().sim().now() - sim::TimePoint{}).count_micros(); }

SleeperRun run_sleeper(const Sleeper& body, bool step_before, sim::TimePoint cap,
                       std::uint64_t budget = 50'000'000) {
  World w;
  w.simu.set_event_budget(budget);
  SleeperRun r;
  w.m.register_program("sleeper.exe", [&body, &r](Ctx c) { return body(c, &r.log); });
  w.m.start_process("sleeper.exe", "sleeper.exe");
  try {
    while (w.simu.now() < cap && w.simu.pending_events() > 0) {
      if (step_before) {
        w.simu.step_before(cap);
      } else {
        w.simu.step();
      }
      ++r.pops;
    }
  } catch (const sim::SimBudgetExhausted&) {
    r.threw = true;
  }
  r.now = w.simu.now();
  r.events = w.simu.events_processed();
  return r;
}

TEST(SleepInPlace, EventQueuedAtTheWakeInstantRunsFirst) {
  const Sleeper body = [](Ctx c, std::vector<std::int64_t>* log) -> sim::Task {
    c.m().sim().schedule(Duration::micros(100), [log] { log->push_back(-1); });
    co_await sleep_in_sim(c, Duration::micros(100));
    log->push_back(now_us(c));
  };
  const sim::TimePoint cap = sim::TimePoint{} + Duration::seconds(1);
  const SleeperRun queued = run_sleeper(body, false, cap);
  const SleeperRun in_place = run_sleeper(body, true, cap);
  ASSERT_EQ(queued.log.size(), 2u);
  EXPECT_EQ(queued.log[0], -1);
  EXPECT_EQ(in_place, queued);
}

TEST(SleepInPlace, BudgetShortOfBothEventsThrowsAtTheSameEvent) {
  const Sleeper body = [](Ctx c, std::vector<std::int64_t>* log) -> sim::Task {
    for (int i = 0; i < 40; ++i) {
      co_await sleep_in_sim(c, Duration::micros(10));
      log->push_back(now_us(c));
    }
  };
  const sim::TimePoint cap = sim::TimePoint{} + Duration::seconds(1);
  for (std::uint64_t budget = 1; budget <= 30; ++budget) {
    const SleeperRun queued = run_sleeper(body, false, cap, budget);
    const SleeperRun in_place = run_sleeper(body, true, cap, budget);
    EXPECT_TRUE(queued.threw) << "budget " << budget;
    EXPECT_EQ(in_place.log, queued.log) << "budget " << budget;
    EXPECT_EQ(in_place.now, queued.now) << "budget " << budget;
    EXPECT_EQ(in_place.events, queued.events) << "budget " << budget;
    EXPECT_EQ(in_place.threw, queued.threw) << "budget " << budget;
    EXPECT_EQ(in_place.events, budget + 1) << "budget " << budget;
  }
}

TEST(SleepInPlace, StepBeforeFinishesWakesBeforeTheCapOnly) {
  const sim::TimePoint cap = sim::TimePoint{} + Duration::millis(10);
  for (const std::int64_t offset : {-1, 0}) {
    const Sleeper body = [cap, offset](Ctx c, std::vector<std::int64_t>* log) -> sim::Task {
      co_await sleep_in_sim(c, cap - c.m().sim().now() + Duration::micros(offset));
      log->push_back(now_us(c));
      co_await sleep_in_sim(c, Duration::millis(1));
      log->push_back(now_us(c));
    };
    const SleeperRun queued = run_sleeper(body, false, cap);
    const SleeperRun in_place = run_sleeper(body, true, cap);
    EXPECT_EQ(in_place.log, queued.log) << "offset " << offset;
    EXPECT_EQ(in_place.now, queued.now) << "offset " << offset;
    EXPECT_EQ(in_place.events, queued.events) << "offset " << offset;
    // A wake at cap - 1 us finishes in place; a wake at the cap runs its
    // timer, ending the loop before the resume, as when queued.
    EXPECT_EQ(in_place.pops, queued.pops - (offset < 0 ? 2 : 0)) << "offset " << offset;
    EXPECT_EQ(queued.log.size(), offset < 0 ? 1u : 0u) << "offset " << offset;
  }
}

TEST(SleepInPlace, RunUntilFinishesAWakeAtItsHorizon) {
  World w;
  const sim::TimePoint t = sim::TimePoint{} + Duration::millis(10);
  std::vector<std::int64_t> log;
  bool wait_cleared = false;
  w.m.register_program("sleeper.exe", [&](Ctx c) -> sim::Task {
    (void)make_wait(c);  // a registered wait the thread never awaits
    co_await sleep_in_sim(c, t - c.m().sim().now());
    log.push_back(now_us(c));
    wait_cleared = c.thread().current_wait == nullptr;  // as after a resume
    co_await sleep_in_sim(c, Duration::micros(1));
    log.push_back(now_us(c));
  });
  w.m.start_process("sleeper.exe", "sleeper.exe");
  w.simu.run_until(t);
  EXPECT_EQ(log, (std::vector<std::int64_t>{10'000}));
  EXPECT_TRUE(wait_cleared);
  EXPECT_EQ(w.simu.now(), t);
  EXPECT_EQ(w.simu.pending_events(), 1u);  // the second sleep's timer
  const std::uint64_t events = w.simu.events_processed();
  w.simu.run_until(t + Duration::micros(1));
  EXPECT_EQ(log, (std::vector<std::int64_t>{10'000, 10'001}));
  // The queued sleep's timer and resume, and the reap of the exited thread.
  EXPECT_EQ(w.simu.events_processed(), events + 3);
}

TEST(SleepInPlace, HoldQueuesTheRestOfTheEvent) {
  const Sleeper body = [](Ctx c, std::vector<std::int64_t>* log) -> sim::Task {
    co_await sleep_in_sim(c, Duration::micros(10));
    log->push_back(now_us(c));
    c.m().sim().hold();
    co_await sleep_in_sim(c, Duration::micros(10));  // queued
    log->push_back(now_us(c));
    co_await sleep_in_sim(c, Duration::micros(10));  // a new event: in place
    log->push_back(now_us(c));
  };
  const sim::TimePoint cap = sim::TimePoint{} + Duration::seconds(1);
  const SleeperRun queued = run_sleeper(body, false, cap);
  const SleeperRun in_place = run_sleeper(body, true, cap);
  EXPECT_EQ(in_place.log, queued.log);
  EXPECT_EQ(in_place.now, queued.now);
  EXPECT_EQ(in_place.events, queued.events);
  EXPECT_EQ(in_place.pops, queued.pops - 4);

  World w;
  std::vector<std::int64_t> log;
  w.m.register_program("sleeper.exe", [&body, &log](Ctx c) { return body(c, &log); });
  w.m.start_process("sleeper.exe", "sleeper.exe");
  while (log.empty()) ASSERT_TRUE(w.simu.step_before(cap));
  // The event that finished the first sleep in place queued the second.
  EXPECT_EQ(log.size(), 1u);
  EXPECT_EQ(w.simu.pending_events(), 1u);
}

}  // namespace
}  // namespace dts::nt
