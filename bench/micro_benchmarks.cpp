// Engineering microbenchmarks (google-benchmark): throughput of the
// simulation substrate and end-to-end run latency. Includes the DESIGN.md
// ablation: syscall dispatch with and without the interception hook.
#include <benchmark/benchmark.h>

#include <array>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "apps/sql_engine.h"
#include "apps/http.h"
#include "core/campaign.h"
#include "core/config.h"
#include "inject/interceptor.h"
#include "ntsim/kernel.h"
#include "ntsim/kernel32.h"

namespace {

using namespace dts;

void BM_SimEventThroughput(benchmark::State& state) {
  for (auto _ : state) {
    sim::Simulation simu;
    int fired = 0;
    for (int i = 0; i < 10000; ++i) {
      simu.schedule(sim::Duration::micros(i), [&fired] { ++fired; });
    }
    simu.run();
    benchmark::DoNotOptimize(fired);
  }
  state.SetItemsProcessed(state.iterations() * 10000);
}
BENCHMARK(BM_SimEventThroughput);

/// The wake path: one simulated thread looping a 1 us sleep. Each iteration
/// is a wake token, a timer event that wakes it and the resume event.
void BM_SimSleepWake(benchmark::State& state) {
  sim::Simulation simu;
  nt::Machine m{simu, nt::MachineConfig{}};
  std::uint64_t sleeps = 0;
  m.register_program("bench.exe", [&](nt::Ctx c) -> sim::Task {
    for (;;) {
      co_await nt::sleep_in_sim(c, sim::Duration::micros(1));
      ++sleeps;
    }
  });
  m.start_process("bench.exe", "bench.exe");
  for (auto _ : state) {
    const std::uint64_t before = sleeps;
    while (sleeps < before + 1000) simu.step();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 1000);
}
BENCHMARK(BM_SimSleepWake);

/// Same-instant wakes: two simulated threads hand the turn back and forth
/// without simulated time passing, so every event is the resume hop of a
/// wake at the current instant (the event queue's FIFO lane), and every
/// wait takes a fresh token from nt::make_wait.
void BM_SimSameInstantWakes(benchmark::State& state) {
  sim::Simulation simu;
  nt::Machine m{simu, nt::MachineConfig{}};
  std::uint64_t hops = 0;
  std::array<sim::WakePtr, 2> waiting;
  const auto player = [&simu, &hops, &waiting](int me) {
    return [&simu, &hops, &waiting, me](nt::Ctx c) -> sim::Task {
      for (;;) {
        waiting[me] = nt::make_wait(c);
        const sim::WakePtr mine = waiting[me];
        sim::wake(simu, waiting[1 - me], sim::WakeReason::kSignaled);
        co_await nt::await_token(c, mine, std::nullopt);
        ++hops;
      }
    };
  };
  m.register_program("ping.exe", player(0));
  m.register_program("pong.exe", player(1));
  m.start_process("ping.exe", "ping.exe");
  m.start_process("pong.exe", "pong.exe");
  for (auto _ : state) {
    const std::uint64_t before = hops;
    while (hops < before + 1000) simu.step();
  }
  benchmark::DoNotOptimize(hops);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 1000);
}
BENCHMARK(BM_SimSameInstantWakes);

/// Alloc/write/read/free cycles. The bump allocator never reuses a freed
/// range (simulated addresses decide pointer-corruption outcomes), so one
/// address space would run out after ~490k cycles: each iteration runs a
/// fixed batch in a fresh one instead.
void BM_VirtualMemoryAllocFree(benchmark::State& state) {
  constexpr int kBatch = 1024;
  for (auto _ : state) {
    nt::VirtualMemory vm;
    for (int i = 0; i < kBatch; ++i) {
      nt::Ptr p = vm.alloc(256);
      vm.write_u32(p, 42);
      benchmark::DoNotOptimize(vm.read_u32(p));
      vm.free(p);
    }
  }
  state.SetItemsProcessed(state.iterations() * kBatch);
}
BENCHMARK(BM_VirtualMemoryAllocFree);

/// read_cstr of path-sized strings among a run's worth of live blocks: one
/// block lookup plus the scan for the NUL.
void BM_VirtualMemoryReadCstr(benchmark::State& state) {
  constexpr std::size_t kStrings = 256;
  nt::VirtualMemory vm;
  std::vector<nt::Ptr> strings;
  for (std::size_t i = 0; i < kStrings; ++i) {
    strings.push_back(
        vm.alloc_cstr("C:\\inetpub\\wwwroot\\docs\\page" + std::to_string(i) + ".html"));
  }
  std::size_t k = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(vm.read_cstr(strings[k++ % kStrings]));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_VirtualMemoryReadCstr);

/// Ablation: cost of a syscall through the dispatcher, with and without the
/// DTS interception hook installed (the paper's LCI layer).
void BM_SyscallDispatch(benchmark::State& state) {
  const bool hooked = state.range(0) != 0;
  sim::Simulation simu;
  nt::Machine m{simu, nt::MachineConfig{}};
  inject::Interceptor icept;
  if (hooked) m.k32().set_hook(&icept);

  std::uint64_t calls = 0;
  m.register_program("bench.exe", [&](nt::Ctx c) -> sim::Task {
    for (;;) {
      (void)co_await c.m().k32().call(c, nt::Fn::GetCurrentProcessId);
      ++calls;
    }
  });
  m.start_process("bench.exe", "bench.exe");
  for (auto _ : state) {
    const std::uint64_t before = calls;
    while (calls < before + 1000) simu.step();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 1000);
  state.SetLabel(hooked ? "interception on" : "interception off");
}
BENCHMARK(BM_SyscallDispatch)->Arg(0)->Arg(1);

/// The hooked dispatch above driven by run_until instead of step(): with
/// nothing else queued, each call's base-cost sleep finishes in place (no
/// wake token, timer or resume; DESIGN decision 24). BM_SyscallDispatch/1
/// is the same loop with every sleep queued.
void BM_HookedCallsInPlace(benchmark::State& state) {
  sim::Simulation simu;
  nt::Machine m{simu, nt::MachineConfig{}};
  inject::Interceptor icept;
  m.k32().set_hook(&icept);

  std::uint64_t calls = 0;
  m.register_program("bench.exe", [&](nt::Ctx c) -> sim::Task {
    for (;;) {
      (void)co_await c.m().k32().call(c, nt::Fn::GetCurrentProcessId);
      ++calls;
    }
  });
  m.start_process("bench.exe", "bench.exe");
  const std::uint64_t first = calls;
  for (auto _ : state) {
    // About 1,000 calls of 40 us each; the one whose wake crosses the
    // horizon queues.
    simu.run_until(simu.now() + sim::Duration::millis(40));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(calls - first));
  state.SetLabel("interception on, in place");
}
BENCHMARK(BM_HookedCallsInPlace);

void BM_HttpParse(benchmark::State& state) {
  const std::string raw =
      "GET /cgi-bin/test.cgi?id=42 HTTP/1.0\r\nHost: target\r\n"
      "User-Agent: DTS-HttpClient\r\nAccept: */*\r\n\r\n";
  for (auto _ : state) {
    benchmark::DoNotOptimize(apps::http::parse_request(raw));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HttpParse);

void BM_SqlSelect(benchmark::State& state) {
  apps::sql::Database db;
  apps::sql::execute(db, "CREATE TABLE t (id INT, name TEXT)");
  for (int i = 0; i < 1000; ++i) {
    apps::sql::execute(db, "INSERT INTO t VALUES (" + std::to_string(i) + ", 'row')");
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(apps::sql::execute(db, "SELECT name FROM t WHERE id = 500"));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SqlSelect);

/// End-to-end: one complete fault-free Apache run (world build, service
/// start, two HTTP requests, teardown).
void BM_FullRunApacheFaultFree(benchmark::State& state) {
  std::uint64_t seed = 1;
  for (auto _ : state) {
    core::RunConfig cfg;
    cfg.workload = core::workload_by_name("Apache1");
    cfg.seed = seed++;
    benchmark::DoNotOptimize(core::execute_run(cfg, std::nullopt));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FullRunApacheFaultFree)->Unit(benchmark::kMillisecond);

/// End-to-end: one complete fault-free three-tier run, as in the
/// `exhaustive` benchmark's three-tier set (2 Apache web instances, 2 IIS app
/// instances and one SQL Server behind balancers, 12 requests, request
/// traces under `failures`): the request path through relays and balancers.
void BM_FullRunThreeTierFaultFree(benchmark::State& state) {
  std::string error;
  const auto cfg = core::parse_config(
      "[test]\nmiddleware = none\nseed = 4099\n"
      "[topology]\ntopology = lb:2*apache -> app:2*iis -> db:1*sql_server\n"
      "tier = app\nrtrace = failures\n",
      &error);
  if (!cfg) {
    state.SkipWithError(error.c_str());
    return;
  }
  std::uint64_t seed = 1;
  for (auto _ : state) {
    core::RunConfig run = cfg->run;
    run.seed = seed++;
    benchmark::DoNotOptimize(core::execute_run(run, std::nullopt));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FullRunThreeTierFaultFree)->Unit(benchmark::kMillisecond);

/// End-to-end: one injected run that crashes IIS during init (the expensive
/// failure path: client retries against a dead server).
void BM_FullRunIisInitCrash(benchmark::State& state) {
  auto spec = inject::parse_fault_id("inetinfo.exe", "GetStartupInfoA.lpStartupInfo#1:flip");
  std::uint64_t seed = 1;
  for (auto _ : state) {
    core::RunConfig cfg;
    cfg.workload = core::workload_by_name("IIS");
    cfg.seed = seed++;
    benchmark::DoNotOptimize(core::execute_run(cfg, *spec));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FullRunIisInitCrash)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
