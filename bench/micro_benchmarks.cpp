// Engineering microbenchmarks (google-benchmark): throughput of the
// simulation substrate and end-to-end run latency. Includes the DESIGN.md
// ablation: syscall dispatch with and without the interception hook.
#include <benchmark/benchmark.h>

#include "apps/sql_engine.h"
#include "apps/http.h"
#include "core/campaign.h"
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
