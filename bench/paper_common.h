// Environment knobs shared by the guard binaries (micro_*):
//   DTS_BENCH_FAULT_CAP  cap faults per workload set (0 = full sweep)
//   DTS_BENCH_SEED       campaign seed (default 7)
//   DTS_BENCH_METRICS_OUT  export the shared campaign-metrics registry as
//                        Prometheus text at this path (plus a Chrome trace
//                        at PATH.trace.json) when the harness exits; the
//                        same registry/export code path the ntdts CLI uses
#pragma once

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "obs/metrics.h"

namespace dts::bench {

inline std::size_t fault_cap() {
  const char* v = std::getenv("DTS_BENCH_FAULT_CAP");
  return v != nullptr ? static_cast<std::size_t>(std::strtoull(v, nullptr, 10)) : 0;
}

inline std::uint64_t bench_seed() {
  const char* v = std::getenv("DTS_BENCH_SEED");
  return v != nullptr ? std::strtoull(v, nullptr, 10) : 7;
}

/// One registry shared by every campaign a harness binary runs, so the
/// exported metrics aggregate the whole grid (same registry type the ntdts
/// CLI feeds). Exported at process exit when DTS_BENCH_METRICS_OUT is set.
inline obs::MetricsRegistry& bench_registry() {
  static obs::MetricsRegistry registry;
  static const bool export_at_exit = [] {
    if (std::getenv("DTS_BENCH_METRICS_OUT") != nullptr) {
      std::atexit([] {
        const char* path = std::getenv("DTS_BENCH_METRICS_OUT");
        std::string error;
        if (!obs::write_metrics_files(bench_registry(), path, &error)) {
          std::fprintf(stderr, "[metrics] %s\n", error.c_str());
        } else {
          std::fprintf(stderr, "[metrics] wrote %s and %s.trace.json\n", path, path);
        }
      });
    }
    return true;
  }();
  (void)export_at_exit;
  return registry;
}

}  // namespace dts::bench
