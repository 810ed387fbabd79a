// micro_dist_overhead — guards the distributed subsystem's two claims:
//
//  1. Correctness: a coordinator + 1 local worker process produces output
//     byte-identical to the in-process `--jobs=1` executor over the same
//     campaign, and its metrics come from the records it accepted: the
//     dts_runs_total series and the Chrome trace's run events each add up to
//     the executed runs exactly (exits 1 on any divergence).
//  2. Cost: reports the wire overhead — wall-clock ratio distributed/serial
//     for a single worker (the distributed path adds fork, TCP loopback
//     round-trips, JSON encode/decode and journal-equivalent bookkeeping on
//     top of the same simulations) plus protocol bytes per run.
//
// The overhead figure is informational, not asserted: it is dominated by
// per-lease round-trip latency, which shrinks as runs get longer — the
// campaigns worth distributing are exactly the ones where it vanishes.
//
// Environment knobs:
//   DTS_BENCH_TRIALS     rounds (default 5; median reported)
//   DTS_BENCH_FAULT_CAP  faults in the measured campaign (default 64)
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "core/campaign.h"
#include "dist/coordinator.h"
#include "exec/executor.h"
#include "obs/metrics.h"

namespace {

using namespace dts;

constexpr std::uint64_t kSeed = 7;

std::size_t trials() {
  const char* v = std::getenv("DTS_BENCH_TRIALS");
  const std::size_t n = v != nullptr ? std::strtoull(v, nullptr, 10) : 5;
  return n == 0 ? 1 : n;
}

std::size_t fault_cap() {
  const char* v = std::getenv("DTS_BENCH_FAULT_CAP");
  const std::size_t n = v != nullptr ? std::strtoull(v, nullptr, 10) : 64;
  return n == 0 ? 64 : n;
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

std::vector<std::string> run_lines(const std::vector<core::RunResult>& runs) {
  std::vector<std::string> out;
  out.reserve(runs.size());
  for (const auto& r : runs) out.push_back(core::serialize_run_line(r));
  return out;
}

std::uint64_t runs_total(const obs::MetricsRegistry& metrics) {
  std::uint64_t total = 0;
  for (const obs::MetricSample& s : metrics.snapshot()) {
    if (s.name == "dts_runs_total") total += s.counter_value;
  }
  return total;
}

std::uint64_t run_events(const obs::MetricsRegistry& metrics) {
  const std::string json = metrics.chrome_trace_json();
  const std::string needle = "\"cat\":\"run\"";
  std::uint64_t n = 0;
  for (std::size_t at = json.find(needle); at != std::string::npos;
       at = json.find(needle, at + needle.size())) {
    ++n;
  }
  return n;
}

}  // namespace

int main() {
  core::RunConfig cfg;
  cfg.workload = core::workload_by_name("Apache1");
  const auto fns = core::profile_workload(cfg, kSeed);
  const inject::FaultList list =
      inject::FaultList::for_functions(cfg.workload.target_image, fns)
          .sampled(fault_cap());
  std::printf("campaign: Apache1, %zu faults, coordinator + 1 worker process\n",
              list.faults.size());

  std::vector<double> serial_s, dist_s;
  std::uint64_t wire_bytes = 0;
  std::size_t executed = 0;
  for (std::size_t t = 0; t < trials(); ++t) {
    const auto s0 = std::chrono::steady_clock::now();
    exec::ExecOptions eo;
    eo.jobs = 1;
    const exec::CampaignResult serial = exec::CampaignExecutor(eo).run(cfg, list, kSeed);
    const std::chrono::duration<double> se = std::chrono::steady_clock::now() - s0;

    obs::MetricsRegistry metrics;
    core::CampaignOptions campaign;
    campaign.seed = kSeed;
    campaign.metrics = &metrics;
    dist::DistOptions d;
    d.spawn_workers = 1;
    const auto d0 = std::chrono::steady_clock::now();
    dist::Coordinator coordinator(campaign, d);
    const exec::CampaignResult distributed =
        exec::CampaignExecutor(campaign, {}, nullptr, &coordinator).run(cfg, list, kSeed);
    const std::chrono::duration<double> de = std::chrono::steady_clock::now() - d0;

    if (run_lines(distributed.runs) != run_lines(serial.runs)) {
      std::fprintf(stderr,
                   "FAIL: distributed output diverged from the serial baseline\n");
      return 1;
    }
    const std::uint64_t counted = runs_total(metrics);
    const std::uint64_t events = run_events(metrics);
    if (counted != distributed.executed || events != distributed.executed) {
      std::fprintf(stderr,
                   "FAIL: %zu runs executed, but dts_runs_total sums to %llu and the "
                   "trace holds %llu run events\n",
                   distributed.executed, static_cast<unsigned long long>(counted),
                   static_cast<unsigned long long>(events));
      return 1;
    }
    serial_s.push_back(se.count());
    dist_s.push_back(de.count());
    wire_bytes = metrics.counter("dts_dist_bytes_sent_total").value() +
                 metrics.counter("dts_dist_bytes_received_total").value();
    executed = distributed.executed;
    std::printf("round %2zu/%zu  serial %.3fs  distributed %.3fs (%+.1f%%)\n", t + 1,
                trials(), se.count(), de.count(),
                100.0 * (de.count() / se.count() - 1.0));
  }

  const double s = median(serial_s), d = median(dist_s);
  std::printf("median  serial %.3fs  distributed %.3fs  wire overhead %+.1f%%\n", s, d,
              100.0 * (d / s - 1.0));
  if (executed > 0) {
    std::printf("wire traffic: %llu bytes total, %.0f bytes per executed run\n",
                static_cast<unsigned long long>(wire_bytes),
                static_cast<double>(wire_bytes) / static_cast<double>(executed));
  }
  std::printf("PASS: coordinator + 1 worker byte-identical to --jobs=1, with every "
              "executed run counted and traced once\n");
  return 0;
}
