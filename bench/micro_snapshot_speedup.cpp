// micro_snapshot_speedup — guards snapshot execution (DESIGN §snap) on two
// deep per-invocation sweeps (iterations=48):
//
//   1. Byte-identity: with snapshots on, each campaign serializes
//      byte-identical to the plain executor — the Apache1 sweep at --jobs=1
//      and --jobs=8, the planned Apache2 sweep at --jobs=2.
//   2. Speedup: on the exhaustive Apache1 sweep, snapshot execution reaches
//      >= 5x the plain executor's runs/sec (both at jobs=1 — the win is work
//      skipped per run, not parallelism, so it holds on one core).
//   3. No loss: on the planned Apache2 sweep (plan auto, jobs=2), snapshots
//      on is at most 15% slower than off.
//
// All are hard assertions; the binary exits 1 on violation. Timings are the
// median of alternating back-to-back rounds. The paper's I axis makes every
// campaign run replay one shared golden trajectory, and the deeper the sweep,
// the larger the share of faults the golden profile proves can never fire at
// all. The >= 5x floor comes from golden-tail synthesis alone: those runs are
// synthesized from one host golden run, and every other fault runs in full
// exactly as the plain executor runs it. A plan already prunes the
// never-firing faults, so on the planned sweep snapshot execution has nothing
// to skip and must cost nothing either.
//
// Environment knobs:
//   DTS_BENCH_TRIALS       timing rounds per sweep (default 3)
//   DTS_BENCH_FAULT_CAP    cap faults per campaign (default 0 = full sweep)
//   DTS_BENCH_SEED         campaign seed (default 7)
//   DTS_BENCH_METRICS_OUT  export the campaign-metrics registry (including
//                          the dts_snap_* counters) at exit
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "paper_common.h"
#include "core/campaign.h"

namespace {

using namespace dts;

std::size_t trials() {
  const char* v = std::getenv("DTS_BENCH_TRIALS");
  const std::size_t n = v != nullptr ? std::strtoull(v, nullptr, 10) : 3;
  return n == 0 ? 1 : n;
}

core::RunConfig config(const char* workload) {
  core::RunConfig cfg;
  cfg.workload = core::workload_by_name(workload);
  cfg.middleware = mw::MiddlewareKind::kNone;
  return cfg;
}

core::CampaignOptions base_options() {
  core::CampaignOptions opt;
  opt.seed = bench::bench_seed();
  opt.iterations = 48;
  opt.max_faults = bench::fault_cap();
  opt.metrics = &bench::bench_registry();
  return opt;
}

core::CampaignOptions planned_options() {
  core::CampaignOptions opt = base_options();
  opt.plan.mode = plan::PlanOptions::Mode::kAuto;
  return opt;
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

struct Timed {
  std::string output;
  std::size_t runs = 0;
  double seconds = 0.0;
};

Timed timed_campaign(const core::RunConfig& cfg, core::CampaignOptions opt, bool snapshots,
                     int jobs) {
  opt.snapshots = snapshots;
  opt.jobs = jobs;
  const auto start = std::chrono::steady_clock::now();
  const core::WorkloadSetResult set = core::run_workload_set(cfg, opt);
  const std::chrono::duration<double> elapsed = std::chrono::steady_clock::now() - start;
  return Timed{core::serialize_workload_set(set), set.runs.size(), elapsed.count()};
}

/// Median seconds of plain and snapshot campaigns over alternating
/// back-to-back rounds at `jobs`. False (after reporting) when a round's
/// outputs diverge.
bool time_rounds(const char* sweep, const core::RunConfig& cfg,
                 const core::CampaignOptions& opt, int jobs, double* plain_s,
                 double* snap_s) {
  std::vector<double> plain_times, snap_times;
  const std::size_t n = trials();
  for (std::size_t t = 0; t < n; ++t) {
    Timed plain, snapped;
    if (t % 2 == 0) {
      plain = timed_campaign(cfg, opt, false, jobs);
      snapped = timed_campaign(cfg, opt, true, jobs);
    } else {
      snapped = timed_campaign(cfg, opt, true, jobs);
      plain = timed_campaign(cfg, opt, false, jobs);
    }
    if (snapped.output != plain.output) {
      std::fprintf(stderr, "FAIL: %s diverged in timing round %zu\n", sweep, t + 1);
      return false;
    }
    plain_times.push_back(plain.seconds);
    snap_times.push_back(snapped.seconds);
    std::printf("%s round %2zu/%zu  plain %.3fs  snapshot %.3fs  (%.2fx)\n", sweep, t + 1, n,
                plain.seconds, snapped.seconds, plain.seconds / snapped.seconds);
  }
  *plain_s = median(plain_times);
  *snap_s = median(snap_times);
  return true;
}

}  // namespace

int main() {
  const core::RunConfig apache1 = config("Apache1");
  const core::RunConfig apache2 = config("Apache2");

  // Byte-identity first — a fast snapshot campaign with different bytes is
  // not a speedup, it is a bug.
  const Timed plain_ref = timed_campaign(apache1, base_options(), /*snapshots=*/false, 1);
  for (const int jobs : {1, 8}) {
    const Timed snap_run = timed_campaign(apache1, base_options(), /*snapshots=*/true, jobs);
    if (snap_run.output != plain_ref.output) {
      std::fprintf(stderr, "FAIL: snapshot campaign at jobs=%d diverged from plain jobs=1\n",
                   jobs);
      return 1;
    }
    std::printf("byte-identical at jobs=%d: ok (%zu runs)\n", jobs, snap_run.runs);
  }

  double plain_s = 0.0, snap_s = 0.0;
  if (!time_rounds("Apache1", apache1, base_options(), 1, &plain_s, &snap_s)) return 1;
  const double runs = static_cast<double>(plain_ref.runs);
  const double speedup = plain_s / snap_s;
  std::printf("Apache1 median-of-%zu  plain %.1f runs/s  snapshot %.1f runs/s  speedup %.2fx\n",
              trials(), runs / plain_s, runs / snap_s, speedup);
  if (speedup < 5.0) {
    std::fprintf(stderr, "FAIL: snapshot speedup %.2fx < 5x bar\n", speedup);
    return 1;
  }

  // The planned leg's rounds check byte-identity of every pair.
  double planned_plain_s = 0.0, planned_snap_s = 0.0;
  if (!time_rounds("Apache2 planned", apache2, planned_options(), 2, &planned_plain_s,
                   &planned_snap_s)) {
    return 1;
  }
  const double slowdown = planned_snap_s / planned_plain_s;
  std::printf("Apache2 planned median-of-%zu  plain %.3fs  snapshot %.3fs  (%.2fx the time)\n",
              trials(), planned_plain_s, planned_snap_s, slowdown);
  if (slowdown > 1.15) {
    std::fprintf(stderr, "FAIL: snapshots on the planned sweep take %.2fx the plain time > 1.15x\n",
                 slowdown);
    return 1;
  }
  std::printf("PASS: byte-identical, Apache1 %.2fx >= 5x, Apache2 planned %.2fx <= 1.15x\n",
              speedup, slowdown);
  return 0;
}
