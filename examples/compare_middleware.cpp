// Compares fault-tolerance middleware on one workload — the paper's core use
// case ("compare the reliability of ... fault tolerance middleware").
//
//   $ ./compare_middleware [workload] [faults-per-config]
//
// Runs a capped campaign for the chosen workload as a stand-alone service,
// under MSCS, and under each watchd version, then prints the outcome
// distribution table.
#include <cstdio>
#include <cstdlib>

#include "core/report.h"

int main(int argc, char** argv) {
  using namespace dts;

  const std::string workload = argc > 1 ? argv[1] : "SQL";
  const std::size_t cap = argc > 2 ? std::strtoull(argv[2], nullptr, 10) : 120;

  core::CampaignOptions options;
  options.seed = 7;
  options.max_faults = cap;
  options.on_snapshot = [](const exec::ProgressSnapshot& s) {
    if (s.done % 25 == 0 || s.done == s.total) {
      std::fprintf(stderr, "\r  %zu/%zu runs", s.done, s.total);
      if (s.done == s.total) std::fputc('\n', stderr);
    }
  };

  std::vector<core::WorkloadSetResult> sets;
  struct Config {
    mw::MiddlewareKind kind;
    mw::WatchdVersion version;
  };
  const Config configs[] = {
      {mw::MiddlewareKind::kNone, mw::WatchdVersion::kV3},
      {mw::MiddlewareKind::kMscs, mw::WatchdVersion::kV3},
      {mw::MiddlewareKind::kWatchd, mw::WatchdVersion::kV1},
      {mw::MiddlewareKind::kWatchd, mw::WatchdVersion::kV2},
      {mw::MiddlewareKind::kWatchd, mw::WatchdVersion::kV3},
  };
  for (const Config& c : configs) {
    core::RunConfig cfg;
    cfg.workload = core::workload_by_name(workload);
    cfg.middleware = c.kind;
    cfg.watchd_version = c.version;
    std::fprintf(stderr, "campaign: %s / %s\n", workload.c_str(),
                 c.kind == mw::MiddlewareKind::kWatchd
                     ? std::string(to_string(c.version)).c_str()
                     : std::string(to_string(c.kind)).c_str());
    sets.push_back(core::run_workload_set(cfg, options));
  }

  std::fputs(core::fig2_outcome_table(sets).c_str(), stdout);

  // The paper's headline metric: failure coverage = 1 - failure fraction.
  std::printf("\nFailure coverage (1 - failure%%):\n");
  for (const auto& s : sets) {
    std::printf("  %-20s %6.2f%%\n", s.label().c_str(),
                100.0 - s.percent(core::Outcome::kFailure));
  }
  return 0;
}
