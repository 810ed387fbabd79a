// Every table of EXPERIMENTS.md, in its order: the paper's evaluation (§4:
// Table 1, Figs. 2-5, Table 2), the ablations and the extensions. Each
// distinct campaign runs once with the full fault sweep, at seed 7 unless its
// exhibit names another; an exhibit that needs a standard-grid set reuses it.
// The output depends on nothing but the code (it is identical at any job
// count and on any host), so `ctest -L paper` diffs it against
// tests/paper_tables.golden. Takes no arguments and reads no environment.
#include <algorithm>
#include <cstdio>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/config.h"
#include "core/report.h"
#include "ntsim/kernel32_registry.h"

namespace {

using namespace dts;
using MK = mw::MiddlewareKind;
using WV = mw::WatchdVersion;
using core::WorkloadSetResult;

core::RunConfig config(const char* workload, MK middleware = MK::kNone, WV v = WV::kV3) {
  core::RunConfig cfg;
  cfg.workload = core::workload_by_name(workload);
  cfg.middleware = middleware;
  cfg.watchd_version = v;
  return cfg;
}

core::CampaignOptions at_seed(std::uint64_t seed) {
  core::CampaignOptions opt;
  opt.seed = seed;
  return opt;
}

WorkloadSetResult run(const core::RunConfig& cfg, core::CampaignOptions opt = at_seed(7)) {
  opt.jobs = 0;  // every hardware thread; no result depends on it
  return core::run_workload_set(cfg, opt);
}

// Closes an exhibit with what the paper (or the design) says about it.
void note(const char* text) { std::printf("%s\n\n", text); }

// The ablation tables: a label, the activated faults, each outcome's share,
// then any `extra` columns.
void print_header(const char* first, const char* extra = "") {
  std::printf("%-26s %10s", first, "activated");
  for (core::Outcome o : core::kAllOutcomes) {
    std::printf(" %10s", std::string(short_label(o)).c_str());
  }
  std::printf("%s\n", extra);
}

void print_row(const std::string& label, const core::OutcomeDistribution& d,
               const std::string& extra = "") {
  std::printf("%-26s %10zu", label.c_str(), d.activated);
  for (core::Outcome o : core::kAllOutcomes) std::printf(" %9.2f%%", d.percent(o));
  std::printf("%s\n", extra.c_str());
}

}  // namespace

int main() {
  // The standard grid: each workload stand-alone, with MSCS and with Watchd3.
  std::vector<WorkloadSetResult> grid;
  for (const char* w : {"Apache1", "Apache2", "IIS", "SQL"}) {
    for (const MK m : {MK::kNone, MK::kMscs, MK::kWatchd}) grid.push_back(run(config(w, m)));
  }
  auto grid_set = [&](const std::string& label) -> const WorkloadSetResult& {
    return *std::find_if(grid.begin(), grid.end(),
                         [&](const WorkloadSetResult& s) { return s.label() == label; });
  };
  const std::span<const WorkloadSetResult> apache_iis(grid.data(), 9);

  const auto& reg = nt::Kernel32Registry::instance();
  std::fputs(core::table1_activated_functions(grid).c_str(), stdout);
  std::printf("Simulated KERNEL32 surface: %zu functions (%zu with no parameters, %zu "
              "injection candidates)\n",
              reg.total_functions(), reg.zero_param_functions(), reg.injectable_functions());
  note("Paper: Apache1 13/17/13, Apache2 22/24/22, IIS 76/76/70, SQL 71/74/70 functions\n"
       "of a DLL with 681 (130 parameterless, 551 candidates).");

  std::fputs(core::fig2_outcome_table(grid).c_str(), stdout);
  note("Paper: middleware cuts failures markedly for Apache1, IIS and SQL; watchd\n"
       "eliminates Apache1's; Apache2 is unchanged; watchd covers more than MSCS.");
  std::fputs(core::fig3_apache_vs_iis(apache_iis).c_str(), stdout);
  note("Paper: stand-alone 20.58% (Apache) vs 41.90% (IIS); watchd 5.80% vs 7.60%.");
  std::fputs(core::fig4_response_times(apache_iis).c_str(), stdout);
  note("Paper: normal success 14.21 s (Apache) vs 18.94 s (IIS).");
  std::fputs(core::table2_common_faults(apache_iis).c_str(), stdout);
  note("Paper (stand-alone): Apache1 20.0%, Apache2 1.8%, Apache1+Apache2 5.7%, IIS 26.0%.");

  std::vector<WorkloadSetResult> ladder;
  for (const char* w : {"Apache1", "IIS", "SQL"}) {
    ladder.push_back(run(config(w, MK::kWatchd, WV::kV1)));
    ladder.push_back(run(config(w, MK::kWatchd, WV::kV2)));
    ladder.push_back(grid_set(std::string(w) + "/Watchd3"));
  }
  std::fputs(core::fig5_watchd_versions(ladder).c_str(), stdout);
  note("Paper: IIS V1 >> V2 ~ V3; Apache1 and SQL V1 ~ V2 >> V3.");

  {
    core::CampaignOptions opt = at_seed(7);
    opt.iterations = 2;
    const WorkloadSetResult set = run(config("Apache1", MK::kWatchd), opt);
    core::OutcomeDistribution inv[3];
    for (const auto& r : set.runs) {
      if (!r.activated || r.fault.invocation > 2) continue;
      ++inv[r.fault.invocation].activated;
      ++inv[r.fault.invocation].counts[r.outcome];
    }
    std::printf("Ablation: first- vs second-invocation injection (Apache1/Watchd3)\n");
    print_header("invocation");
    for (int i = 1; i <= 2; ++i) print_row(std::to_string(i), inv[i]);
    note("Paper (section 4): deeper invocations produce similar results.");
  }

  std::printf("Ablation: 100 MHz vs 400 MHz target machine (Apache1)\n");
  print_header("configuration");
  for (const double scale : {1.0, 0.25}) {
    for (const MK m : {MK::kNone, MK::kWatchd}) {
      const bool alone = m == MK::kNone;
      core::RunConfig cfg = config("Apache1", m);
      cfg.target_cpu_scale = scale;
      const WorkloadSetResult set =
          scale == 1.0 ? grid_set(alone ? "Apache1/none" : "Apache1/Watchd3") : run(cfg);
      print_row(std::string(alone ? "stand-alone" : "watchd3") +
                    (scale == 1.0 ? " @ 100 MHz" : " @ 400 MHz"),
                core::distribution_of(set));
    }
  }
  note("Paper (section 4): essentially identical on the faster machine.");

  {
    core::RunConfig cfg = config("IIS", MK::kWatchd);
    cfg.watchd.heartbeat = true;
    const WorkloadSetResult heartbeat = run(cfg);
    const WorkloadSetResult* sets[] = {&grid_set("IIS/Watchd3"), &heartbeat};
    const char* labels[] = {"Watchd3 (paper default)", "Watchd3 + heartbeat"};
    std::printf("Ablation: watchd heartbeat (IIS workload)\n");
    print_header("configuration", " Fail(resp) Fail(none)");
    for (int i = 0; i < 2; ++i) {
      char failures[32];
      std::snprintf(failures, sizeof failures, " %10zu %10zu", sets[i]->failures_with_response(),
                    sets[i]->failures_without_response());
      print_row(labels[i], core::distribution_of(*sets[i]), failures);
    }
    note("The next watchd iteration the paper's feedback loop (section 5) points at.");
  }

  std::printf("Ablation: Apache worker-pool size vs fault-activation reproducibility\n");
  std::printf("%-12s %10s %12s %14s %16s\n", "children", "faults", "activated@s1",
              "activated@s2", "outcome diffs");
  for (const int children : {1, 3}) {
    core::RunConfig cfg = config("Apache2");
    cfg.apache.max_children = children;
    cfg.target_jitter = 0.05;  // scheduling noise: the accept race is real
    const WorkloadSetResult s1 = run(cfg, at_seed(1001));
    const WorkloadSetResult s2 = run(cfg, at_seed(2002));
    std::size_t diffs = 0;
    const std::size_t n = std::min(s1.runs.size(), s2.runs.size());
    for (std::size_t i = 0; i < n; ++i) {
      const core::RunResult& a = s1.runs[i];
      const core::RunResult& b = s2.runs[i];
      if (a.fault.id() == b.fault.id() &&
          (a.activated != b.activated || a.outcome != b.outcome)) {
        ++diffs;
      }
    }
    std::printf("%-12d %10zu %12zu %14zu %16zu\n", children, n, s1.activated_faults(),
                s2.activated_faults(), diffs);
  }
  note("Paper (section 4.1): one child makes a fault list replay identically.");

  std::vector<WorkloadSetResult> ftp;
  for (const MK m : {MK::kNone, MK::kMscs, MK::kWatchd}) ftp.push_back(run(config("IIS-FTP", m)));
  std::fputs(core::fig2_outcome_table(ftp).c_str(), stdout);
  note("Extension: the IIS FTP service, which the paper did not test.");

  std::printf("Extension: fault models (Apache1/none, seed 1)\n");
  print_header("model");
  for (const char* model : {"paper", "mutation", "oserror", "temporal"}) {
    core::CampaignOptions opt = at_seed(1);
    opt.models = model;
    print_row(model, core::distribution_of(run(config("Apache1"), opt)));
  }
  std::printf("\n");

  std::printf("Extension: fault location in a three-tier service (24 faults per tier)\n");
  std::printf("%-6s %6s", "tier", "runs");
  for (std::string_view o : core::kTopoOutcomes) std::printf(" %9s", std::string(o).c_str());
  std::printf("\n");
  for (const std::string tier : {"db", "app"}) {
    // The README's three-tier campaign, swept into this tier.
    std::string error;
    const auto topo = core::parse_config(
        "[test]\nmiddleware = none\nseed = 7\nmax_faults = 24\n\n"
        "[topology]\ntopology = lb:2*apache -> app:2*iis -> db:1*sql_server\ntier = " +
            tier + "\n\n[network]\nlatency_us = 2000\nlink.app.db.latency_us = 5000\n",
        &error);
    if (!topo) throw std::runtime_error(error);
    const WorkloadSetResult set = run(topo->run, topo->campaign);
    std::printf("%-6s %6zu", tier.c_str(), set.runs.size());
    for (std::string_view o : core::kTopoOutcomes) {
      std::printf(" %9zd", std::count_if(set.runs.begin(), set.runs.end(),
                                         [&](const core::RunResult& r) {
                                           return r.topo && r.topo->user_outcome == o;
                                         }));
    }
    std::printf("\n");
  }
  return 0;
}
