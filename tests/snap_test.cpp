// Tests for snapshot execution (--snapshots=on, golden-tail synthesis in
// exec/synthesis.h): campaign output byte-identical to the plain executor at
// any jobs count, including across journal resume in either direction, with
// exact synthesis accounting. Labelled `snap` in CTest (also in the ASan and
// TSan preset filters).
#include <gtest/gtest.h>

#include <cstddef>
#include <filesystem>
#include <fstream>
#include <set>
#include <string>
#include <vector>

#include "core/campaign.h"
#include "exec/synthesis.h"
#include "obs/metrics.h"
#include "plan/profiler.h"

namespace dts {
namespace {

std::string temp_path(const std::string& name) {
  return (std::filesystem::path(::testing::TempDir()) / name).string();
}

core::RunConfig apache_config() {
  core::RunConfig cfg;
  cfg.workload = core::workload_by_name("Apache1");
  return cfg;
}

std::string campaign_output(const core::RunConfig& cfg, bool snapshots, int jobs,
                            std::size_t max_faults, std::uint64_t seed = 7) {
  core::CampaignOptions opt;
  opt.seed = seed;
  opt.max_faults = max_faults;
  opt.jobs = jobs;
  opt.snapshots = snapshots;
  return core::serialize_workload_set(core::run_workload_set(cfg, opt));
}

// Sum of a counter series over all its label sets.
std::uint64_t counter_total(const obs::MetricsRegistry& metrics, const std::string& name) {
  std::uint64_t total = 0;
  for (const obs::MetricSample& s : metrics.snapshot()) {
    if (s.kind == 'c' && s.name == name) total += s.counter_value;
  }
  return total;
}

// Campaign output with snapshots on must be byte-identical to the default
// executor at jobs 1, 2 and 8 — the subsystem's acceptance bar.
TEST(SnapCampaign, ByteIdenticalAcrossModesAndJobs) {
  const core::RunConfig cfg = apache_config();
  const std::string baseline = campaign_output(cfg, /*snapshots=*/false, 1, 18);
  EXPECT_EQ(campaign_output(cfg, /*snapshots=*/true, 1, 18), baseline);
  EXPECT_EQ(campaign_output(cfg, /*snapshots=*/true, 2, 18), baseline);
  EXPECT_EQ(campaign_output(cfg, /*snapshots=*/true, 8, 18), baseline);
}

// Planned campaigns must agree too (a plan prunes every never-firing fault).
// The cap of 600 raw entries leaves the plan a few dozen runs to execute;
// most entries of a small cap are pruned.
TEST(SnapCampaign, PlannedCampaignByteIdentical) {
  const core::RunConfig cfg = apache_config();
  core::CampaignOptions opt;
  opt.seed = 7;
  opt.max_faults = 600;
  opt.plan.mode = plan::PlanOptions::Mode::kAuto;
  opt.snapshots = false;
  const core::WorkloadSetResult plain = core::run_workload_set(cfg, opt);
  EXPECT_GT(plain.executed_runs, 0u);
  const std::string baseline = core::serialize_workload_set(plain);
  opt.snapshots = true;
  opt.jobs = 2;
  EXPECT_EQ(core::serialize_workload_set(core::run_workload_set(cfg, opt)), baseline);
}

// A journal written under one snapshot mode must resume under the other, in
// both directions, with byte-identical final output.
TEST(SnapCampaign, JournalResumesAcrossSnapshotModes) {
  const core::RunConfig cfg = apache_config();
  const std::string baseline = campaign_output(cfg, /*snapshots=*/false, 1, 12);

  for (const bool first_snapshots : {true, false}) {
    const std::string journal =
        temp_path(first_snapshots ? "snap_then_plain.jsonl" : "plain_then_snap.jsonl");
    std::filesystem::remove(journal);

    core::CampaignOptions opt;
    opt.seed = 7;
    opt.max_faults = 12;
    opt.snapshots = first_snapshots;
    opt.journal_path = journal;
    (void)core::run_workload_set(cfg, opt);

    // Truncate the journal to its header plus a prefix of records, so the
    // resume genuinely executes the remainder under the opposite mode.
    std::ifstream in(journal);
    std::vector<std::string> lines;
    for (std::string line; std::getline(in, line);) lines.push_back(line);
    in.close();
    ASSERT_GT(lines.size(), 4u);
    std::ofstream out(journal, std::ios::trunc);
    for (std::size_t i = 0; i < 4; ++i) out << lines[i] << "\n";
    out.close();

    opt.snapshots = !first_snapshots;
    opt.resume = true;
    const core::WorkloadSetResult resumed = core::run_workload_set(cfg, opt);
    EXPECT_EQ(core::serialize_workload_set(resumed), baseline)
        << "resume direction: " << (first_snapshots ? "snap->plain" : "plain->snap");
  }
}

// An explicit fault list honours snapshots too: it synthesizes the second
// invocations of functions the golden run calls once, runs every other
// listed fault in full, and serializes byte-identically to the full-run
// campaign.
TEST(SnapCampaign, ExplicitFaultListForksAndStaysByteIdentical) {
  core::RunConfig cfg = apache_config();
  cfg.middleware = mw::MiddlewareKind::kMscs;
  core::CampaignOptions opt;
  opt.seed = 7;
  opt.iterations = 2;
  opt.max_faults = 30;
  const std::set<nt::Fn> fns = core::profile_workload(cfg, opt.seed);
  const inject::FaultList list = core::campaign_sweep(cfg, opt, &fns);
  opt.iterations = 1;
  opt.max_faults = 0;

  const core::WorkloadSetResult plain = core::run_workload_set(cfg, opt, list);
  ASSERT_EQ(plain.runs.size(), list.faults.size());
  obs::MetricsRegistry metrics;
  opt.snapshots = true;
  opt.jobs = 2;
  opt.metrics = &metrics;
  const core::WorkloadSetResult synthesized = core::run_workload_set(cfg, opt, list);
  EXPECT_EQ(core::serialize_workload_set(synthesized), core::serialize_workload_set(plain));
  EXPECT_GT(counter_total(metrics, "dts_snap_synthesized_runs_total"), 0u)
      << "explicit fault list ignored snapshots";
}

// Synthesis accounting on a deep sweep (I=4): exactly the faults whose
// invocation exceeds the golden call count are synthesized, none falls back,
// every other fault takes a full run on a pool worker, and the set is
// byte-identical to the plain campaign at jobs 1 and 2.
TEST(SnapCampaign, SynthesisAccountingIsExact) {
  const core::RunConfig cfg = apache_config();
  core::CampaignOptions opt;
  opt.seed = 4099;
  opt.iterations = 4;
  const plan::GoldenProfile profile = plan::golden_profile(cfg, opt.seed, opt.iterations);
  const inject::FaultList sweep = core::campaign_sweep(cfg, opt, &profile.activated);
  std::uint64_t never_fire = 0;
  for (const inject::FaultSpec& f : sweep.faults) {
    const auto it = profile.invocation_counts.find(f.fn);
    never_fire += f.invocation > (it == profile.invocation_counts.end() ? 0 : it->second);
  }
  ASSERT_GT(never_fire, 0u);
  ASSERT_LT(never_fire, sweep.faults.size());

  const std::string plain = core::serialize_workload_set(core::run_workload_set(cfg, opt));
  for (const int jobs : {1, 2}) {
    obs::MetricsRegistry metrics;
    core::CampaignOptions snap_opt = opt;
    snap_opt.snapshots = true;
    snap_opt.jobs = jobs;
    snap_opt.metrics = &metrics;
    const core::WorkloadSetResult set = core::run_workload_set(cfg, snap_opt);
    EXPECT_EQ(core::serialize_workload_set(set), plain) << "jobs=" << jobs;
    ASSERT_EQ(set.runs.size(), sweep.faults.size());
    EXPECT_EQ(set.executed_runs, sweep.faults.size()) << "jobs=" << jobs;
    EXPECT_EQ(counter_total(metrics, "dts_snap_synthesized_runs_total"), never_fire)
        << "jobs=" << jobs;
    EXPECT_EQ(counter_total(metrics, "dts_snap_fallback_runs_total"), 0u) << "jobs=" << jobs;
    EXPECT_EQ(counter_total(metrics, "dts_exec_worker_runs_total"),
              sweep.faults.size() - never_fire)
        << "jobs=" << jobs;
  }
}

// Configurations synthesis cannot serve are named, so the executor runs every
// fault of them in full — nothing is ever dropped.
TEST(SnapFork, UnsupportedConfigurationsFallBack) {
  core::RunConfig cfg = apache_config();
  EXPECT_EQ(exec::unsupported_reason(cfg, /*tracing=*/false), "");
  EXPECT_NE(exec::unsupported_reason(cfg, /*tracing=*/true), "");
  cfg.target_jitter = 0.1;
  EXPECT_NE(exec::unsupported_reason(cfg, /*tracing=*/false), "");
  cfg.target_jitter = 0.0;
  cfg.golden_capture = 4;
  EXPECT_NE(exec::unsupported_reason(cfg, /*tracing=*/false), "");
}

}  // namespace
}  // namespace dts
