// Tests for the DTS core: run orchestration, outcome classification,
// campaign mechanics, configuration files.
#include <gtest/gtest.h>

#include "core/campaign.h"
#include "core/config.h"
#include "core/report.h"

namespace dts::core {
namespace {

RunConfig quick_config(const char* workload, mw::MiddlewareKind m = mw::MiddlewareKind::kNone,
                       mw::WatchdVersion v = mw::WatchdVersion::kV3) {
  RunConfig cfg;
  cfg.workload = workload_by_name(workload);
  cfg.middleware = m;
  cfg.watchd_version = v;
  cfg.seed = 11;
  return cfg;
}

// ---------------------------------------------------------------- single runs

TEST(Run, FaultFreeIsNormalSuccess) {
  for (const char* w : {"Apache1", "Apache2", "IIS", "SQL"}) {
    RunResult r = execute_run(quick_config(w), std::nullopt);
    EXPECT_EQ(r.outcome, Outcome::kNormalSuccess) << w << ": " << r.summary();
    EXPECT_FALSE(r.activated);
    EXPECT_EQ(r.retries, 0);
    EXPECT_EQ(r.restarts, 0);
    EXPECT_TRUE(r.client_finished);
  }
}

TEST(Run, DeterministicReplay) {
  auto spec = inject::parse_fault_id("inetinfo.exe", "CreateSemaphoreA.lInitialCount#1:ones");
  ASSERT_TRUE(spec.has_value());
  RunResult a = execute_run(quick_config("IIS"), *spec);
  RunResult b = execute_run(quick_config("IIS"), *spec);
  EXPECT_EQ(a.outcome, b.outcome);
  EXPECT_EQ(a.response_time.count_micros(), b.response_time.count_micros());
  EXPECT_EQ(a.retries, b.retries);
  EXPECT_EQ(a.restarts, b.restarts);
}

TEST(Run, InitCrashStandaloneIsFailure) {
  // A corrupted pointer in IIS's early init crashes the process; with no
  // middleware, nobody restarts it and every request is refused.
  auto spec = inject::parse_fault_id("inetinfo.exe", "GetStartupInfoA.lpStartupInfo#1:flip");
  RunResult r = execute_run(quick_config("IIS"), *spec);
  EXPECT_TRUE(r.activated);
  EXPECT_EQ(r.outcome, Outcome::kFailure);
  EXPECT_FALSE(r.response_received);
  EXPECT_NE(r.detail.find("access violation"), std::string::npos);
}

TEST(Run, InitCrashWithWatchd3Recovers) {
  auto spec = inject::parse_fault_id("inetinfo.exe", "GetStartupInfoA.lpStartupInfo#1:flip");
  RunResult r =
      execute_run(quick_config("IIS", mw::MiddlewareKind::kWatchd, mw::WatchdVersion::kV3),
                  *spec);
  EXPECT_TRUE(r.activated);
  EXPECT_NE(r.outcome, Outcome::kFailure) << r.summary();
  EXPECT_GE(r.restarts, 1);
}

TEST(Run, ApacheWorkerCrashIsMaskedByMaster) {
  // Apache2's own architecture recovers worker crashes without middleware.
  auto spec = inject::parse_fault_id("apache_child.exe", "GetStartupInfoA.lpStartupInfo#1:flip");
  RunResult r = execute_run(quick_config("Apache2"), *spec);
  EXPECT_TRUE(r.activated);
  EXPECT_NE(r.outcome, Outcome::kFailure) << r.summary();
  EXPECT_EQ(r.restarts, 0);  // not a middleware restart
}

TEST(Run, SqlHungExecutorIsUnrecoverableHang) {
  // Corrupting the executor's queue-event handle hangs SQL Server without
  // killing it: the SCM still says Running, so no restart ever happens and
  // the client times out — failure with no response.
  auto spec = inject::parse_fault_id("sqlservr.exe", "WaitForSingleObject.hHandle#1:flip");
  for (auto m : {mw::MiddlewareKind::kNone, mw::MiddlewareKind::kMscs}) {
    RunResult r = execute_run(quick_config("SQL", m), *spec);
    EXPECT_TRUE(r.activated);
    EXPECT_EQ(r.outcome, Outcome::kFailure) << r.summary();
  }
}

TEST(Run, NotActivatedWhenFunctionUncalled) {
  // Apache1's master never calls ReadFileEx.
  auto spec = inject::parse_fault_id("apache.exe", "ReadFileEx.hFile#1:zero");
  RunResult r = execute_run(quick_config("Apache1"), *spec);
  EXPECT_FALSE(r.activated);
  EXPECT_EQ(r.outcome, Outcome::kNormalSuccess);
}

// ---------------------------------------------------------------- campaign

TEST(Campaign, ProfilesMatchPaperShape) {
  const auto a1 = profile_workload(quick_config("Apache1"));
  const auto a2 = profile_workload(quick_config("Apache2"));
  const auto iis = profile_workload(quick_config("IIS"));
  const auto sql = profile_workload(quick_config("SQL"));
  // Paper Table 1 ordering: Apache1 << Apache2 << SQL/IIS.
  EXPECT_LT(a1.size(), a2.size());
  EXPECT_LT(a2.size(), sql.size());
  EXPECT_LT(sql.size(), iis.size() + 40);  // same ballpark
  EXPECT_GT(iis.size(), 60u);
  EXPECT_LT(a1.size(), 20u);
  // The majority of catalogued KERNEL32 functions are never called (paper §4).
  EXPECT_LT(iis.size(), nt::Kernel32Registry::instance().injectable_functions() / 2);
}

TEST(Campaign, MscsAddsActivatedFunctions) {
  const auto plain = profile_workload(quick_config("Apache1"));
  const auto mscs = profile_workload(quick_config("Apache1", mw::MiddlewareKind::kMscs));
  EXPECT_GT(mscs.size(), plain.size());
}

TEST(Campaign, SmallSweepAccounting) {
  RunConfig cfg = quick_config("Apache1");
  CampaignOptions opt;
  opt.seed = 3;
  opt.max_faults = 30;
  WorkloadSetResult r = run_workload_set(cfg, opt);
  EXPECT_EQ(r.runs.size(), 30u);
  EXPECT_GT(r.activated_faults(), 0u);
  EXPECT_LE(r.activated_faults(), r.runs.size());
  // Percentages over activated faults sum to 100.
  double total = 0;
  for (Outcome o : kAllOutcomes) total += r.percent(o);
  EXPECT_NEAR(total, 100.0, 1e-9);
  EXPECT_EQ(r.label(), "Apache1/none");
}

TEST(Campaign, ProgressCallbackFires) {
  RunConfig cfg = quick_config("Apache1");
  CampaignOptions opt;
  opt.max_faults = 5;
  std::size_t calls = 0, last_total = 0;
  opt.on_snapshot = [&](const exec::ProgressSnapshot& s) {
    ++calls;
    EXPECT_LE(s.done, s.total);
    last_total = s.total;
  };
  run_workload_set(cfg, opt);
  EXPECT_EQ(calls, 5u);
  EXPECT_EQ(last_total, 5u);
}

// ---------------------------------------------------------------- reports

TEST(Report, FaultKeyIgnoresImage) {
  auto a = inject::parse_fault_id("apache.exe", "ReadFile.hFile#1:zero");
  auto b = inject::parse_fault_id("inetinfo.exe", "ReadFile.hFile#1:zero");
  EXPECT_EQ(fault_key(*a), fault_key(*b));
  auto c = inject::parse_fault_id("apache.exe", "ReadFile.hFile#1:ones");
  EXPECT_NE(fault_key(*a), fault_key(*c));
}

TEST(Report, RendersTables) {
  RunConfig cfg = quick_config("Apache1");
  CampaignOptions opt;
  opt.max_faults = 12;
  std::vector<WorkloadSetResult> sets;
  sets.push_back(run_workload_set(cfg, opt));
  const std::string t1 = table1_activated_functions(sets);
  EXPECT_NE(t1.find("Apache1"), std::string::npos);
  const std::string f2 = fig2_outcome_table(sets);
  EXPECT_NE(f2.find("Apache1/none"), std::string::npos);
  EXPECT_NE(f2.find("Failure"), std::string::npos);
  const std::string csv = runs_csv(sets[0]);
  EXPECT_NE(csv.find("workload,middleware,fault"), std::string::npos);
  // One CSV line per run plus header.
  EXPECT_EQ(static_cast<std::size_t>(std::count(csv.begin(), csv.end(), '\n')),
            sets[0].runs.size() + 1);
}

// ---------------------------------------------------------------- config

TEST(Config, ParsesFullFile) {
  const std::string text = R"(
; DTS main configuration
[test]
workload = SQL
middleware = watchd
watchd_version = 2
seed = 99
iterations = 2
max_faults = 10

[client]
response_timeout_s = 20
retry_wait_s = 10
max_attempts = 2
server_up_timeout_s = 60

[machine]
target_cpu_scale = 0.25
run_timeout_s = 200
)";
  std::string error;
  auto cfg = parse_config(text, &error);
  ASSERT_TRUE(cfg.has_value()) << error;
  EXPECT_EQ(cfg->run.workload.name, "SQL");
  EXPECT_EQ(cfg->run.middleware, mw::MiddlewareKind::kWatchd);
  EXPECT_EQ(cfg->run.watchd_version, mw::WatchdVersion::kV2);
  EXPECT_EQ(cfg->campaign.seed, 99u);
  EXPECT_EQ(cfg->campaign.iterations, 2);
  EXPECT_EQ(cfg->campaign.max_faults, 10u);
  EXPECT_EQ(cfg->run.client.response_timeout, sim::Duration::seconds(20));
  EXPECT_EQ(cfg->run.client.max_attempts, 2);
  EXPECT_DOUBLE_EQ(cfg->run.target_cpu_scale, 0.25);
}

TEST(Config, RejectsBadInput) {
  std::string error;
  EXPECT_FALSE(parse_config("[test]\nworkload = Netscape\n", &error));
  EXPECT_FALSE(parse_config("[test]\nmiddleware = prayer\n", &error));
  EXPECT_FALSE(parse_config("[test]\nwatchd_version = 9\n", &error));
  EXPECT_FALSE(parse_config("[bogus]\nx = 1\n", &error));
  EXPECT_FALSE(parse_config("[test]\nunknown_key = 1\n", &error));
  EXPECT_FALSE(parse_config("key_outside_section = 1\n", &error));
  EXPECT_FALSE(parse_config("[client]\nmax_attempts = 0\n", &error));
  EXPECT_NE(error.find("line"), std::string::npos);
}

TEST(Config, MachineExtras) {
  std::string error;
  auto cfg = parse_config(
      "[machine]\ntarget_jitter = 0.05\napache_children = 3\n", &error);
  ASSERT_TRUE(cfg.has_value()) << error;
  EXPECT_DOUBLE_EQ(cfg->run.target_jitter, 0.05);
  EXPECT_EQ(cfg->run.apache.max_children, 3);
  EXPECT_FALSE(parse_config("[machine]\ntarget_jitter = 2\n", &error));
  EXPECT_FALSE(parse_config("[machine]\napache_children = 0\n", &error));
}

TEST(Config, MiddlewareSection) {
  const std::string text = R"(
[test]
workload = IIS
middleware = mscs

[middleware]
mscs_poll_interval_s = 3
mscs_pending_timeout_s = 30
mscs_restart_threshold = 5
watchd_heartbeat = 1
)";
  std::string error;
  auto cfg = parse_config(text, &error);
  ASSERT_TRUE(cfg.has_value()) << error;
  EXPECT_EQ(cfg->run.mscs.poll_interval, sim::Duration::seconds(3));
  EXPECT_EQ(cfg->run.mscs.pending_timeout, sim::Duration::seconds(30));
  EXPECT_EQ(cfg->run.mscs.restart_threshold, 5);
  EXPECT_TRUE(cfg->run.watchd.heartbeat);
  EXPECT_FALSE(parse_config("[middleware]\nwatchd_heartbeat = 7\n", &error));
  EXPECT_FALSE(parse_config("[middleware]\nbogus = 1\n", &error));
}

TEST(Run, TraceRecordsInjectedCall) {
  RunConfig cfg = quick_config("Apache1");
  cfg.trace_limit = 64;
  auto spec = inject::parse_fault_id("apache.exe", "GetPrivateProfileStringA.lpFileName#1:flip");
  FaultInjectionRun run(cfg);
  const RunResult r = run.execute(*spec);
  EXPECT_TRUE(r.activated);
  const auto& trace = run.interceptor().trace();
  ASSERT_FALSE(trace.empty());
  bool saw_injection = false;
  for (const auto& entry : trace) {
    if (entry.injected_here) {
      saw_injection = true;
      EXPECT_EQ(entry.fn, nt::Fn::GetPrivateProfileStringA);
      EXPECT_NE(entry.to_string().find("FAULT INJECTED"), std::string::npos);
      // The trace shows the corrupted word the kernel received.
      EXPECT_EQ(entry.args[5], run.interceptor().corrupted_word());
    }
  }
  EXPECT_TRUE(saw_injection);
}

TEST(Config, SerializeRoundTrips) {
  DtsConfig cfg;
  cfg.run = quick_config("Apache2", mw::MiddlewareKind::kWatchd, mw::WatchdVersion::kV1);
  cfg.campaign.seed = 5;
  cfg.campaign.iterations = 3;
  std::string error;
  auto reparsed = parse_config(serialize_config(cfg), &error);
  ASSERT_TRUE(reparsed.has_value()) << error;
  EXPECT_EQ(reparsed->run.workload.name, "Apache2");
  EXPECT_EQ(reparsed->run.watchd_version, mw::WatchdVersion::kV1);
  EXPECT_EQ(reparsed->campaign.iterations, 3);
}

}  // namespace
}  // namespace dts::core
