// Tests for the parallel campaign execution subsystem (src/exec/):
// schedule-independent output, progress accounting, and the resumable run
// journal. Labelled `exec` in CTest so the suite can be run in isolation
// under ThreadSanitizer (cmake --preset tsan && ctest -L exec).
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "core/campaign.h"
#include "exec/executor.h"
#include "exec/journal.h"
#include "exec/progress.h"
#include "obs/fleet/status.h"
#include "obs/jsonl.h"
#include "obs/metrics.h"

namespace dts {
namespace {

core::RunConfig make_config(const std::string& workload,
                            mw::MiddlewareKind m = mw::MiddlewareKind::kNone) {
  core::RunConfig cfg;
  cfg.workload = core::workload_by_name(workload);
  cfg.middleware = m;
  cfg.watchd_version = mw::WatchdVersion::kV3;
  return cfg;
}

/// A small evenly-sampled fault list for `cfg`, restricted to activated
/// functions (what run_workload_set sweeps).
inject::FaultList capped_list(const core::RunConfig& cfg, std::uint64_t seed,
                              std::size_t cap) {
  const auto fns = core::profile_workload(cfg, seed);
  return inject::FaultList::for_functions(cfg.workload.target_image, fns).sampled(cap);
}

std::vector<std::string> run_lines(const std::vector<core::RunResult>& runs) {
  std::vector<std::string> out;
  out.reserve(runs.size());
  for (const auto& r : runs) out.push_back(core::serialize_run_line(r));
  return out;
}

std::string temp_path(const std::string& name) {
  return (std::filesystem::path(::testing::TempDir()) / name).string();
}

// The acceptance bar of the subsystem: a capped Apache1+watchd sweep must
// serialize byte-identically at jobs ∈ {1, 2, 8}.
TEST(Exec, ParallelOutputByteIdenticalAcrossJobs) {
  const core::RunConfig cfg = make_config("Apache1", mw::MiddlewareKind::kWatchd);
  core::CampaignOptions opt;
  opt.seed = 7;
  opt.max_faults = 18;

  opt.jobs = 1;
  const std::string serial = core::serialize_workload_set(core::run_workload_set(cfg, opt));
  opt.jobs = 2;
  const std::string two = core::serialize_workload_set(core::run_workload_set(cfg, opt));
  opt.jobs = 8;
  const std::string eight = core::serialize_workload_set(core::run_workload_set(cfg, opt));

  EXPECT_EQ(serial, two);
  EXPECT_EQ(serial, eight);
  // And the round-trip still holds on the parallel output.
  std::string error;
  auto reloaded = core::deserialize_workload_set(eight, &error);
  ASSERT_TRUE(reloaded.has_value()) << error;
  EXPECT_EQ(core::serialize_workload_set(*reloaded), serial);
}

// The progress callback fires once per fault — including skip-uncalled ones
// (historically the skip branch bypassed it, so progress stalled then
// jumped) — and `done` is contiguous.
TEST(Exec, ProgressReportedForEveryFaultIncludingSkipped) {
  const core::RunConfig cfg = make_config("Apache1");
  // A function the workload never calls: its first fault executes (proving
  // the function uncalled) and every later fault is skipped.
  const auto activated = core::profile_workload(cfg, 7);
  nt::Fn uncalled_fn = nt::Fn::kImplementedCount;
  for (std::uint16_t id = 0; id < nt::kImplementedFunctionCount; ++id) {
    const nt::Fn fn = static_cast<nt::Fn>(id);
    if (!activated.contains(fn) &&
        nt::Kernel32Registry::instance().info(fn).param_count() > 0) {
      uncalled_fn = fn;
      break;
    }
  }
  ASSERT_NE(uncalled_fn, nt::Fn::kImplementedCount);

  const inject::FaultList list =
      inject::FaultList::for_functions(cfg.workload.target_image, {uncalled_fn});
  ASSERT_GT(list.faults.size(), 1u);

  std::vector<std::size_t> done_values;
  exec::ExecOptions eo;
  eo.jobs = 1;
  eo.on_snapshot = [&](const exec::ProgressSnapshot& s) {
    done_values.push_back(s.done);
    EXPECT_EQ(s.total, list.faults.size());
  };
  const exec::CampaignResult r = exec::CampaignExecutor(eo).run(cfg, list, 7);

  ASSERT_EQ(r.runs.size(), list.faults.size());
  EXPECT_EQ(done_values.size(), list.faults.size());
  for (std::size_t i = 0; i < done_values.size(); ++i) EXPECT_EQ(done_values[i], i + 1);
  EXPECT_GT(r.skipped, 0u);
  EXPECT_EQ(r.runs.back().detail, "skipped: function not called by this workload");
}

// Kill a campaign after K runs — its journal ends after the header and the
// first K records — resume at another job count, and the final results
// match an uninterrupted sweep record-for-record.
TEST(Exec, JournalResumeAfterCancelMatchesUninterrupted) {
  const core::RunConfig cfg = make_config("Apache1");
  const inject::FaultList list = capped_list(cfg, 7, 12);
  ASSERT_EQ(list.faults.size(), 12u);

  const std::string journal = temp_path("exec_resume.jsonl");
  std::filesystem::remove(journal);
  exec::ExecOptions first;
  first.jobs = 1;
  first.journal_path = journal;
  const exec::CampaignResult uninterrupted = exec::CampaignExecutor(first).run(cfg, list, 7);
  ASSERT_GT(uninterrupted.executed, 4u);

  // The journal a campaign killed after its fourth run leaves behind.
  std::vector<std::string> lines;
  {
    std::ifstream in(journal);
    for (std::string line; std::getline(in, line);) lines.push_back(line);
  }
  ASSERT_GT(lines.size(), 5u);
  {
    std::ofstream out(journal, std::ios::trunc);
    for (std::size_t i = 0; i < 5; ++i) out << lines[i] << "\n";
  }

  exec::ExecOptions second;
  second.jobs = 2;
  second.journal_path = journal;
  second.resume = true;
  const exec::CampaignResult resumed = exec::CampaignExecutor(second).run(cfg, list, 7);
  EXPECT_EQ(resumed.reused, 4u);
  EXPECT_EQ(resumed.executed, uninterrupted.executed - 4);
  EXPECT_EQ(run_lines(resumed.runs), run_lines(uninterrupted.runs));
}

// A journal written for one campaign must not be resumable by another.
TEST(Exec, JournalFromDifferentCampaignRefused) {
  const core::RunConfig cfg = make_config("Apache1");
  const inject::FaultList list = capped_list(cfg, 7, 4);

  const std::string journal = temp_path("exec_mismatch.jsonl");
  std::filesystem::remove(journal);
  exec::ExecOptions eo;
  eo.jobs = 1;
  eo.journal_path = journal;
  (void)exec::CampaignExecutor(eo).run(cfg, list, 7);

  eo.resume = true;
  EXPECT_THROW((void)exec::CampaignExecutor(eo).run(cfg, list, 8), std::runtime_error);
}

// `--jobs=0` means auto-detect, and hardware_concurrency() is advisory —
// it may return 0 (single-core containers do). The resolver must clamp
// every degenerate combination to at least one worker.
TEST(Exec, EffectiveJobsClampsAutoDetectAndUnknownHardware) {
  EXPECT_EQ(exec::effective_jobs(4, 8u), 4);   // explicit request wins
  EXPECT_EQ(exec::effective_jobs(1, 0u), 1);   // explicit, hw unknown
  EXPECT_EQ(exec::effective_jobs(0, 8u), 8);   // auto-detect follows hw
  EXPECT_EQ(exec::effective_jobs(-3, 8u), 8);  // negative treated as auto
  EXPECT_EQ(exec::effective_jobs(0, 0u), 1);   // auto-detect, hw unknown
  EXPECT_EQ(exec::effective_jobs(-1, 0u), 1);
  EXPECT_GE(exec::effective_jobs(0), 1);  // real hardware_concurrency()
}

// The journal's FINAL record truncated mid-line — the classic
// killed-inside-the-last-write shape — must resume by re-executing exactly
// that one run and reusing every other record.
TEST(Exec, FinalRecordTruncatedMidLineReexecutesOnlyThatRun) {
  const core::RunConfig cfg = make_config("Apache1");
  const inject::FaultList list = capped_list(cfg, 7, 6);

  const std::string journal = temp_path("exec_torn_final.jsonl");
  std::filesystem::remove(journal);
  exec::ExecOptions eo;
  eo.jobs = 1;
  eo.journal_path = journal;
  const exec::CampaignResult full = exec::CampaignExecutor(eo).run(cfg, list, 7);
  ASSERT_GT(full.executed, 1u);

  // Chop the last record in half, newline included.
  std::vector<std::string> lines;
  {
    std::ifstream in(journal);
    std::string line;
    while (std::getline(in, line)) lines.push_back(line);
  }
  ASSERT_GE(lines.size(), 3u);
  {
    std::ofstream out(journal, std::ios::trunc);
    for (std::size_t i = 0; i + 1 < lines.size(); ++i) out << lines[i] << "\n";
    out << lines.back().substr(0, lines.back().size() / 2);
  }

  exec::ExecOptions again;
  again.jobs = 1;
  again.journal_path = journal;
  again.resume = true;
  const exec::CampaignResult resumed = exec::CampaignExecutor(again).run(cfg, list, 7);
  EXPECT_EQ(resumed.reused, full.executed - 1);
  EXPECT_EQ(resumed.executed, 1u);
  EXPECT_EQ(run_lines(resumed.runs), run_lines(full.runs));
}

// A journal torn mid-record (the process died inside a write) resumes
// cleanly: the torn line is ignored, the valid records are reused.
TEST(Exec, TruncatedJournalRecordsIgnoredOnResume) {
  const core::RunConfig cfg = make_config("Apache1");
  const inject::FaultList list = capped_list(cfg, 7, 6);

  const std::string journal = temp_path("exec_torn.jsonl");
  std::filesystem::remove(journal);
  exec::ExecOptions eo;
  eo.jobs = 2;
  eo.journal_path = journal;
  const exec::CampaignResult full = exec::CampaignExecutor(eo).run(cfg, list, 7);

  {
    std::ofstream out(journal, std::ios::app);
    out << "{\"i\":2,\"fault\":\"torn-rec";  // no trailing newline either
  }

  exec::ExecOptions again;
  again.jobs = 1;
  again.journal_path = journal;
  again.resume = true;
  const exec::CampaignResult resumed = exec::CampaignExecutor(again).run(cfg, list, 7);
  EXPECT_EQ(resumed.reused, full.executed);
  EXPECT_EQ(resumed.executed, 0u);
  EXPECT_EQ(run_lines(resumed.runs), run_lines(full.runs));
}

// The core-level plumbing: run_workload_set with a journal, then resume —
// nothing re-executes and the serialization is unchanged.
TEST(Exec, RunWorkloadSetResumesViaCampaignOptions) {
  const core::RunConfig cfg = make_config("Apache1");
  const std::string journal = temp_path("exec_campaign.jsonl");
  std::filesystem::remove(journal);

  core::CampaignOptions opt;
  opt.seed = 7;
  opt.max_faults = 8;
  opt.jobs = 2;
  opt.journal_path = journal;
  const std::string first = core::serialize_workload_set(core::run_workload_set(cfg, opt));

  opt.resume = true;
  exec::ProgressSnapshot last;
  opt.on_snapshot = [&](const exec::ProgressSnapshot& s) { last = s; };
  const std::string second =
      core::serialize_workload_set(core::run_workload_set(cfg, opt));
  EXPECT_EQ(first, second);
  EXPECT_EQ(last.executed, 0u);  // every fresh run came from the journal
  EXPECT_GT(last.reused, 0u);
}

// The ETA must follow the recent completion rate, not the whole-campaign
// average: after a slow warm-up the window converges on the current rate.
TEST(Exec, EtaUsesRecentRateWindowNotLifetimeAverage) {
  double now = 0.0;
  exec::ProgressTracker tracker(100, 0, [&now] { return now; });

  // 10 slow completions at 1 run/s...
  for (int i = 1; i <= 10; ++i) {
    now = static_cast<double>(i);
    (void)tracker.completed(true);
  }
  // ...then a full window of fast completions at 10 runs/s.
  for (int i = 1; i <= 64; ++i) {
    now = 10.0 + 0.1 * i;
    (void)tracker.completed(true);
  }

  const exec::ProgressSnapshot s = tracker.snapshot();
  EXPECT_EQ(s.done, 74u);
  // Window rate: 63 intervals over 6.3s = 10 runs/s; the lifetime average
  // (74 / 16.4s ≈ 4.5 runs/s) would nearly double the ETA.
  EXPECT_NEAR(s.runs_per_sec, 10.0, 0.5);
  EXPECT_NEAR(s.eta_s, 26.0 / 10.0, 0.5);
}

// Until the window has two fresh completions the lifetime average is the
// only rate available — and with no fresh completions the ETA stays 0.
TEST(Exec, EtaFallsBackToLifetimeAverageWhenWindowCold) {
  double now = 0.0;
  exec::ProgressTracker tracker(10, 4, [&now] { return now; });
  now = 2.0;
  const exec::ProgressSnapshot one = tracker.completed(true);
  EXPECT_EQ(one.done, 5u);
  EXPECT_NEAR(one.runs_per_sec, 0.5, 1e-9);  // 1 fresh run / 2s
  now = 4.0;
  const exec::ProgressSnapshot skip = tracker.completed(false);  // skip-uncalled
  EXPECT_EQ(skip.done, 6u);
  EXPECT_NEAR(skip.runs_per_sec, 0.25, 1e-9);  // still 1 fresh run, now / 4s
}

// A v1 journal (no wall_us/sim_us/fx) written by two releases ago must
// resume cleanly under the current reader.
TEST(Exec, JournalV1FilesResumeUnderCurrentReader) {
  const core::RunConfig cfg = make_config("Apache1");
  const inject::FaultList list = capped_list(cfg, 7, 6);

  const std::string journal = temp_path("exec_v1compat.jsonl");
  std::filesystem::remove(journal);
  exec::ExecOptions eo;
  eo.jobs = 1;
  eo.journal_path = journal;
  const exec::CampaignResult full = exec::CampaignExecutor(eo).run(cfg, list, 7);
  ASSERT_GT(full.executed, 0u);

  // Rewrite the journal as its v1 ancestor: version 1 header, records
  // truncated before the v2 timing fields (which also drops the v3 "xi").
  std::vector<std::string> lines;
  {
    std::ifstream in(journal);
    std::string line;
    while (std::getline(in, line)) lines.push_back(line);
  }
  ASSERT_GE(lines.size(), 2u);
  {
    std::ofstream out(journal, std::ios::trunc);
    for (std::string line : lines) {
      const auto header = line.find("\"dts_journal\":3");
      if (header != std::string::npos) {
        line.replace(header, 15, "\"dts_journal\":1");
      }
      const auto v2_fields = line.find(",\"wall_us\":");
      if (v2_fields != std::string::npos) {
        line = line.substr(0, v2_fields) + "}";
      }
      out << line << "\n";
    }
  }

  exec::ExecOptions again;
  again.jobs = 2;
  again.journal_path = journal;
  again.resume = true;
  const exec::CampaignResult resumed = exec::CampaignExecutor(again).run(cfg, list, 7);
  EXPECT_EQ(resumed.reused, full.executed);
  EXPECT_EQ(resumed.executed, 0u);
  EXPECT_EQ(run_lines(resumed.runs), run_lines(full.runs));
}

// Forward compatibility the other way: records carrying fields this reader
// has never heard of still parse, and the v2 extras round-trip.
TEST(Exec, JournalReaderToleratesUnknownFieldsAndRoundTripsV2Extras) {
  const std::string path = temp_path("exec_v2fields.jsonl");
  std::filesystem::remove(path);

  exec::JournalKey key;
  key.workload = "Apache1";
  key.middleware = 0;
  key.watchd_version = 3;
  key.seed = 7;
  key.fault_count = 2;

  exec::RunJournal journal;
  std::string error;
  ASSERT_TRUE(journal.open(path, key, /*append=*/false, &error)) << error;
  exec::JournalRecord rec;
  rec.index = 0;
  rec.fault_id = "ReadFile.hFile#1:zero";
  rec.fn_called = true;
  rec.run_line = "ReadFile.hFile#1:zero 1 failure 0 123 0 0 1";
  rec.wall_us = 1832;
  rec.sim_us = 414000000;
  rec.forensics = "=== DTS forensics ===\nline \"two\"\n";
  journal.append(rec);
  {
    // A future schema rev appended a field v2 never defined.
    std::ofstream out(path, std::ios::app);
    out << "{\"i\":1,\"fault\":\"WriteFile.buf#1:rand\",\"called\":0,"
           "\"run\":\"WriteFile.buf#1:rand 0 normal 1 5 0 0 1\","
           "\"wall_us\":12,\"sim_us\":34,\"cpu_temp\":451}\n";
  }

  const auto records = exec::read_journal(path, key, &error);
  ASSERT_TRUE(records.has_value()) << error;
  ASSERT_EQ(records->size(), 2u);
  EXPECT_EQ((*records)[0].wall_us, 1832u);
  EXPECT_EQ((*records)[0].sim_us, 414000000u);
  EXPECT_EQ((*records)[0].forensics, rec.forensics);
  EXPECT_EQ((*records)[1].wall_us, 12u);
  EXPECT_EQ((*records)[1].sim_us, 34u);
  EXPECT_TRUE((*records)[1].forensics.empty());

  // And the header written today really is schema v5.
  std::ifstream in(path);
  std::string header;
  ASSERT_TRUE(std::getline(in, header));
  EXPECT_NE(header.find("\"dts_journal\":5"), std::string::npos);
}

// The sink publishes campaign progress to the status board on every path, so
// /status's "campaign" block of an in-process campaign ends complete.
TEST(Exec, InProcessCampaignFillsStatusCampaignBlock) {
  const core::RunConfig cfg = make_config("Apache1");
  const inject::FaultList list = capped_list(cfg, 7, 8);
  obs::fleet::StatusBoard board;
  exec::ExecOptions eo;
  eo.jobs = 2;
  eo.status = &board;
  const exec::CampaignResult result = exec::CampaignExecutor(eo).run(cfg, list, 7);
  ASSERT_EQ(result.runs.size(), list.faults.size());

  const std::string json = board.status_json();
  std::uint64_t done = 0, total = 0, executed = 0;
  ASSERT_TRUE(obs::json_uint_field(json, "done", &done)) << json;
  ASSERT_TRUE(obs::json_uint_field(json, "total", &total)) << json;
  ASSERT_TRUE(obs::json_uint_field(json, "executed", &executed)) << json;
  EXPECT_EQ(total, list.faults.size());
  EXPECT_EQ(done, total);
  EXPECT_EQ(executed, result.executed);
}

/// Per-label-set observation counts of histogram `name`.
std::map<std::string, std::uint64_t> histogram_counts(const obs::MetricsRegistry& m,
                                                      const std::string& name) {
  std::map<std::string, std::uint64_t> out;
  for (const obs::MetricSample& s : m.snapshot()) {
    if (s.kind != 'h' || s.name != name) continue;
    for (std::uint64_t b : s.buckets) out[s.labels] += b;
  }
  return out;
}

std::map<std::string, std::uint64_t> counter_values(const obs::MetricsRegistry& m,
                                                    const std::string& name) {
  std::map<std::string, std::uint64_t> out;
  for (const obs::MetricSample& s : m.snapshot()) {
    if (s.kind == 'c' && s.name == name) out[s.labels] = s.counter_value;
  }
  return out;
}

std::uint64_t total(const std::map<std::string, std::uint64_t>& values) {
  std::uint64_t sum = 0;
  for (const auto& [labels, v] : values) sum += v;
  return sum;
}

std::size_t chrome_run_events(const obs::MetricsRegistry& m) {
  const std::string json = m.chrome_trace_json();
  std::size_t n = 0;
  for (std::size_t at = json.find("\"cat\":\"run\""); at != std::string::npos;
       at = json.find("\"cat\":\"run\"", at + 1)) {
    ++n;
  }
  return n;
}

// Every executed run reaches the metrics the same way, whichever path ran it:
// exhaustive threads, plan rounds and forked snapshot children each record one
// wall-time observation and one Chrome run event per fresh simulation, and a
// forked campaign counts the same activations and middleware spans as the
// full-run campaign it reproduces.
TEST(Exec, MetricsCountEveryExecutedRunOnEveryPath) {
  const core::RunConfig cfg = make_config("Apache1", mw::MiddlewareKind::kMscs);
  core::CampaignOptions opt;
  opt.seed = 7;
  opt.max_faults = 40;
  opt.jobs = 2;

  const auto campaign = [&](core::CampaignOptions o, obs::MetricsRegistry* metrics) {
    o.metrics = metrics;
    const core::WorkloadSetResult r = core::run_workload_set(cfg, o);
    EXPECT_GT(r.executed_runs, 0u);
    EXPECT_EQ(total(histogram_counts(*metrics, "dts_run_wall_seconds")), r.executed_runs);
    EXPECT_EQ(chrome_run_events(*metrics), r.executed_runs);
    EXPECT_EQ(total(counter_values(*metrics, "dts_runs_total")), r.executed_runs);
    return r;
  };

  obs::MetricsRegistry full_metrics;
  const core::WorkloadSetResult full = campaign(opt, &full_metrics);

  core::CampaignOptions planned = opt;
  planned.plan.mode = plan::PlanOptions::Mode::kAuto;
  obs::MetricsRegistry plan_metrics;
  (void)campaign(planned, &plan_metrics);

  core::CampaignOptions forked = opt;
  forked.snapshots = true;
  obs::MetricsRegistry snap_metrics;
  const core::WorkloadSetResult snap = campaign(forked, &snap_metrics);
  EXPECT_GT(total(counter_values(snap_metrics, "dts_snap_forked_runs_total")), 0u);
  EXPECT_EQ(core::serialize_workload_set(snap), core::serialize_workload_set(full));
  EXPECT_EQ(snap.executed_runs, full.executed_runs);
  EXPECT_EQ(counter_values(snap_metrics, "dts_activations_total"),
            counter_values(full_metrics, "dts_activations_total"));
  const auto spans = histogram_counts(full_metrics, "dts_middleware_span_seconds");
  EXPECT_FALSE(spans.empty());
  EXPECT_EQ(histogram_counts(snap_metrics, "dts_middleware_span_seconds"), spans);
}

TEST(Exec, ProgressFormatting) {
  exec::ProgressSnapshot s;
  s.done = 30;
  s.total = 120;
  s.executed = 30;
  s.elapsed_s = 10.0;
  s.runs_per_sec = 3.0;
  s.eta_s = 30.0;
  EXPECT_EQ(exec::format_progress(s), "30/120 runs  3.0 runs/s  ETA 30s");
  exec::ProgressSnapshot cold;
  cold.done = 0;
  cold.total = 120;
  EXPECT_EQ(exec::format_progress(cold), "0/120 runs");
}

}  // namespace
}  // namespace dts
