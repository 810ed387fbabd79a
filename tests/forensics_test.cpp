// Tests for src/forensics/: execution-index parsing, call-context and trace
// digests, one-command replay (the determinism bar: outcome AND trace digest
// byte-identical for journals produced at jobs 1/2/8, snapshots on/off, and
// by a distributed coordinator), repro minimisation, failure-signature
// clustering (cluster counts reconcile exactly against journal totals),
// foreign-record quarantine, and the report renderer's HTML escaping.
// Labelled `forensics` in CTest (also in the ASan and TSan preset filters).
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/campaign.h"
#include "core/config.h"
#include "dist/coordinator.h"
#include "exec/executor.h"
#include "exec/journal.h"
#include "forensics/minimize.h"
#include "forensics/replay.h"
#include "forensics/signature.h"
#include "obs/fleet/report.h"
#include "obs/fleet/span.h"
#include "obs/fleet/status.h"
#include "obs/metrics.h"
#include "sim/rng.h"

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

/// Runs a small Apache campaign and returns its journal, freshly written.
exec::JournalFile campaign_journal(const std::string& name, int jobs,
                                   bool snapshots, std::size_t max_faults = 18,
                                   std::uint64_t seed = 7) {
  const std::string path = temp_path(name);
  std::filesystem::remove(path);
  core::CampaignOptions opt;
  opt.seed = seed;
  opt.max_faults = max_faults;
  opt.jobs = jobs;
  opt.snapshots = snapshots;
  opt.journal_path = path;
  (void)core::run_workload_set(apache_config(), opt);
  std::string error;
  auto file = exec::read_journal_file(path, &error);
  EXPECT_TRUE(file) << error;
  return *file;
}

// --- execution-index parsing -------------------------------------------------

TEST(ForensicsIndex, ParseRoundTripsAndRejectsGarbage) {
  obs::fleet::ExecutionIndex ei;
  ei.campaign_digest = 0xa3f1c0de9b24e871ull;
  ei.lease_id = 4;
  ei.fault_index = 17;
  const auto parsed = obs::fleet::ExecutionIndex::parse(ei.to_string());
  ASSERT_TRUE(parsed);
  EXPECT_EQ(parsed->campaign_digest, ei.campaign_digest);
  EXPECT_EQ(parsed->lease_id, 4u);
  EXPECT_EQ(parsed->fault_index, 17u);

  EXPECT_FALSE(obs::fleet::ExecutionIndex::parse(""));
  EXPECT_FALSE(obs::fleet::ExecutionIndex::parse("not-an-index"));
  EXPECT_FALSE(obs::fleet::ExecutionIndex::parse("a3f1c0de9b24e871/4"));
  EXPECT_FALSE(obs::fleet::ExecutionIndex::parse(ei.to_string() + "junk"));
}

// --- call context + trace digest --------------------------------------------

TEST(ForensicsDigest, StableAcrossIdenticalRunsDistinctAcrossFaults) {
  // A fault on the Apache1 master's init path — guaranteed to fire (the
  // master never calls file-serving functions; those belong to the worker).
  core::RunConfig cfg = apache_config();
  const auto fault = inject::parse_fault_id(cfg.workload.target_image,
                                            "GetStartupInfoA.lpStartupInfo#1:zero");
  ASSERT_TRUE(fault);
  cfg.seed = sim::Rng::mix(7, sim::Rng::hash(fault->id()));

  core::FaultInjectionRun a(cfg);
  (void)a.execute(*fault);
  core::FaultInjectionRun b(cfg);
  (void)b.execute(*fault);

  EXPECT_NE(a.interceptor().trace_digest(), 0u);
  EXPECT_EQ(a.interceptor().trace_digest(), b.interceptor().trace_digest());
  ASSERT_TRUE(a.interceptor().injection_context());
  ASSERT_TRUE(b.interceptor().injection_context());
  EXPECT_EQ(a.interceptor().injection_context()->to_string(),
            b.interceptor().injection_context()->to_string());
  // The context names the corrupted function and carries a path digest.
  EXPECT_NE(
      a.interceptor().injection_context()->to_string().find("GetStartupInfoA@"),
      std::string::npos);

  // A different corruption produces a different trajectory fingerprint.
  const auto other = inject::parse_fault_id(cfg.workload.target_image,
                                            "GetStartupInfoA.lpStartupInfo#1:ones");
  ASSERT_TRUE(other);
  core::RunConfig cfg2 = apache_config();
  cfg2.seed = sim::Rng::mix(7, sim::Rng::hash(other->id()));
  core::FaultInjectionRun c(cfg2);
  (void)c.execute(*other);
  EXPECT_NE(c.interceptor().trace_digest(), a.interceptor().trace_digest());
}

// --- journal v4 round trip ----------------------------------------------------

TEST(ForensicsJournal, V4FieldsRoundTrip) {
  const std::string path = temp_path("forensics_v4.jsonl");
  std::filesystem::remove(path);
  exec::JournalKey key{"Apache1", 2, 3, 7, 42};
  const std::string config_text = "[test]\nworkload = Apache1\n";
  exec::RunJournal journal;
  std::string error;
  ASSERT_TRUE(journal.open(path, key, /*append=*/false, &error, config_text))
      << error;
  exec::JournalRecord rec;
  rec.index = 17;
  rec.fault_id = "ReadFile.hFile#1:zero";
  rec.fn_called = true;
  rec.run_line = "ReadFile.hFile#1:zero 1 failure 0 123456 0 0 1";
  rec.exec_index = "a3f1c0de9b24e871/0/17";
  rec.trace_digest = 0x9b24e871a3f1c0deull;
  rec.call_context = "ReadFile@417#1/89abcdef01234567";
  journal.append(rec);

  const auto file = exec::read_journal_file(path, &error);
  ASSERT_TRUE(file) << error;
  EXPECT_EQ(file->version, 5u);
  EXPECT_EQ(file->config_text, config_text);
  ASSERT_EQ(file->records.size(), 1u);
  EXPECT_EQ(file->records[0].trace_digest, rec.trace_digest);
  EXPECT_EQ(file->records[0].call_context, rec.call_context);
}

TEST(ForensicsJournal, CampaignJournalCarriesConfigAndDigests) {
  const exec::JournalFile file = campaign_journal("forensics_cfg.jsonl", 1, false);
  EXPECT_EQ(file.version, 5u);
  // The embedded config parses back to the campaign's configuration.
  std::string error;
  const auto cfg = core::parse_config(file.config_text, &error);
  ASSERT_TRUE(cfg) << error;
  EXPECT_EQ(cfg->run.workload.name, "Apache1");
  EXPECT_EQ(cfg->campaign.seed, 7u);
  // Every executed record carries a trace digest; activated ones a context.
  std::size_t digests = 0, contexts = 0;
  for (const auto& rec : file.records) {
    if (rec.trace_digest != 0) ++digests;
    if (!rec.call_context.empty()) ++contexts;
  }
  EXPECT_GT(digests, 0u);
  EXPECT_GT(contexts, 0u);
}

// --- replay determinism (satellite 3: the forensics acceptance bar) ----------

void replay_whole_journal(const exec::JournalFile& file, const char* label) {
  std::string error;
  std::size_t failures_checked = 0;
  for (const exec::JournalRecord& rec : file.records) {
    const auto replay =
        forensics::replay_record(file, rec, forensics::ReplayOptions{}, &error);
    ASSERT_TRUE(replay) << label << ": " << error;
    EXPECT_TRUE(replay->outcome_match)
        << label << " record #" << rec.index << " fault " << rec.fault_id
        << ": journal " << replay->journal_outcome << " vs replay "
        << core::outcome_code(replay->run.outcome);
    EXPECT_TRUE(replay->run_line_match)
        << label << " record #" << rec.index << ": " << rec.run_line << " vs "
        << replay->run_line;
    EXPECT_TRUE(replay->trace_digest_match)
        << label << " record #" << rec.index << " fault " << rec.fault_id;
    EXPECT_TRUE(replay->call_context_match)
        << label << " record #" << rec.index << ": \"" << rec.call_context
        << "\" vs \"" << replay->call_context << "\"";
    if (replay->journal_outcome == "failure") ++failures_checked;
  }
  EXPECT_GT(failures_checked, 0u)
      << label << ": sweep produced no failures to replay";
}

TEST(ForensicsReplay, MatchesJournalAtAnyJobsCount) {
  replay_whole_journal(campaign_journal("forensics_j1.jsonl", 1, false), "jobs=1");
  replay_whole_journal(campaign_journal("forensics_j2.jsonl", 2, false), "jobs=2");
  replay_whole_journal(campaign_journal("forensics_j8.jsonl", 8, false), "jobs=8");
}

TEST(ForensicsReplay, MatchesSnapshotModeJournal) {
  replay_whole_journal(campaign_journal("forensics_snap.jsonl", 2, true),
                       "snapshots=on");
}

TEST(ForensicsReplay, MatchesDistributedJournal) {
  const std::string path = temp_path("forensics_dist.jsonl");
  std::filesystem::remove(path);
  core::CampaignOptions opt;
  opt.seed = 7;
  opt.max_faults = 18;
  opt.journal_path = path;
  dist::DistOptions d;
  d.spawn_workers = 2;
  dist::Coordinator fleet(opt, std::move(d));
  (void)core::run_workload_set(apache_config(), opt, std::nullopt, &fleet);
  std::string error;
  const auto file = exec::read_journal_file(path, &error);
  ASSERT_TRUE(file) << error;
  replay_whole_journal(*file, "distributed");
}

TEST(ForensicsReplay, FindRecordBySelectorKinds) {
  const exec::JournalFile file = campaign_journal("forensics_find.jsonl", 1, false);
  ASSERT_FALSE(file.records.empty());
  const exec::JournalRecord& want = file.records.front();
  std::string error;

  EXPECT_EQ(forensics::find_record(file, want.exec_index, &error), &want);
  EXPECT_EQ(forensics::find_record(file, std::to_string(want.index), &error),
            &want);
  EXPECT_EQ(forensics::find_record(file, want.fault_id, &error), &want);
  EXPECT_EQ(forensics::find_record(file, "no-such-fault#9:zero", &error), nullptr);
  EXPECT_FALSE(error.empty());
}

TEST(ForensicsReplay, DetectsTamperedRunLine) {
  exec::JournalFile file = campaign_journal("forensics_tamper.jsonl", 1, false);
  // Find an activated failure and forge its outcome: replay must disagree.
  exec::JournalRecord* victim = nullptr;
  for (auto& rec : file.records) {
    if (rec.run_line.find(" failure ") != std::string::npos) victim = &rec;
  }
  ASSERT_NE(victim, nullptr);
  const std::size_t at = victim->run_line.find(" failure ");
  victim->run_line.replace(at, 9, " normal ");
  std::string error;
  const auto replay =
      forensics::replay_record(file, *victim, forensics::ReplayOptions{}, &error);
  ASSERT_TRUE(replay) << error;
  EXPECT_FALSE(replay->outcome_match);
  EXPECT_FALSE(replay->matches());
}

// --- repro minimisation -------------------------------------------------------

TEST(ForensicsMinimize, PreservesOutcomeAndShrinks) {
  const exec::JournalFile file = campaign_journal("forensics_min.jsonl", 1, false);
  const exec::JournalRecord* failing = nullptr;
  for (const auto& rec : file.records) {
    if (rec.run_line.find(" failure ") != std::string::npos) failing = &rec;
  }
  ASSERT_NE(failing, nullptr) << "sweep produced no failure to minimise";

  std::string error;
  const auto cfg = forensics::config_from_journal(file, nullptr, &error);
  ASSERT_TRUE(cfg) << error;
  const auto fault =
      inject::parse_fault_id(cfg->workload.target_image, failing->fault_id);
  ASSERT_TRUE(fault);

  const forensics::MinimizeResult res =
      forensics::minimize_repro(*cfg, file.key.seed, *fault, core::Outcome::kFailure);
  EXPECT_EQ(res.outcome, core::Outcome::kFailure);
  EXPECT_TRUE(res.reduced) << "no reduction axis preserved the failure";
  EXPECT_LE(res.sim_us_after, res.sim_us_before);
  EXPECT_GT(res.runs_tried, 1u);

  // The emitted config is runnable and still reproduces the classification
  // under the campaign's exact seed derivation.
  core::RunConfig rerun = res.minimal.run;
  rerun.seed = sim::Rng::mix(file.key.seed, sim::Rng::hash(fault->id()));
  const core::RunResult rr = core::execute_run(rerun, *fault);
  EXPECT_EQ(rr.outcome, core::Outcome::kFailure);
  // The fault must still FIRE in the minimal config — an outcome preserved
  // by timing out before the injection point reproduces nothing.
  EXPECT_TRUE(rr.activated);

  // And it round-trips through the config file format.
  const auto parsed = core::parse_config(core::serialize_config(res.minimal), &error);
  ASSERT_TRUE(parsed) << error;
  EXPECT_EQ(parsed->run.client.max_attempts, res.minimal.run.client.max_attempts);
  EXPECT_EQ(parsed->run.client.response_timeout.count_micros(),
            res.minimal.run.client.response_timeout.count_micros());
}

// --- failure signatures -------------------------------------------------------

TEST(ForensicsSignature, DigestDependsOnEveryAxis) {
  forensics::SignatureKey key;
  key.fault_class = "file-handle:zero";
  key.call_context = "ReadFile@417#1/89abcdef01234567";
  key.outcome = "failure";
  key.span = "restart";
  const std::uint64_t base = forensics::signature_digest(key);
  for (std::string forensics::SignatureKey::* axis :
       {&forensics::SignatureKey::fault_class,
        &forensics::SignatureKey::call_context, &forensics::SignatureKey::outcome,
        &forensics::SignatureKey::span}) {
    forensics::SignatureKey other = key;
    other.*axis += "x";
    EXPECT_NE(forensics::signature_digest(other), base);
  }
  EXPECT_EQ(forensics::signature_id(key).size(), 16u);
}

TEST(ForensicsSignature, ClustersReconcileAgainstJournalTotals) {
  const exec::JournalFile file = campaign_journal("forensics_sig.jsonl", 2, false);
  const obs::fleet::FleetReport report = obs::fleet::build_report({file});

  ASSERT_FALSE(report.signatures.empty());
  std::uint64_t sum = 0;
  bool failures_lead = true;
  bool seen_non_failure = false;
  for (const auto& cluster : report.signatures) {
    sum += cluster.count;
    EXPECT_GE(cluster.campaigns, 1u);
    if (cluster.key.outcome != "failure") seen_non_failure = true;
    if (seen_non_failure && cluster.key.outcome == "failure") failures_lead = false;
  }
  // Exact reconciliation: every deduplicated record in exactly one cluster.
  EXPECT_EQ(sum, report.records);
  EXPECT_EQ(report.signature_runs, report.records);
  EXPECT_TRUE(failures_lead) << "ranking must list failure clusters first";
}

TEST(ForensicsSignature, StatusBoardJsonReconciles) {
  // A classic campaign, and a traced three-tier one whose journaled request
  // traces add the propagation-path axis.
  const std::string campaigns[] = {
      "[test]\nworkload = Apache1\nmiddleware = none\nseed = 7\nmax_faults = 12\n",
      "[test]\nmiddleware = none\nseed = 7\nmax_faults = 6\n\n[topology]\n"
      "topology = lb:2*apache -> app:2*iis -> db:1*sql_server\ntier = db\n"
      "rtrace = failures\n"};
  for (const std::string& text : campaigns) {
    std::string error;
    const auto cfg = core::parse_config(text, &error);
    ASSERT_TRUE(cfg.has_value()) << error;
    obs::fleet::StatusBoard board;
    obs::MetricsRegistry metrics;
    const std::string path = temp_path("forensics_board.jsonl");
    std::filesystem::remove(path);
    core::CampaignOptions opt = cfg->campaign;
    opt.jobs = 2;
    opt.metrics = &metrics;
    opt.status = &board;
    opt.journal_path = path;
    const core::WorkloadSetResult set = core::run_workload_set(cfg->run, opt);

    const std::string json = board.signatures_json();
    // Total signature stampings == freshly executed runs (skipped/elided runs
    // never reach the board; they carry no interceptor state to fingerprint).
    const std::string needle = "\"total\":" + std::to_string(set.executed_runs);
    EXPECT_NE(json.find(needle), std::string::npos) << json;

    // The live board ranks the clusters `ntdts report` finds in the journal.
    const auto file = exec::read_journal_file(path, &error);
    ASSERT_TRUE(file.has_value()) << error;
    std::vector<std::pair<std::string, std::uint64_t>> reported;
    for (const auto& c : obs::fleet::build_report({*file}).signatures) {
      reported.emplace_back(c.id, c.count);
    }
    std::vector<std::pair<std::string, std::uint64_t>> live;
    for (std::size_t at = 0; (at = json.find("{\"id\":\"", at)) != std::string::npos;) {
      at += 7;
      const std::string id = json.substr(at, json.find('"', at) - at);
      const std::size_t count = json.find("\"count\":", at) + 8;
      live.emplace_back(id, std::stoull(json.substr(count, json.find(',', count) - count)));
    }
    EXPECT_GT(live.size(), 1u) << json;
    EXPECT_EQ(live, reported) << json;
  }
}

// --- foreign-record quarantine (satellite 2) ---------------------------------

TEST(ForensicsForeign, ReportExcludesAndCountsForeignDigests) {
  exec::JournalFile file = campaign_journal("forensics_foreign.jsonl", 1, false);
  ASSERT_GE(file.records.size(), 2u);
  const std::uint64_t native_records = file.records.size();
  // Tamper one record's execution index to name another campaign.
  obs::fleet::ExecutionIndex foreign;
  foreign.campaign_digest = 0xdeadbeefdeadbeefull;
  foreign.lease_id = 0;
  foreign.fault_index = file.records.back().index;
  file.records.back().exec_index = foreign.to_string();

  obs::MetricsRegistry metrics;
  const obs::fleet::FleetReport report = obs::fleet::build_report({file}, &metrics);
  EXPECT_EQ(report.foreign, 1u);
  EXPECT_EQ(report.records, native_records - 1);
  ASSERT_EQ(report.groups.size(), 1u);
  EXPECT_EQ(report.groups[0].foreign, 1u);
  EXPECT_EQ(report.signature_runs, report.records);

  std::uint64_t counted = 0;
  for (const obs::MetricSample& s : metrics.snapshot()) {
    if (s.name == "dts_report_foreign_records_total") counted += s.counter_value;
  }
  EXPECT_EQ(counted, 1u);

  // The rendered report warns in both formats.
  EXPECT_NE(obs::fleet::render_report_markdown(report).find("foreign campaign"),
            std::string::npos);
  EXPECT_NE(obs::fleet::render_report_html(report).find("foreign campaign"),
            std::string::npos);
}

TEST(ForensicsForeign, ResumeSkipsForeignRecordAndStaysByteIdentical) {
  const std::string path = temp_path("forensics_foreign_resume.jsonl");
  std::filesystem::remove(path);
  core::CampaignOptions opt;
  opt.seed = 7;
  opt.max_faults = 12;
  opt.journal_path = path;
  const std::string baseline =
      core::serialize_workload_set(core::run_workload_set(apache_config(), opt));

  // Rewrite one journaled record's xi to a foreign campaign digest.
  std::ifstream in(path);
  std::vector<std::string> lines;
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  in.close();
  bool tampered = false;
  for (auto& line : lines) {
    const std::size_t at = line.find("\"xi\":\"");
    if (at == std::string::npos || tampered) continue;
    line.replace(at + 6, 16, "deadbeefdeadbeef");
    tampered = true;
  }
  ASSERT_TRUE(tampered);
  std::ofstream out(path, std::ios::trunc);
  for (const auto& line : lines) out << line << "\n";
  out.close();

  // Resume: the foreign record must be skipped (and counted), its fault
  // re-executed, and the final output still byte-identical.
  obs::MetricsRegistry metrics;
  opt.resume = true;
  opt.metrics = &metrics;
  const std::string resumed =
      core::serialize_workload_set(core::run_workload_set(apache_config(), opt));
  EXPECT_EQ(resumed, baseline);
  std::uint64_t counted = 0;
  for (const obs::MetricSample& s : metrics.snapshot()) {
    if (s.name == "dts_report_foreign_records_total") counted += s.counter_value;
  }
  EXPECT_EQ(counted, 1u);
}

// --- HTML escaping (satellite 1) ---------------------------------------------

TEST(ForensicsReport, HtmlEscapesHostileStrings) {
  exec::JournalFile hostile;
  hostile.version = 3;
  hostile.key.workload = "<script>alert('x&\"y')</script>";
  hostile.key.middleware = 0;
  hostile.key.watchd_version = 1;
  hostile.key.seed = 1;
  hostile.key.fault_count = 1;
  exec::JournalRecord rec;
  rec.index = 0;
  rec.fault_id = "Evil<Fn>.arg#1:zero";
  rec.run_line = "unparsable";
  hostile.records.push_back(rec);

  const obs::fleet::FleetReport report = obs::fleet::build_report({hostile});
  const std::string html = obs::fleet::render_report_html(report);
  EXPECT_EQ(html.find("<script>"), std::string::npos);
  EXPECT_NE(html.find("&lt;script&gt;"), std::string::npos);
  EXPECT_NE(html.find("&#39;"), std::string::npos);
  EXPECT_NE(html.find("&quot;"), std::string::npos);
  EXPECT_NE(html.find("&amp;"), std::string::npos);
  // The unparsable record still lands in a cluster (reconciliation).
  EXPECT_EQ(report.signature_runs, report.records);
}

}  // namespace
}  // namespace dts
