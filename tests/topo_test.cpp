// Multi-tier topology subsystem tests (src/topo/): parsing, config
// round-trips, golden and faulted three-tier campaigns, byte-identity across
// jobs/snapshots/distributed execution, journal v6, replay, and report
// reconciliation. Labelled `topo` in CTest (part of both sanitizer presets).
#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <map>
#include <optional>
#include <string>

#include "core/campaign.h"
#include "core/config.h"
#include "dist/coordinator.h"
#include "exec/journal.h"
#include "exec/sink.h"
#include "forensics/replay.h"
#include "forensics/signature.h"
#include "inject/fault.h"
#include "obs/fleet/report.h"
#include "topo/topology.h"

namespace dts {
namespace {

// The seed three-tier campaign of the README quickstart: a faulted single-
// replica database behind redundant web and app tiers.
constexpr char kThreeTierConfig[] =
    "[test]\n"
    "middleware = none\n"
    "seed = 7\n"
    "max_faults = 6\n"
    "\n"
    "[topology]\n"
    "topology = lb:2*apache -> app:2*iis -> db:1*sql_server\n"
    "tier = db\n";

core::DtsConfig parse_or_die(const std::string& text) {
  std::string error;
  auto cfg = core::parse_config(text, &error);
  EXPECT_TRUE(cfg.has_value()) << error;
  return cfg.value();  // throws on failure, failing the test loudly
}

std::string parse_error(const std::string& text) {
  std::string error;
  EXPECT_FALSE(core::parse_config(text, &error).has_value())
      << "config unexpectedly parsed:\n"
      << text;
  return error;
}

std::string temp_path(const std::string& name) {
  return (std::filesystem::path(::testing::TempDir()) / name).string();
}

// --- topology spec parsing ------------------------------------------------

TEST(TopologyParse, CanonicalRoundTrip) {
  std::string error;
  const auto spec =
      topo::parse_topology("lb:2*apache -> app:2*iis -> db:1*sql_server", &error);
  ASSERT_TRUE(spec) << error;
  EXPECT_EQ(spec->tiers.size(), 3u);
  EXPECT_EQ(spec->tiers[0].name, "lb");
  EXPECT_EQ(spec->tiers[0].replicas, 2);
  EXPECT_EQ(spec->tiers[0].app, "apache");
  EXPECT_EQ(spec->tiers[2].app, "sql_server");
  EXPECT_EQ(spec->fault_tier, "db");
  EXPECT_EQ(spec->to_string(), "lb:2*apache -> app:2*iis -> db:1*sql_server");
  const auto again = topo::parse_topology(spec->to_string(), &error);
  ASSERT_TRUE(again) << error;
  EXPECT_EQ(again->tiers, spec->tiers);
}

TEST(TopologyParse, RejectsMalformedSpecs) {
  const char* bad[] = {
      "",                              // empty
      "lb:2*apache ->",                // trailing arrow
      "lb:2*apache -> -> db:1*iis",    // empty middle tier
      "lb2*apache",                    // missing colon
      "lb:0*apache",                   // replicas below range
      "lb:9*apache",                   // replicas above range
      "lb:2*nginx",                    // unknown app
      "lb:2*apache -> lb:1*iis",       // duplicate tier name
      "client:1*apache",               // reserved tier name
      "Web:1*apache",                  // uppercase tier name
  };
  for (const char* text : bad) {
    std::string error;
    EXPECT_FALSE(topo::parse_topology(text, &error).has_value())
        << "unexpectedly parsed: " << text;
    EXPECT_FALSE(error.empty()) << text;
  }
}

// --- configuration parsing ------------------------------------------------

TEST(TopoConfig, ThreeTierConfigDerivesWorkloadFromFaultTier) {
  const core::DtsConfig cfg = parse_or_die(kThreeTierConfig);
  ASSERT_FALSE(cfg.run.topo.empty());
  EXPECT_EQ(cfg.run.topo.tiers.size(), 3u);
  EXPECT_EQ(cfg.run.topo.fault_tier, "db");
  // The faulted tier runs sql_server, so the fault sweep targets the SQL
  // workload's image.
  EXPECT_EQ(cfg.run.workload.name, "SQL");
  EXPECT_EQ(cfg.campaign.max_faults, 6u);
}

TEST(TopoConfig, SerializeRoundTripsTopologyAndNetwork) {
  core::DtsConfig cfg = parse_or_die(std::string(kThreeTierConfig) +
                                     "offered_rps_milli = 500\n"
                                     "requests = 10\n"
                                     "degraded_p95_ms = 2500\n"
                                     "\n"
                                     "[network]\n"
                                     "latency_us = 750\n"
                                     "link.app.db.latency_us = 1500\n");
  const std::string text = core::serialize_config(cfg);
  const core::DtsConfig again = parse_or_die(text);
  EXPECT_EQ(again.run.topo.to_string(), cfg.run.topo.to_string());
  EXPECT_EQ(again.run.topo.fault_tier, "db");
  EXPECT_EQ(again.run.topo.offered_rps_milli, 500);
  EXPECT_EQ(again.run.topo.requests, 10);
  EXPECT_EQ(again.run.topo.degraded_p95_ms, 2500);
  EXPECT_EQ(again.run.net.latency, sim::Duration::micros(750));
  ASSERT_EQ(again.run.links.size(), 1u);
  EXPECT_EQ(again.run.links[0].latency_us, 1500);
  // Serialization is a fixed point: parse(serialize(x)) serializes the same.
  EXPECT_EQ(core::serialize_config(again), text);
}

TEST(TopoConfig, WorkloadAndTopologyAreMutuallyExclusive) {
  // workload first, topology second…
  EXPECT_NE(parse_error("[test]\n"
                        "workload = IIS\n"
                        "middleware = none\n"
                        "[topology]\n"
                        "topology = db:1*sql_server\n")
                .find("mutually exclusive"),
            std::string::npos);
  // …and topology first, workload second.
  EXPECT_NE(parse_error("[topology]\n"
                        "topology = db:1*sql_server\n"
                        "[test]\n"
                        "workload = IIS\n"
                        "middleware = none\n")
                .find("mutually exclusive"),
            std::string::npos);
}

TEST(TopoConfig, StrictValidation) {
  // The named fault tier must exist in the topology.
  EXPECT_NE(parse_error("[topology]\n"
                        "topology = db:1*sql_server\n"
                        "tier = web\n")
                .find("web"),
            std::string::npos);
  // Middleware wraps the single-machine target, not a topology.
  EXPECT_NE(parse_error("[test]\n"
                        "middleware = watchd\n"
                        "[topology]\n"
                        "topology = db:1*sql_server\n")
                .find("middleware"),
            std::string::npos);
  // Topology knobs without a topology are typos, not defaults.
  EXPECT_NE(parse_error("[topology]\n"
                        "requests = 5\n")
                .find("require a topology"),
            std::string::npos);
  // Per-link overrides name tiers (or "client"); anything else is an error.
  EXPECT_NE(parse_error(std::string(kThreeTierConfig) +
                        "\n[network]\n"
                        "link.app.cache.latency_us = 10\n")
                .find("cache"),
            std::string::npos);
  // link.* without a topology has no endpoints to attach to.
  EXPECT_FALSE(parse_error("[network]\n"
                           "link.client.db.latency_us = 10\n")
                   .empty());
}

TEST(TopoConfig, GlobalNetworkSectionStandsAlone) {
  // [network] globals tune the classic single-machine campaign too.
  const core::DtsConfig cfg = parse_or_die(
      "[test]\n"
      "workload = IIS\n"
      "middleware = none\n"
      "\n"
      "[network]\n"
      "latency_us = 900\n"
      "bytes_per_second = 500000\n");
  EXPECT_TRUE(cfg.run.topo.empty());
  EXPECT_EQ(cfg.run.net.latency, sim::Duration::micros(900));
  EXPECT_EQ(cfg.run.net.bytes_per_second, 500000);
}

// --- fault ids and run lines ----------------------------------------------

TEST(TopoFaultId, TierPrefixRoundTrips) {
  const auto classic = inject::parse_fault_id("sqlservr.exe", "ReadFile.hFile#1:zero");
  ASSERT_TRUE(classic.has_value());
  EXPECT_TRUE(classic->tier.empty());
  EXPECT_EQ(classic->id(), "ReadFile.hFile#1:zero");

  const auto tiered = inject::parse_fault_id("sqlservr.exe", "db/ReadFile.hFile#1:zero");
  ASSERT_TRUE(tiered.has_value());
  EXPECT_EQ(tiered->tier, "db");
  EXPECT_EQ(tiered->id(), "db/ReadFile.hFile#1:zero");
  // Same underlying fault either way — the prefix is routing, not identity.
  EXPECT_EQ(tiered->fn, classic->fn);
  EXPECT_EQ(tiered->param_index, classic->param_index);
}

TEST(TopoRunLine, TrailerRoundTrips) {
  core::RunResult r;
  r.fault = *inject::parse_fault_id("sqlservr.exe", "db/ReadFile.hFile#1:zero");
  r.activated = true;
  r.outcome = core::Outcome::kNormalSuccess;
  core::TopoRunStats t;
  t.tier = "db";
  t.user_outcome = "masked";
  t.requests_total = 12;
  t.requests_ok = 12;
  t.p50_us = 4346223;
  t.p95_us = 5146019;
  t.p99_us = 5146019;
  t.offered_rps_milli = 1000;
  r.topo = std::make_shared<const core::TopoRunStats>(t);

  const std::string line = core::serialize_run_line(r);
  core::RunResult parsed;
  std::string error;
  ASSERT_TRUE(core::parse_run_line("sqlservr.exe", line, &parsed, &error)) << error;
  ASSERT_NE(parsed.topo, nullptr);
  EXPECT_EQ(*parsed.topo, t);
  EXPECT_EQ(core::serialize_run_line(parsed), line);

  // A classic line stays topo-free…
  r.topo.reset();
  ASSERT_TRUE(
      core::parse_run_line("sqlservr.exe", core::serialize_run_line(r), &parsed, &error));
  EXPECT_EQ(parsed.topo, nullptr);
  // …and corrupted trailers are rejected, not ignored.
  EXPECT_FALSE(core::parse_run_line("sqlservr.exe", line + " junk", &parsed, &error));
  std::string bad = line;
  bad.replace(bad.find(" topo "), 6, " trailer ");
  EXPECT_FALSE(core::parse_run_line("sqlservr.exe", bad, &parsed, &error));
  std::string bad_outcome = line;
  bad_outcome.replace(bad_outcome.find("masked"), 6, "mended");
  EXPECT_FALSE(core::parse_run_line("sqlservr.exe", bad_outcome, &parsed, &error));
}

// --- execution ------------------------------------------------------------

TEST(TopoRun, GoldenThreeTierRunIsMasked) {
  const core::DtsConfig cfg = parse_or_die(kThreeTierConfig);
  const core::RunResult golden = core::execute_run(cfg.run, std::nullopt);
  ASSERT_NE(golden.topo, nullptr);
  EXPECT_EQ(golden.topo->tier, "db");
  EXPECT_EQ(golden.topo->user_outcome, "masked");
  EXPECT_EQ(golden.topo->requests_total, cfg.run.topo.requests);
  EXPECT_EQ(golden.topo->requests_ok, cfg.run.topo.requests);
  EXPECT_GT(golden.topo->p50_us, 0);
  EXPECT_GE(golden.topo->p95_us, golden.topo->p50_us);
  EXPECT_GE(golden.topo->p99_us, golden.topo->p95_us);
  EXPECT_EQ(golden.outcome, core::Outcome::kNormalSuccess);
}

TEST(TopoRun, SingleReplicaDbFaultPropagatesToOutage) {
  const core::DtsConfig cfg = parse_or_die(kThreeTierConfig);
  core::CampaignOptions opt = cfg.campaign;
  const core::WorkloadSetResult set = core::run_workload_set(cfg.run, opt);
  ASSERT_EQ(set.runs.size(), 6u);

  std::size_t outages = 0;
  for (const auto& run : set.runs) {
    ASSERT_NE(run.topo, nullptr) << run.fault.id();
    EXPECT_EQ(run.topo->tier, "db");
    EXPECT_EQ(run.fault.tier, "db");
    if (run.topo->user_outcome == "outage") {
      ++outages;
      // A full outage means the classic axis saw a failure too.
      EXPECT_EQ(run.outcome, core::Outcome::kFailure);
      EXPECT_EQ(run.topo->requests_ok, 0);
    }
  }
  // The seed campaign kills the lone sql_server via CreateFileA: with one
  // replica there is nothing to fail over to, so the fault surfaces as a
  // user-visible outage.
  EXPECT_GE(outages, 1u);
}

TEST(TopoRun, RedundantTierMasksInstanceFaults) {
  const core::DtsConfig cfg = parse_or_die(
      "[test]\n"
      "middleware = none\n"
      "seed = 7\n"
      "max_faults = 6\n"
      "\n"
      "[topology]\n"
      "topology = lb:2*apache -> app:2*iis -> db:1*sql_server\n"
      "tier = app\n");
  EXPECT_EQ(cfg.run.workload.name, "IIS");
  const core::WorkloadSetResult set = core::run_workload_set(cfg.run, cfg.campaign);
  ASSERT_EQ(set.runs.size(), 6u);
  for (const auto& run : set.runs) {
    ASSERT_NE(run.topo, nullptr);
    EXPECT_EQ(run.topo->tier, "app");
    // Two replicas behind the tier's balancer: a single-instance fault must
    // never take out every request.
    EXPECT_NE(run.topo->user_outcome, "outage") << run.fault.id();
  }
}

// --- byte-identity --------------------------------------------------------

TEST(TopoExec, ByteIdenticalAcrossJobs) {
  const core::DtsConfig cfg = parse_or_die(kThreeTierConfig);
  core::CampaignOptions opt = cfg.campaign;

  opt.jobs = 1;
  const std::string serial = core::serialize_workload_set(core::run_workload_set(cfg.run, opt));
  opt.jobs = 2;
  const std::string two = core::serialize_workload_set(core::run_workload_set(cfg.run, opt));
  opt.jobs = 8;
  const std::string eight = core::serialize_workload_set(core::run_workload_set(cfg.run, opt));

  EXPECT_EQ(serial, two);
  EXPECT_EQ(serial, eight);
  // The topology identity survives the round-trip.
  std::string error;
  auto reloaded = core::deserialize_workload_set(eight, &error);
  ASSERT_TRUE(reloaded.has_value()) << error;
  EXPECT_EQ(reloaded->base_config.topo.to_string(), cfg.run.topo.to_string());
  EXPECT_EQ(core::serialize_workload_set(*reloaded), serial);
}

TEST(TopoSnap, SnapshotModeFallsBackToFullRunsByteIdentical) {
  const core::DtsConfig cfg = parse_or_die(kThreeTierConfig);
  core::CampaignOptions opt = cfg.campaign;

  opt.snapshots = false;
  const std::string off = core::serialize_workload_set(core::run_workload_set(cfg.run, opt));
  opt.snapshots = true;
  opt.jobs = 8;
  const std::string on = core::serialize_workload_set(core::run_workload_set(cfg.run, opt));
  EXPECT_EQ(off, on);
}

// A planned duplicate copies its representative's whole result. The planned
// app-tier set round-trips through the campaign file, and every duplicate
// carries its representative's topology stats and per-request results.
TEST(TopoPlan, DuplicatesCopyTheirRepresentative) {
  core::DtsConfig cfg = parse_or_die(
      "[test]\nmiddleware = none\nseed = 7\n\n[topology]\n"
      "topology = lb:1*apache -> app:1*iis -> db:1*sql_server\ntier = app\n"
      "requests = 2\n");
  core::CampaignOptions opt = cfg.campaign;
  opt.jobs = 2;
  opt.plan.mode = plan::PlanOptions::Mode::kAuto;
  const core::WorkloadSetResult set = core::run_workload_set(cfg.run, opt);

  std::map<std::string, const core::RunResult*> by_id;
  for (const core::RunResult& r : set.runs) by_id[r.fault.id()] = &r;
  const std::string dedup = "deduplicated: same corrupted word as ";
  std::size_t duplicates = 0;
  for (const core::RunResult& dup : set.runs) {
    if (dup.detail.rfind(dedup, 0) != 0) continue;
    ++duplicates;
    const core::RunResult& rep = *by_id.at(dup.detail.substr(dedup.size()));
    ASSERT_NE(dup.topo, nullptr) << dup.fault.id();
    ASSERT_NE(rep.topo, nullptr) << rep.fault.id();
    EXPECT_EQ(*dup.topo, *rep.topo) << dup.fault.id();
    EXPECT_EQ(exec::encode_requests(dup.requests), exec::encode_requests(rep.requests))
        << dup.fault.id();
  }
  ASSERT_GT(duplicates, 0u);

  const std::string text = core::serialize_workload_set(set);
  std::string error;
  const auto reloaded = core::deserialize_workload_set(text, &error);
  ASSERT_TRUE(reloaded.has_value()) << error;
  EXPECT_EQ(core::serialize_workload_set(*reloaded), text);
}

TEST(TopoDist, CoordinatorWorkersMatchSerialByteIdentical) {
  const core::DtsConfig cfg = parse_or_die(kThreeTierConfig);
  core::CampaignOptions opt = cfg.campaign;

  opt.jobs = 1;
  const core::WorkloadSetResult serial = core::run_workload_set(cfg.run, opt);

  dist::DistOptions d;
  d.spawn_workers = 2;
  dist::Coordinator fleet(opt, d);
  const core::WorkloadSetResult distributed =
      core::run_workload_set(cfg.run, opt, std::nullopt, &fleet);

  EXPECT_EQ(core::serialize_workload_set(distributed), core::serialize_workload_set(serial));
}

// --- journal, replay, report ----------------------------------------------

class TopoJournalTest : public ::testing::Test {
 protected:
  // One journaled three-tier campaign shared by the journal/replay/report
  // tests (runs once; each test reloads the file).
  static void SetUpTestSuite() {
    // Per-process journal: ctest runs every case in its own process, each
    // re-running this fixture — a shared path would race under `ctest -j`.
    journal_path_ = new std::string(
        temp_path("topo_journal." + std::to_string(::getpid()) + ".jsonl"));
    std::filesystem::remove(*journal_path_);
    const core::DtsConfig cfg = parse_or_die(kThreeTierConfig);
    core::CampaignOptions opt = cfg.campaign;
    opt.journal_path = *journal_path_;
    (void)core::run_workload_set(cfg.run, opt);
  }
  static void TearDownTestSuite() {
    delete journal_path_;
    journal_path_ = nullptr;
  }

  static std::string* journal_path_;
};

std::string* TopoJournalTest::journal_path_ = nullptr;

TEST_F(TopoJournalTest, JournalIsV6WithTierAnnotations) {
  std::string error;
  const auto file = exec::read_journal_file(*journal_path_, &error);
  ASSERT_TRUE(file.has_value()) << error;
  EXPECT_EQ(file->version, 6u);
  ASSERT_EQ(file->records.size(), 6u);
  for (const auto& rec : file->records) {
    EXPECT_EQ(rec.tier, "db");
    EXPECT_EQ(rec.fault_id.substr(0, 3), "db/");
  }
}

TEST_F(TopoJournalTest, ClassicCampaignJournalStaysV5TierFree) {
  const std::string path = temp_path("classic_journal.jsonl");
  std::filesystem::remove(path);
  const core::DtsConfig cfg = parse_or_die(
      "[test]\n"
      "workload = SQL\n"
      "middleware = none\n"
      "seed = 7\n"
      "max_faults = 4\n");
  core::CampaignOptions opt = cfg.campaign;
  opt.journal_path = path;
  (void)core::run_workload_set(cfg.run, opt);

  std::string error;
  const auto file = exec::read_journal_file(path, &error);
  ASSERT_TRUE(file.has_value()) << error;
  EXPECT_EQ(file->version, 5u);
  ASSERT_FALSE(file->records.empty());
  for (const auto& rec : file->records) EXPECT_TRUE(rec.tier.empty());
}

TEST_F(TopoJournalTest, ReplayOfMultiTierFailureMatches) {
  std::string error;
  const auto file = exec::read_journal_file(*journal_path_, &error);
  ASSERT_TRUE(file.has_value()) << error;

  // Replay every record — the outage and the masked ones both re-execute the
  // full topology and must reproduce the journaled run exactly.
  for (const auto& rec : file->records) {
    const auto result = forensics::replay_record(*file, rec, {}, &error);
    ASSERT_TRUE(result.has_value()) << rec.fault_id << ": " << error;
    EXPECT_TRUE(result->matches()) << rec.fault_id;
    ASSERT_NE(result->run.topo, nullptr) << rec.fault_id;
    EXPECT_EQ(result->run.topo->tier, "db");
  }
}

TEST_F(TopoJournalTest, ReportMatrixReconcilesWithJournalCounts) {
  std::string error;
  const auto file = exec::read_journal_file(*journal_path_, &error);
  ASSERT_TRUE(file.has_value()) << error;

  const auto report = obs::fleet::build_report({*file});
  ASSERT_EQ(report.groups.size(), 1u);
  const auto& g = report.groups[0];
  EXPECT_EQ(g.records, file->records.size());
  // Every record of a topology campaign carries propagation stats, and the
  // matrix cells sum back to the record count.
  EXPECT_EQ(g.topo_runs, g.records);
  std::uint64_t cells = 0;
  for (const auto& [tier, counts] : g.tier_outcomes) {
    EXPECT_EQ(tier, "db");
    for (const auto c : counts) cells += c;
  }
  EXPECT_EQ(cells, g.topo_runs);

  const std::string markdown = obs::fleet::render_report_markdown(report);
  EXPECT_NE(markdown.find("Per-tier fault propagation"), std::string::npos);
  EXPECT_NE(markdown.find("Degradation curve"), std::string::npos);
  const std::string html = obs::fleet::render_report_html(report);
  EXPECT_NE(html.find("Per-tier fault propagation"), std::string::npos);
}

// --- signatures -----------------------------------------------------------

TEST(TopoSignature, TierFoldsIntoDigestOnlyWhenPresent) {
  forensics::SignatureKey key;
  key.fault_class = "file-handle:zero";
  key.call_context = "ReadFile@417#1/89ab89ab89ab89ab";
  key.outcome = "failure";
  key.span = "none";

  const std::uint64_t classic = forensics::signature_digest(key);
  key.tier = "db";
  const std::uint64_t tiered = forensics::signature_digest(key);
  EXPECT_NE(classic, tiered);
  key.tier = "app";
  EXPECT_NE(forensics::signature_digest(key), tiered);
  // Empty tier reproduces the pre-topology digest — classic signatures from
  // old journals keep their ids.
  key.tier.clear();
  EXPECT_EQ(forensics::signature_digest(key), classic);
}


// --- run-level accounting ---------------------------------------------------

// What one run costs the simulator (events processed, KERNEL32 calls the
// interceptor saw, simulated time) and its outcome, pinned at the values of
// a simulator that queues every sleep's timer and resume: a change to how
// the clock advances must leave every one of them as it was. Each run uses
// seed 4099; the last one hits its 10 s cap, on a timer past the cap. The
// GetFileSize runs make SQL recovery trust a size of 0xFFFFFFFF: its
// ReadFileEx loop must end at end of file (ERROR_HANDLE_EOF), not read a
// million empty chunks into a 4 GB host string.
struct PinnedRun {
  const char* config;
  const char* fault;  // "" = fault-free
  std::uint64_t events;
  std::uint64_t calls;
  std::int64_t sim_us;
  core::Outcome outcome;
  bool finished = true;  // the client completed
};

constexpr char kApache1[] = "[test]\nworkload = Apache1\nmiddleware = none\n";
constexpr char kIisMscs[] = "[test]\nworkload = IIS\nmiddleware = mscs\n";
constexpr char kSql[] = "[test]\nworkload = SQL\nmiddleware = none\n";
constexpr char kTracedAppTier[] =
    "[test]\nmiddleware = none\n\n[topology]\n"
    "topology = lb:2*apache -> app:2*iis -> db:1*sql_server\n"
    "tier = app\nrtrace = failures\n";
constexpr char kApache1Capped[] =
    "[test]\nworkload = Apache1\nmiddleware = none\n\n[machine]\nrun_timeout_s = 10\n";

TEST(RunAccounting, EventsCallsClockAndOutcomeStayPinned) {
  using core::Outcome;
  const PinnedRun runs[] = {
      {kApache1, "", 1186, 393, 26'244'662, Outcome::kNormalSuccess},
      {kApache1, "CreateFileA.lpFileName#1:zero", 403, 7, 162'024'000, Outcome::kFailure},
      {kIisMscs, "", 1548, 534, 30'947'618, Outcome::kNormalSuccess},
      {kIisMscs, "HeapAlloc.hHeap#1:ones", 1661, 566, 40'947'618, Outcome::kRestartSuccess},
      {kSql, "", 244, 91, 22'108'155, Outcome::kNormalSuccess},
      {kSql, "ReadFileEx.nNumberOfBytesToRead#1:zero", 333, 113, 59'324'468,
       Outcome::kFailure},
      {kSql, "GetFileSize.hFile#1:zero", 337, 115, 59'324'468, Outcome::kFailure},
      {kSql, "GetFileSize.hFile#1:ones", 337, 115, 59'324'468, Outcome::kFailure},
      {kSql, "GetFileSize.hFile#1:flip", 337, 115, 59'324'468, Outcome::kFailure},
      {kTracedAppTier, "", 3715, 408, 30'600'000, Outcome::kNormalSuccess},
      {kTracedAppTier, "app/WaitForSingleObject.hHandle#1:zero", 4725, 426, 40'100'000,
       Outcome::kFailure},
      {kApache1Capped, "", 631, 208, 10'034'999, Outcome::kFailure, false},
  };
  for (const PinnedRun& p : runs) {
    SCOPED_TRACE(std::string(p.config) + (*p.fault != '\0' ? p.fault : "fault-free"));
    core::RunConfig rc = parse_or_die(p.config).run;
    rc.seed = 4099;
    std::optional<inject::FaultSpec> fault;
    if (*p.fault != '\0') {
      fault = inject::parse_fault_id(rc.workload.target_image, p.fault);
      ASSERT_TRUE(fault.has_value());
    }
    core::FaultInjectionRun run(rc);
    const core::RunResult r = run.execute(fault);
    EXPECT_EQ(run.simulation().events_processed(), p.events);
    EXPECT_EQ(run.interceptor().calls_observed(), p.calls);
    EXPECT_EQ(r.sim_elapsed.count_micros(), p.sim_us);
    EXPECT_EQ(r.outcome, p.outcome);
    EXPECT_EQ(r.client_finished, p.finished);
  }
}

}  // namespace
}  // namespace dts
