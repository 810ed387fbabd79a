// Tests for the snapshot subsystem (src/snap/): per-component COW
// capture/restore round-trips, world digests, checkpoint placement, and the
// correctness bar of the fork execution path — campaign output byte-identical
// to the unsnapshotted executor at any jobs count, including across journal
// resume in either direction. Labelled `snap` in CTest (also in the ASan and
// TSan preset filters).
#include <gtest/gtest.h>

#include <cstddef>
#include <filesystem>
#include <fstream>
#include <set>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "core/campaign.h"
#include "ntsim/event_log.h"
#include "ntsim/filesystem.h"
#include "ntsim/handle_table.h"
#include "ntsim/kernel.h"
#include "ntsim/memory.h"
#include "ntsim/netsim.h"
#include "ntsim/object.h"
#include "ntsim/registry.h"
#include "ntsim/scm.h"
#include "obs/metrics.h"
#include "plan/checkpoints.h"
#include "sim/event_queue.h"
#include "sim/simulation.h"
#include "snap/fork_runner.h"
#include "snap/snapshot.h"

namespace dts {
namespace {

std::string temp_path(const std::string& name) {
  return (std::filesystem::path(::testing::TempDir()) / name).string();
}

// --- per-component round-trips: capture -> mutate -> restore -> deep equal ---

TEST(SnapComponents, MemoryRoundTripAndCowSharing) {
  nt::VirtualMemory mem;
  const nt::Ptr a = mem.alloc(64);
  const nt::Ptr b = mem.alloc(256);
  mem.write_bytes(a, "hello snapshot");
  mem.write_u32(b, 0xDEADBEEF);

  nt::CowStats stats;
  const nt::VirtualMemory::Snapshot s1 = mem.capture(&stats);
  // First capture: nothing was shared yet, every payload privately owned.
  EXPECT_EQ(stats.shared_blocks, 0u);
  EXPECT_EQ(stats.copied_blocks, 2u);
  EXPECT_GT(stats.copied_bytes, 0u);

  // A second capture structure-shares with the first (use_count > 1).
  nt::CowStats stats2;
  const nt::VirtualMemory::Snapshot s2 = mem.capture(&stats2);
  EXPECT_EQ(stats2.shared_blocks, 2u);
  EXPECT_EQ(stats2.copied_blocks, 0u);
  EXPECT_EQ(s1, s2);

  // Mutate: the write must clone the shared payload, not corrupt s1.
  mem.write_bytes(a, "mutated!!");
  mem.write_u32(b, 0x1234);
  const nt::Ptr c = mem.alloc(16);
  mem.write_u32(c, 7);
  EXPECT_GE(mem.cow_copies(), 2u);
  const nt::VirtualMemory::Snapshot s3 = mem.capture(nullptr);
  EXPECT_FALSE(s1 == s3);

  mem.restore(s1);
  EXPECT_EQ(mem.read_bytes(a, 14), "hello snapshot");
  EXPECT_EQ(mem.read_u32(b), 0xDEADBEEF);
  EXPECT_EQ(mem.capture(nullptr), s1);
}

TEST(SnapComponents, FilesystemRoundTripSharesContent) {
  nt::Filesystem fs;
  fs.put_file("C:\\inetpub\\wwwroot\\index.html", "<html>golden</html>");
  fs.put_file("C:\\temp\\scratch.txt", "scratch");

  nt::CowStats stats;
  const nt::Filesystem::Snapshot s1 = fs.capture(&stats);

  fs.put_file("C:\\temp\\scratch.txt", "overwritten");
  fs.put_file("C:\\temp\\new.txt", "created after capture");
  fs.mkdirs("C:\\later");
  const nt::Filesystem::Snapshot s2 = fs.capture(nullptr);
  EXPECT_FALSE(s1 == s2);

  fs.restore(s1);
  EXPECT_EQ(fs.get_file("C:\\temp\\scratch.txt").value_or(""), "scratch");
  EXPECT_FALSE(fs.exists("C:\\temp\\new.txt"));
  EXPECT_FALSE(fs.exists("C:\\later"));
  EXPECT_EQ(fs.capture(nullptr), s1);
}

TEST(SnapComponents, RegistryRoundTrip) {
  nt::Registry reg;
  ASSERT_TRUE(reg.create_key("HKLM\\Software\\DTS"));
  ASSERT_TRUE(reg.set_string("HKLM\\Software\\DTS", "version", "1.0"));
  ASSERT_TRUE(reg.set_dword("HKLM\\Software\\DTS", "runs", 42));

  const nt::Registry::Snapshot s1 = reg.capture();
  ASSERT_TRUE(reg.set_dword("HKLM\\Software\\DTS", "runs", 43));
  ASSERT_TRUE(reg.create_key("HKLM\\Software\\Other"));
  ASSERT_TRUE(reg.delete_value("HKLM\\Software\\DTS", "version"));
  EXPECT_FALSE(reg.capture() == s1);

  reg.restore(s1);
  EXPECT_EQ(reg.get_dword("HKLM\\Software\\DTS", "runs").value_or(0), 42u);
  EXPECT_EQ(reg.get_string("HKLM\\Software\\DTS", "version").value_or(""), "1.0");
  EXPECT_FALSE(reg.key_exists("HKLM\\Software\\Other"));
  EXPECT_EQ(reg.capture(), s1);
}

TEST(SnapComponents, EventLogRoundTrip) {
  nt::EventLog log;
  log.write(sim::TimePoint{}, nt::EventSeverity::kInformation, "SCM", 1, "start");
  log.write(sim::TimePoint{} + sim::Duration::seconds(1), nt::EventSeverity::kError,
            "SCM", 2, "crash");

  const nt::EventLog::Snapshot s1 = log.capture();
  log.write(sim::TimePoint{} + sim::Duration::seconds(2),
            nt::EventSeverity::kInformation, "SCM", 3, "restart");
  log.set_retention(1);
  EXPECT_FALSE(log.capture() == s1);

  log.restore(s1);
  EXPECT_EQ(log.entries().size(), 2u);
  EXPECT_EQ(log.retention(), 0u);
  EXPECT_EQ(log.capture(), s1);
}

TEST(SnapComponents, ScmRoundTrip) {
  sim::Simulation sim(1);
  nt::Machine machine(sim, nt::MachineConfig{.name = "target"});
  nt::ServiceConfig svc;
  svc.name = "W3SVC";
  svc.image = "inetinfo.exe";
  svc.command_line = "inetinfo.exe -svc";
  machine.scm().register_service(svc);

  const nt::Scm::Snapshot s1 = machine.scm().capture();
  nt::ServiceConfig extra;
  extra.name = "Apache";
  extra.image = "apache.exe";
  machine.scm().register_service(extra);
  EXPECT_FALSE(machine.scm().capture() == s1);

  machine.scm().restore(s1);
  EXPECT_EQ(machine.scm().capture(), s1);
}

TEST(SnapComponents, HandleTableRoundTripSharesObjects) {
  sim::Simulation sim(1);
  nt::HandleTable table;
  const nt::Handle h1 =
      table.insert(std::make_shared<nt::EventObject>(sim, false, false));
  const nt::Handle h2 =
      table.insert(std::make_shared<nt::EventObject>(sim, true, true));

  const nt::HandleTable::Snapshot s1 = table.capture();
  ASSERT_TRUE(table.close(h1));
  table.insert(std::make_shared<nt::EventObject>(sim, false, true));
  EXPECT_FALSE(table.capture() == s1);

  table.restore(s1);
  // Pointer-identity equality: the restored table holds the *same* live
  // kernel objects the capture saw.
  EXPECT_EQ(table.capture(), s1);
  EXPECT_EQ(table.get(h1), s1.table.at(h1.value));
  EXPECT_EQ(table.get(h2), s1.table.at(h2.value));
}

TEST(SnapComponents, NetworkRoundTripAndDivergenceCheck) {
  sim::Simulation sim(1);
  nt::net::Network net(sim);
  auto listener = net.listen("target", 80);
  ASSERT_NE(listener, nullptr);

  const nt::net::Network::Snapshot s1 = net.capture();
  EXPECT_EQ(s1.bound_ports.size(), 1u);

  // Same bound-port set: restore succeeds and carries the counter.
  nt::net::Network::Snapshot altered = s1;
  altered.connections = 42;
  EXPECT_TRUE(net.restore(altered));
  EXPECT_EQ(net.connections_made(), 42u);
  EXPECT_EQ(net.capture(), altered);

  // Structurally diverged world (extra bound port): restore refuses.
  auto second = net.listen("target", 8080);
  ASSERT_NE(second, nullptr);
  EXPECT_FALSE(net.restore(s1));
}

TEST(SnapComponents, EventQueueRoundTripPreservesPopOrder) {
  sim::EventQueue q;
  std::vector<int> fired;
  q.push(sim::TimePoint{} + sim::Duration::seconds(3), [&] { fired.push_back(3); });
  q.push(sim::TimePoint{} + sim::Duration::seconds(1), [&] { fired.push_back(1); });
  q.push(sim::TimePoint{} + sim::Duration::seconds(2), [&] { fired.push_back(2); });

  const sim::EventQueue::Snapshot s1 = q.capture();
  ASSERT_EQ(s1.heap.size(), 3u);

  // Drain once, recording the (time-ordered) firing sequence.
  while (!q.empty()) q.pop()();
  EXPECT_EQ(fired, (std::vector<int>{1, 2, 3}));

  // Restore and drain again: identical order, callbacks still live.
  q.restore(s1);
  EXPECT_EQ(q.size(), 3u);
  while (!q.empty()) q.pop()();
  EXPECT_EQ(fired, (std::vector<int>{1, 2, 3, 1, 2, 3}));

  // Seq continuity: events pushed after a restore keep monotonic tie-break
  // order relative to the snapshot's events.
  q.restore(s1);
  q.push(sim::TimePoint{} + sim::Duration::seconds(1), [&] { fired.push_back(9); });
  fired.clear();
  while (!q.empty()) q.pop()();
  EXPECT_EQ(fired, (std::vector<int>{1, 9, 2, 3}));
}

// --- whole-world capture/restore and digests --------------------------------

TEST(SnapWorld, CaptureRestoreDigestStability) {
  core::RunConfig cfg;
  cfg.workload = core::workload_by_name("Apache1");
  cfg.seed = 7;
  core::FaultInjectionRun run(cfg);
  (void)run.execute(std::nullopt);

  // Post-run world: capture, mutate, restore, digest must return.
  const snap::WorldSnapshot s1 = snap::capture_world(run, 0);
  EXPECT_EQ(s1.digest, snap::world_digest(s1));

  run.target().fs().put_file("C:\\mutate.txt", "x");
  const snap::WorldSnapshot s2 = snap::capture_world(run, 0);
  EXPECT_NE(s1.digest, s2.digest);

  ASSERT_TRUE(snap::restore_world(run, s1));
  const snap::WorldSnapshot s3 = snap::capture_world(run, 0);
  EXPECT_EQ(s1.digest, s3.digest);

  // The stored snapshot's payloads were structure-shared across the mutation
  // and restore; recomputing its digest must still match (COW held).
  EXPECT_EQ(snap::world_digest(s1), s1.digest);
}

TEST(SnapWorld, SnapshotIdentityFoldsAllParts) {
  const std::uint64_t id = plan::snapshot_identity(1, 2, 3);
  EXPECT_NE(id, plan::snapshot_identity(9, 2, 3));
  EXPECT_NE(id, plan::snapshot_identity(1, 9, 3));
  EXPECT_NE(id, plan::snapshot_identity(1, 2, 9));
}

TEST(SnapWorld, CheckpointPlacement) {
  using plan::place_checkpoints;
  // Dedup + sort; unbounded keeps every distinct site.
  EXPECT_EQ(place_checkpoints({5, 1, 5, 3}, 0),
            (std::vector<std::uint64_t>{1, 3, 5}));
  // Capped placement keeps the earliest site and lands only on real sites.
  const auto placed = place_checkpoints({10, 20, 30, 40, 50, 60, 70, 80}, 3);
  ASSERT_EQ(placed.size(), 3u);
  EXPECT_EQ(placed.front(), 10u);
  EXPECT_EQ(placed.back(), 80u);
  EXPECT_EQ(place_checkpoints({10, 20, 30}, 1), (std::vector<std::uint64_t>{10}));
  EXPECT_TRUE(place_checkpoints({}, 4).empty());
}

// --- the correctness bar ----------------------------------------------------

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

// Campaign output with snapshots on must be byte-identical to the default
// executor at jobs 1, 2 and 8 — the subsystem's acceptance bar.
TEST(SnapCampaign, ByteIdenticalAcrossModesAndJobs) {
  const core::RunConfig cfg = apache_config();
  const std::string baseline = campaign_output(cfg, /*snapshots=*/false, 1, 18);
  EXPECT_EQ(campaign_output(cfg, /*snapshots=*/true, 1, 18), baseline);
  EXPECT_EQ(campaign_output(cfg, /*snapshots=*/true, 2, 18), baseline);
  EXPECT_EQ(campaign_output(cfg, /*snapshots=*/true, 8, 18), baseline);
}

// Planned campaigns (plan entries carry their own call sites) must agree too.
TEST(SnapCampaign, PlannedCampaignByteIdentical) {
  const core::RunConfig cfg = apache_config();
  core::CampaignOptions opt;
  opt.seed = 7;
  opt.max_faults = 18;
  opt.plan.mode = plan::PlanOptions::Mode::kAuto;
  opt.snapshots = false;
  const std::string baseline =
      core::serialize_workload_set(core::run_workload_set(cfg, opt));
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

// An explicit fault list honours snapshots too: it forks, runs every listed
// fault, and serializes byte-identically to the full-run campaign. Its second
// invocations sit past the one-invocation capture window, so they take the
// golden-tail and full-run paths.
TEST(SnapCampaign, ExplicitFaultListForksAndStaysByteIdentical) {
  if (!snap::snapshots_supported()) GTEST_SKIP() << "no fork on this platform";
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
  const core::WorkloadSetResult forked = core::run_workload_set(cfg, opt, list);
  EXPECT_EQ(core::serialize_workload_set(forked), core::serialize_workload_set(plain));
  std::uint64_t forked_runs = 0;
  for (const obs::MetricSample& s : metrics.snapshot()) {
    if (s.name == "dts_snap_forked_runs_total") forked_runs += s.counter_value;
  }
  EXPECT_GT(forked_runs, 0u) << "explicit fault list ignored snapshots";
}

// Guard against the subsystem silently degenerating into all-fallback: on a
// POSIX host the campaign above must actually fork most of its runs from
// snapshots, and the metrics must show it.
TEST(SnapFork, CampaignActuallyForks) {
  if (!snap::snapshots_supported()) GTEST_SKIP() << "no fork on this platform";
  obs::MetricsRegistry metrics;
  core::CampaignOptions opt;
  opt.seed = 7;
  opt.max_faults = 18;
  opt.snapshots = true;
  opt.metrics = &metrics;
  (void)core::run_workload_set(apache_config(), opt);

  std::uint64_t forked = 0, snapshots = 0, violations = 0, shared_bytes = 0;
  for (const obs::MetricSample& s : metrics.snapshot()) {
    if (s.name == "dts_snap_forked_runs_total") forked += s.counter_value;
    if (s.name == "dts_snap_snapshots_total") snapshots += s.counter_value;
    if (s.name == "dts_snap_cow_violations_total") violations += s.counter_value;
    if (s.name == "dts_snap_shared_bytes_total") shared_bytes += s.counter_value;
  }
  EXPECT_GT(forked, 0u) << "snapshot campaign never forked a run";
  EXPECT_GT(snapshots, 0u);
  EXPECT_GT(shared_bytes, 0u) << "snapshots are not structure-sharing";
  EXPECT_EQ(violations, 0u) << "COW self-check tripped";
}

// The fallback path must execute every item on a platform (or configuration)
// where forking is unsupported — nothing is ever dropped.
TEST(SnapFork, UnsupportedConfigurationsFallBack) {
  core::RunConfig cfg = apache_config();
  EXPECT_EQ(snap::unsupported_reason(cfg, /*tracing=*/false), "");
  EXPECT_NE(snap::unsupported_reason(cfg, /*tracing=*/true), "");
  cfg.target_jitter = 0.1;
  EXPECT_NE(snap::unsupported_reason(cfg, /*tracing=*/false), "");
  cfg.target_jitter = 0.0;
  cfg.golden_capture = 4;
  EXPECT_NE(snap::unsupported_reason(cfg, /*tracing=*/false), "");
}

}  // namespace
}  // namespace dts
