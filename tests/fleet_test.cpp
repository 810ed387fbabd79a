// Tests for the fleet observability layer (src/obs/fleet/): event-log
// ordering, telemetry encode/decode/merge, causal execution indices in the
// run journal, the stall detector, the live HTTP endpoint (including
// concurrent scrapes during an active campaign), worker telemetry totals
// against the journal, and the journal-merging report generator across
// schema versions. Labelled `fleet` in CTest.
#include <gtest/gtest.h>

#include <sys/wait.h>

#include <atomic>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/campaign.h"
#include "dist/coordinator.h"
#include "dist/socket.h"
#include "dist/worker.h"
#include "exec/executor.h"
#include "exec/journal.h"
#include "obs/fleet/events.h"
#include "obs/fleet/http.h"
#include "obs/fleet/report.h"
#include "obs/fleet/span.h"
#include "obs/fleet/stall.h"
#include "obs/fleet/status.h"
#include "obs/fleet/telemetry.h"
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

inject::FaultList capped_list(const core::RunConfig& cfg, std::uint64_t seed,
                              std::size_t cap) {
  const auto fns = core::profile_workload(cfg, seed);
  return inject::FaultList::for_functions(cfg.workload.target_image, fns).sampled(cap);
}

std::string temp_path(const std::string& name) {
  return (std::filesystem::path(::testing::TempDir()) / name).string();
}

/// Minimal HTTP/1.0 client against the endpoint under test: one request,
/// reads to EOF, returns the raw response (status line + headers + body).
std::string http_get(std::uint16_t port, const std::string& target,
                     const std::string& method = "GET") {
  std::string error;
  dist::Socket conn = dist::tcp_connect("127.0.0.1", port, 2000, 3, &error);
  if (!conn.valid()) return "connect failed: " + error;
  const std::string request = method + " " + target + " HTTP/1.0\r\n\r\n";
  if (!dist::send_all(conn.fd(), request, 2000)) return "send failed";
  std::string response;
  while (true) {
    const dist::RecvStatus st = dist::recv_some(conn.fd(), &response, 1 << 16, 2000);
    if (st == dist::RecvStatus::kClosed) break;
    if (st != dist::RecvStatus::kData) return "recv failed: " + response;
  }
  return response;
}

// --- execution index -----------------------------------------------------

TEST(FleetSpan, ExecutionIndexFormatsAllThreeComponents) {
  const obs::fleet::ExecutionIndex xi{0xa3f1c0de9b24e871ull, 4, 17};
  EXPECT_EQ(xi.to_string(), "a3f1c0de9b24e871/4/17");
  const obs::fleet::ExecutionIndex in_process{1, 0, 0};
  EXPECT_EQ(in_process.to_string(), "0000000000000001/0/0");
}

// --- fleet event log -----------------------------------------------------

TEST(FleetEvents, SequenceNumbersStayStrictlyOrderedUnderConcurrentWriters) {
  obs::fleet::FleetEventLog log;
  std::vector<std::thread> writers;
  for (int t = 0; t < 4; ++t) {
    writers.emplace_back([&log, t] {
      for (int i = 0; i < 200; ++i) {
        log.record(obs::fleet::FleetEventKind::kLeaseIssued, t,
                   static_cast<std::uint64_t>(i + 1), "stress");
      }
    });
  }
  for (auto& w : writers) w.join();

  const std::vector<obs::fleet::FleetEvent> entries = log.entries();
  ASSERT_EQ(entries.size(), 800u);
  EXPECT_EQ(log.total(), 800u);
  EXPECT_EQ(log.dropped(), 0u);
  for (std::size_t i = 1; i < entries.size(); ++i) {
    EXPECT_LT(entries[i - 1].seq, entries[i].seq);
    EXPECT_LE(entries[i - 1].mono_us, entries[i].mono_us);
  }
}

TEST(FleetEvents, CapacityBoundDropsOldestAndTailReturnsNewest) {
  obs::fleet::FleetEventLog log(4);
  for (int i = 0; i < 10; ++i) {
    log.record(obs::fleet::FleetEventKind::kWorkerConnect, i, 0, "");
  }
  EXPECT_EQ(log.total(), 10u);
  EXPECT_EQ(log.dropped(), 6u);
  const auto entries = log.entries();
  ASSERT_EQ(entries.size(), 4u);
  EXPECT_EQ(entries.front().worker_id, 6);
  const auto tail = log.tail(2);
  ASSERT_EQ(tail.size(), 2u);
  EXPECT_EQ(tail[0].worker_id, 8);
  EXPECT_EQ(tail[1].worker_id, 9);
}

// Lifecycle events from a real distributed campaign arrive in causal order:
// a worker connects before it is ever issued a lease.
TEST(FleetEvents, DistributedCampaignRecordsConnectBeforeLease) {
  const core::RunConfig cfg = make_config("Apache1");
  const inject::FaultList list = capped_list(cfg, 7, 6);

  obs::fleet::FleetEventLog events;
  core::CampaignOptions campaign;
  campaign.seed = 7;
  dist::DistOptions d;
  d.spawn_workers = 1;
  d.events = &events;
  dist::Coordinator coordinator(campaign, d);
  const exec::CampaignResult result =
      exec::CampaignExecutor(campaign, {}, nullptr, &coordinator).run(cfg, list, 7);
  ASSERT_FALSE(result.runs.empty());

  std::uint64_t connect_seq = 0, lease_seq = 0;
  bool saw_connect = false, saw_lease = false;
  for (const auto& e : events.entries()) {
    if (e.kind == obs::fleet::FleetEventKind::kWorkerConnect && !saw_connect) {
      connect_seq = e.seq;
      saw_connect = true;
    }
    if (e.kind == obs::fleet::FleetEventKind::kLeaseIssued && !saw_lease) {
      lease_seq = e.seq;
      saw_lease = true;
      EXPECT_GT(e.lease_id, 0u);
    }
  }
  ASSERT_TRUE(saw_connect);
  ASSERT_TRUE(saw_lease);
  EXPECT_LT(connect_seq, lease_seq);
}

// --- telemetry encode/decode/merge ---------------------------------------

TEST(FleetTelemetry, SnapshotSurvivesEncodeDecodeRoundTrip) {
  obs::MetricsRegistry registry;
  registry.counter("dts_runs_total", {{"outcome", "normal"}}, "runs").inc(41);
  registry.gauge("dts_budget_seconds", {{"fn", "ReadFile"}}, "budget").set(0.125);
  obs::Histogram& h = registry.histogram("dts_wall_seconds", {},
                                         {0.001, 0.01, 0.1}, "wall");
  h.observe(0.0005);
  h.observe(0.05);
  h.observe(5.0);

  const std::string encoded = obs::fleet::encode_samples(registry.snapshot());
  const std::vector<obs::MetricSample> decoded = obs::fleet::decode_samples(encoded);
  // Round-tripping the decoded samples reproduces the payload byte for byte.
  EXPECT_EQ(obs::fleet::encode_samples(decoded), encoded);

  bool saw_hist = false;
  for (const auto& s : decoded) {
    if (s.name != "dts_wall_seconds") continue;
    saw_hist = true;
    ASSERT_EQ(s.bounds.size(), 3u);
    ASSERT_EQ(s.buckets.size(), 4u);  // +Inf last
    EXPECT_EQ(s.buckets[0], 1u);
    EXPECT_EQ(s.buckets[2], 1u);
    EXPECT_EQ(s.buckets[3], 1u);
  }
  EXPECT_TRUE(saw_hist);
}

TEST(FleetTelemetry, DecodeSkipsMalformedLines) {
  const std::string payload =
      "c\tdts_ok_total\t\t5\thelp\n"
      "totally not a sample\n"
      "h\tdts_broken\t\t1 2;9;0\t\n"  // bucket count != bounds count + 1
      "g\tdts_ok_gauge\t\t1.5\t\n";
  const auto samples = obs::fleet::decode_samples(payload);
  ASSERT_EQ(samples.size(), 2u);
  EXPECT_EQ(samples[0].name, "dts_ok_total");
  EXPECT_EQ(samples[0].counter_value, 5u);
  EXPECT_EQ(samples[1].name, "dts_ok_gauge");
  EXPECT_DOUBLE_EQ(samples[1].gauge_value, 1.5);
}

TEST(FleetTelemetry, MergeSplicesWorkerLabelAndStaysMonotonic) {
  obs::MetricsRegistry worker;
  worker.counter("dts_runs_total", {{"outcome", "normal"}}, "runs").inc(7);

  obs::MetricsRegistry fleet;
  obs::fleet::merge_samples(fleet, 3, obs::fleet::decode_samples(
                                          obs::fleet::encode_samples(worker.snapshot())));
  obs::Counter& merged = fleet.counter_at(
      "dts_runs_total", "{outcome=\"normal\",worker=\"3\"}", "runs");
  EXPECT_EQ(merged.value(), 7u);

  // A stale (older) snapshot arriving after a newer one can't wind back.
  obs::MetricsRegistry stale;
  stale.counter("dts_runs_total", {{"outcome", "normal"}}, "runs").inc(2);
  obs::fleet::merge_samples(fleet, 3, stale.snapshot());
  EXPECT_EQ(merged.value(), 7u);

  // Other workers land in distinct children.
  obs::fleet::merge_samples(fleet, 4, worker.snapshot());
  EXPECT_EQ(fleet.counter_at("dts_runs_total", "{outcome=\"normal\",worker=\"4\"}")
                .value(),
            7u);
  EXPECT_EQ(merged.value(), 7u);
}

// --- stall detector ------------------------------------------------------

TEST(FleetStall, ArmsAfterWarmupAndFlagsOutliersAgainstPriorWindow) {
  obs::MetricsRegistry metrics;
  obs::fleet::FleetEventLog events;
  obs::fleet::StallDetector stall(&metrics, &events);
  const plan::StratumKey key{nt::Fn::ReadFile, inject::FaultType::kZero};

  // Cold stratum: nothing flags while the window is below min_samples.
  for (int i = 0; i < 7; ++i) {
    EXPECT_FALSE(stall.observe(key, 0.001, "f", "xi"));
    EXPECT_EQ(stall.budget_s(key), 0.0);
  }
  EXPECT_FALSE(stall.observe(key, 0.001, "f", "xi"));  // 8th arms the budget
  EXPECT_GT(stall.budget_s(key), 0.0);

  // Tight cluster: budget = median + k*IQR + slack ≈ 3ms for 1ms samples.
  const double budget = stall.budget_s(key);
  EXPECT_LT(budget, 0.01);

  // A wildly slow run flags — and is judged against the budget computed
  // *before* it entered the window.
  EXPECT_TRUE(stall.observe(key, 1.0, "ReadFile.hFile#1:zero",
                            "00000000000000ff/2/9"));
  EXPECT_EQ(stall.anomalies(), 1u);

  // The anomaly landed in the event log and in the metrics registry.
  bool saw_anomaly_event = false;
  for (const auto& e : events.entries()) {
    if (e.kind == obs::fleet::FleetEventKind::kAnomaly) {
      saw_anomaly_event = true;
      EXPECT_NE(e.detail.find("ReadFile.hFile#1:zero"), std::string::npos);
      EXPECT_NE(e.detail.find("00000000000000ff/2/9"), std::string::npos);
    }
  }
  EXPECT_TRUE(saw_anomaly_event);
  EXPECT_NE(metrics.prometheus_text().find("dts_anomaly_runs_total"),
            std::string::npos);

  // A separate stratum has its own cold window.
  const plan::StratumKey other{nt::Fn::WriteFile, inject::FaultType::kZero};
  EXPECT_FALSE(stall.observe(other, 1.0, "f", "xi"));
}

// --- status board --------------------------------------------------------

TEST(FleetStatus, RunsJsonFiltersByWorkerAndOutcome) {
  obs::fleet::StatusBoard board;
  board.record_run({0, "a#1:zero", "normal", 100, 1, 10, "x/1/0"});
  board.record_run({1, "b#1:zero", "failure", 200, 2, 11, "x/2/1"});
  board.record_run({2, "c#1:zero", "failure", 300, 1, 10, "x/1/2"});

  const std::string by_worker = board.runs_json("1", "");
  EXPECT_NE(by_worker.find("\"matched\":2"), std::string::npos);
  EXPECT_NE(by_worker.find("a#1:zero"), std::string::npos);
  EXPECT_EQ(by_worker.find("b#1:zero"), std::string::npos);

  const std::string by_outcome = board.runs_json("", "failure");
  EXPECT_NE(by_outcome.find("\"matched\":2"), std::string::npos);
  EXPECT_EQ(by_outcome.find("a#1:zero"), std::string::npos);

  const std::string both = board.runs_json("1", "failure");
  EXPECT_NE(both.find("\"matched\":1"), std::string::npos);
  EXPECT_NE(both.find("c#1:zero"), std::string::npos);

  const auto counts = board.outcome_counts();
  EXPECT_EQ(counts.at("normal"), 1u);
  EXPECT_EQ(counts.at("failure"), 2u);
}

// --- HTTP endpoint -------------------------------------------------------

TEST(FleetHttp, ServesRoutesParsesQueriesAndRejectsUnknown) {
  obs::fleet::HttpEndpoint http;
  http.handle("/ping", [](const obs::fleet::HttpRequest& req) {
    obs::fleet::HttpResponse r;
    std::ostringstream body;
    body << "pong";
    for (const auto& [k, v] : req.query) body << " " << k << "=" << v;
    r.body = body.str();
    return r;
  });
  std::string error;
  ASSERT_TRUE(http.start("127.0.0.1", 0, &error)) << error;
  ASSERT_GT(http.port(), 0);

  const std::string ok = http_get(http.port(), "/ping?worker=3&outcome=failure");
  EXPECT_NE(ok.find("HTTP/1.0 200"), std::string::npos);
  EXPECT_NE(ok.find("pong outcome=failure worker=3"), std::string::npos);

  const std::string head = http_get(http.port(), "/ping", "HEAD");
  EXPECT_NE(head.find("HTTP/1.0 200"), std::string::npos);
  EXPECT_EQ(head.find("pong"), std::string::npos);

  const std::string missing = http_get(http.port(), "/nope");
  EXPECT_NE(missing.find("HTTP/1.0 404"), std::string::npos);
  // The 404 body is fixed and bounded — no echo of the requested path.
  EXPECT_NE(missing.find("Content-Length: 10"), std::string::npos);
  EXPECT_NE(missing.find("not found\n"), std::string::npos);
  EXPECT_EQ(missing.find("/nope"), std::string::npos);
  EXPECT_NE(http_get(http.port(), "/ping", "POST").find("HTTP/1.0 405"),
            std::string::npos);
  http.stop();
}

TEST(FleetHttp, HealthzIsBuiltInAndUserRoutesCanOverrideIt) {
  obs::fleet::HttpEndpoint::Options opts;
  opts.version = "fleet-test-1.2";
  obs::fleet::HttpEndpoint http(opts);
  std::string error;
  ASSERT_TRUE(http.start("127.0.0.1", 0, &error)) << error;

  // No registration needed: every endpoint answers the liveness probe.
  const std::string healthz = http_get(http.port(), "/healthz");
  EXPECT_NE(healthz.find("HTTP/1.0 200"), std::string::npos);
  EXPECT_NE(healthz.find("Content-Type: application/json"), std::string::npos);
  EXPECT_NE(healthz.find("\"status\":\"ok\""), std::string::npos);
  EXPECT_NE(healthz.find("\"version\":\"fleet-test-1.2\""), std::string::npos);
  EXPECT_NE(healthz.find("\"uptime_s\":"), std::string::npos);

  // HEAD gets the same status with an empty body.
  const std::string head = http_get(http.port(), "/healthz", "HEAD");
  EXPECT_NE(head.find("HTTP/1.0 200"), std::string::npos);
  EXPECT_EQ(head.find("status"), std::string::npos);
  http.stop();

  // A user handler on the same path wins over the built-in.
  obs::fleet::HttpEndpoint custom;
  custom.handle("/healthz", [](const obs::fleet::HttpRequest&) {
    return obs::fleet::HttpResponse{200, "text/plain; charset=utf-8", "custom"};
  });
  ASSERT_TRUE(custom.start("127.0.0.1", 0, &error)) << error;
  const std::string overridden = http_get(custom.port(), "/healthz");
  EXPECT_NE(overridden.find("custom"), std::string::npos);
  EXPECT_EQ(overridden.find("uptime_s"), std::string::npos);
  custom.stop();
}

// A client that connects and never sends costs the endpoint at most one
// bounded read timeout; later requests still succeed.
TEST(FleetHttp, SilentClientCannotWedgeTheEndpoint) {
  obs::fleet::HttpEndpoint::Options opts;
  opts.io_timeout_ms = 200;
  obs::fleet::HttpEndpoint http(opts);
  http.handle("/ping", [](const obs::fleet::HttpRequest&) {
    return obs::fleet::HttpResponse{200, "text/plain; charset=utf-8", "pong"};
  });
  std::string error;
  ASSERT_TRUE(http.start("127.0.0.1", 0, &error)) << error;

  std::string cerr2;
  dist::Socket silent = dist::tcp_connect("127.0.0.1", http.port(), 2000, 3, &cerr2);
  ASSERT_TRUE(silent.valid()) << cerr2;
  // Leave `silent` open and mute; the endpoint must time it out and move on.
  EXPECT_NE(http_get(http.port(), "/ping").find("pong"), std::string::npos);
  http.stop();
}

// The acceptance test for the live endpoint: concurrent scrapes during an
// active campaign always see valid Prometheus text and never block the
// campaign to a halt.
TEST(FleetHttp, ConcurrentScrapesDuringActiveCampaignStayValid) {
  obs::MetricsRegistry metrics;
  obs::fleet::FleetEventLog events;
  obs::fleet::StatusBoard board;
  obs::fleet::StallDetector stall(&metrics, &events);

  obs::fleet::HttpEndpoint http;
  http.handle("/metrics", [&metrics](const obs::fleet::HttpRequest&) {
    return obs::fleet::HttpResponse{200, "text/plain; charset=utf-8",
                                    metrics.prometheus_text()};
  });
  http.handle("/status", [&board, &events](const obs::fleet::HttpRequest&) {
    return obs::fleet::HttpResponse{200, "application/json",
                                    board.status_json(&events)};
  });
  std::string error;
  ASSERT_TRUE(http.start("127.0.0.1", 0, &error)) << error;

  std::atomic<bool> done{false};
  std::atomic<int> scrapes{0};
  std::thread scraper([&] {
    while (!done.load()) {
      const std::string text = http_get(http.port(), "/metrics");
      ASSERT_NE(text.find("HTTP/1.0 200"), std::string::npos);
      const std::string status = http_get(http.port(), "/status");
      ASSERT_NE(status.find("\"campaign\""), std::string::npos);
      scrapes.fetch_add(1);
    }
  });

  const core::RunConfig cfg = make_config("Apache1");
  const inject::FaultList list = capped_list(cfg, 7, 12);
  exec::ExecOptions eo;
  eo.jobs = 2;
  eo.metrics = &metrics;
  eo.stall = &stall;
  eo.status = &board;
  const exec::CampaignResult result = exec::CampaignExecutor(eo).run(cfg, list, 7);
  done.store(true);
  scraper.join();

  ASSERT_FALSE(result.runs.empty());
  EXPECT_GT(scrapes.load(), 0);
  // The final scrape of a finished campaign parses as Prometheus text with
  // the campaign's own counters present.
  const std::string text = metrics.prometheus_text();
  EXPECT_NE(text.find("# TYPE dts_runs_total counter"), std::string::npos);
  http.stop();
}

// --- journal v3 execution indices ----------------------------------------

TEST(FleetSpan, JournalRecordsCarryExecutionIndices) {
  const core::RunConfig cfg = make_config("Apache1");
  const inject::FaultList list = capped_list(cfg, 7, 6);
  const std::string journal = temp_path("fleet_xi.jsonl");
  std::filesystem::remove(journal);

  exec::ExecOptions eo;
  eo.jobs = 1;
  eo.journal_path = journal;
  const exec::CampaignResult result = exec::CampaignExecutor(eo).run(cfg, list, 7);
  ASSERT_GT(result.executed, 0u);

  std::string error;
  const auto file = exec::read_journal_file(journal, &error);
  ASSERT_TRUE(file.has_value()) << error;
  EXPECT_EQ(file->version, 5u);
  ASSERT_FALSE(file->records.empty());
  for (const auto& rec : file->records) {
    // In-process: digest/0/fault_index.
    std::ostringstream expected_suffix;
    expected_suffix << "/0/" << rec.index;
    ASSERT_FALSE(rec.exec_index.empty());
    EXPECT_EQ(rec.exec_index.size() - rec.exec_index.find('/'),
              expected_suffix.str().size());
    EXPECT_NE(rec.exec_index.find(expected_suffix.str()), std::string::npos);
  }
  // All records of one campaign share one digest.
  const std::string digest =
      file->records[0].exec_index.substr(0, file->records[0].exec_index.find('/'));
  EXPECT_EQ(digest.size(), 16u);
  for (const auto& rec : file->records) {
    EXPECT_EQ(rec.exec_index.substr(0, 16), digest);
  }
}

// --- worker telemetry totals vs the journal ------------------------------

// The tentpole acceptance bar: with telemetry on, the per-worker run totals
// merged into the coordinator registry sum exactly to the journal's record
// count — the fleet view and the durable record agree run for run.
TEST(FleetTelemetry, WorkerRunTotalsSumExactlyToJournalRecords) {
  const core::RunConfig cfg = make_config("Apache1");
  const inject::FaultList list = capped_list(cfg, 7, 12);
  const std::string journal = temp_path("fleet_totals.jsonl");
  std::filesystem::remove(journal);

  obs::MetricsRegistry metrics;
  obs::fleet::FleetEventLog events;
  core::CampaignOptions campaign;
  campaign.seed = 7;
  campaign.journal_path = journal;
  campaign.metrics = &metrics;
  dist::DistOptions d;
  d.spawn_workers = 2;
  d.events = &events;
  d.telemetry_ms = 50;
  dist::Coordinator coordinator(campaign, d);
  const exec::CampaignResult result =
      exec::CampaignExecutor(campaign, {}, nullptr, &coordinator).run(cfg, list, 7);
  ASSERT_FALSE(result.runs.empty());

  std::uint64_t worker_runs = 0;
  bool saw_worker_child = false;
  for (const auto& s : metrics.snapshot()) {
    if (s.name != "dts_runs_total") continue;
    if (s.labels.find("worker=\"") == std::string::npos) continue;
    saw_worker_child = true;
    worker_runs += s.counter_value;
  }
  ASSERT_TRUE(saw_worker_child);
  EXPECT_GT(metrics.counter("dts_fleet_telemetry_frames_total").value(), 0u);

  std::string error;
  const auto file = exec::read_journal_file(journal, &error);
  ASSERT_TRUE(file.has_value()) << error;
  EXPECT_EQ(worker_runs, file->records.size());

  // Distributed records carry their lease in the execution index (never 0).
  for (const auto& rec : file->records) {
    const std::size_t slash = rec.exec_index.find('/');
    ASSERT_NE(slash, std::string::npos);
    EXPECT_NE(rec.exec_index[slash + 1], '0');
  }
}

// --- journal compat + report ---------------------------------------------

/// Rewrites a current (v5) journal file as its v2 ancestor: version 2
/// header, embedded "config" dropped, "xi"/"td"/"cc"/"fm" fields stripped.
void downgrade_journal_to_v2(const std::string& path, const std::string& out) {
  std::vector<std::string> lines;
  {
    std::ifstream in(path);
    std::string line;
    while (std::getline(in, line)) lines.push_back(line);
  }
  std::ofstream dst(out, std::ios::trunc);
  for (std::string line : lines) {
    const auto header = line.find("\"dts_journal\":5");
    if (header != std::string::npos) {
      line.replace(header, 15, "\"dts_journal\":2");
      // "config" is the header's last field; keep the closing brace.
      const auto config = line.find(",\"config\":\"");
      if (config != std::string::npos) line.erase(config, line.size() - 1 - config);
    }
    for (const char* field : {",\"xi\":\"", ",\"td\":\"", ",\"cc\":\"", ",\"fm\":\""}) {
      const auto at = line.find(field);
      if (at == std::string::npos) continue;
      const auto end = line.find('"', at + std::string(field).size());
      ASSERT_NE(end, std::string::npos);
      line.erase(at, end - at + 1);
    }
    dst << line << "\n";
  }
}

TEST(FleetJournalCompat, V2JournalsResumeUnderV3ReaderWithNothingReExecuted) {
  const core::RunConfig cfg = make_config("Apache1");
  const inject::FaultList list = capped_list(cfg, 7, 8);
  const std::string journal = temp_path("fleet_v2compat.jsonl");
  std::filesystem::remove(journal);

  exec::ExecOptions eo;
  eo.jobs = 1;
  eo.journal_path = journal;
  const exec::CampaignResult full = exec::CampaignExecutor(eo).run(cfg, list, 7);
  ASSERT_GT(full.executed, 0u);

  downgrade_journal_to_v2(journal, journal);

  exec::ExecOptions again;
  again.jobs = 2;
  again.journal_path = journal;
  again.resume = true;
  const exec::CampaignResult resumed = exec::CampaignExecutor(again).run(cfg, list, 7);
  EXPECT_EQ(resumed.executed, 0u);
  EXPECT_EQ(resumed.reused, full.executed);
}

TEST(FleetReport, MixedVersionMergeDeduplicatesAndMatchesAggregateCounts) {
  const core::RunConfig cfg = make_config("Apache1");
  const inject::FaultList list = capped_list(cfg, 7, 10);
  const std::string v3_path = temp_path("fleet_report_v3.jsonl");
  const std::string v2_path = temp_path("fleet_report_v2.jsonl");
  std::filesystem::remove(v3_path);

  exec::ExecOptions eo;
  eo.jobs = 1;
  eo.journal_path = v3_path;
  const exec::CampaignResult result = exec::CampaignExecutor(eo).run(cfg, list, 7);
  ASSERT_GT(result.executed, 0u);
  downgrade_journal_to_v2(v3_path, v2_path);

  std::string error;
  const auto v3 = exec::read_journal_file(v3_path, &error);
  ASSERT_TRUE(v3.has_value()) << error;
  const auto v2 = exec::read_journal_file(v2_path, &error);
  ASSERT_TRUE(v2.has_value()) << error;
  EXPECT_EQ(v2->version, 2u);
  EXPECT_EQ(v2->records.size(), v3->records.size());

  // Merging a journal with its own downgraded copy must change nothing but
  // the duplicate count: every v2 record dedups against its v3 twin.
  const obs::fleet::FleetReport merged = obs::fleet::build_report({*v3, *v2});
  const obs::fleet::FleetReport solo = obs::fleet::build_report({*v3});
  ASSERT_EQ(merged.groups.size(), 1u);
  EXPECT_EQ(merged.records, solo.records);
  EXPECT_EQ(merged.records, v3->records.size());
  EXPECT_EQ(merged.duplicates, v2->records.size());
  EXPECT_EQ(merged.outcomes, solo.outcomes);
  EXPECT_EQ(merged.groups[0].min_version, 2u);
  EXPECT_EQ(merged.groups[0].max_version, 5u);

  // The aggregate outcome counts reproduce the executor's own results.
  std::array<std::uint64_t, 5> expected{};
  for (const auto& run : result.runs) {
    ++expected[static_cast<std::size_t>(run.outcome)];
  }
  EXPECT_EQ(merged.outcomes, expected);

  // Both renderers mention the merged schema range and every outcome column.
  const std::string md = obs::fleet::render_report_markdown(merged);
  EXPECT_NE(md.find("schema versions 2..5"), std::string::npos);
  EXPECT_NE(md.find("## Outcome matrix"), std::string::npos);
  const std::string html = obs::fleet::render_report_html(merged);
  EXPECT_NE(html.find("<table>"), std::string::npos);
}

TEST(FleetReport, DistinctCampaignsStaySeparateGroups) {
  const core::RunConfig cfg = make_config("Apache1");
  const inject::FaultList list = capped_list(cfg, 7, 6);
  const std::string a_path = temp_path("fleet_report_a.jsonl");
  const std::string b_path = temp_path("fleet_report_b.jsonl");
  std::filesystem::remove(a_path);
  std::filesystem::remove(b_path);

  exec::ExecOptions eo;
  eo.jobs = 1;
  eo.journal_path = a_path;
  exec::CampaignExecutor(eo).run(cfg, list, 7);
  eo.journal_path = b_path;
  exec::CampaignExecutor(eo).run(cfg, list, 11);  // different seed

  std::string error;
  const auto a = exec::read_journal_file(a_path, &error);
  ASSERT_TRUE(a.has_value()) << error;
  const auto b = exec::read_journal_file(b_path, &error);
  ASSERT_TRUE(b.has_value()) << error;

  const obs::fleet::FleetReport report = obs::fleet::build_report({*a, *b});
  EXPECT_EQ(report.groups.size(), 2u);
  EXPECT_EQ(report.duplicates, 0u);
  EXPECT_EQ(report.records, a->records.size() + b->records.size());
  // Multi-group reports render a total row.
  EXPECT_NE(obs::fleet::render_report_markdown(report).find("| total |"),
            std::string::npos);
}

}  // namespace
}  // namespace dts
