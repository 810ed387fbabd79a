// Tests for the distributed campaign subsystem (src/dist/): wire framing,
// socket edge paths (loopback only), and coordinator + multi-process worker
// campaigns — including a forced worker crash — whose output must stay
// byte-identical to a serial sweep. Labelled `dist` in CTest (also run under
// ASan/TSan presets).
#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <numeric>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "core/campaign.h"
#include "core/config.h"
#include "core/report.h"
#include "dist/coordinator.h"
#include "dist/protocol.h"
#include "dist/socket.h"
#include "dist/wire.h"
#include "dist/worker.h"
#include "exec/executor.h"
#include "exec/journal.h"
#include "exec/sink.h"
#include "obs/fleet/span.h"
#include "obs/fleet/status.h"
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

std::vector<std::string> run_lines(const std::vector<core::RunResult>& runs) {
  std::vector<std::string> out;
  out.reserve(runs.size());
  for (const auto& r : runs) out.push_back(core::serialize_run_line(r));
  return out;
}

std::string temp_path(const std::string& name) {
  return (std::filesystem::path(::testing::TempDir()) / name).string();
}

/// Forks a worker process joining the loopback coordinator at `port`.
pid_t fork_worker(std::uint16_t port, int crash_after_runs = -1) {
  dist::WorkerOptions w;
  w.port = port;
  w.crash_after_runs = crash_after_runs;
  return dist::spawn_worker_process(w, /*close_fd=*/-1);
}

/// Forks a worker that joins the coordinator at `port` only once a byte
/// arrives on `gate` (a pipe), or the pipe closes.
pid_t fork_gated_worker(std::uint16_t port, const int gate[2]) {
  const pid_t pid = ::fork();
  if (pid != 0) return pid;
  ::close(gate[1]);
  char byte = 0;
  while (::read(gate[0], &byte, 1) < 0 && errno == EINTR) {
  }
  ::close(gate[0]);
  dist::WorkerOptions w;
  w.port = port;
  std::string error;
  _exit(dist::run_worker(w, &error));
}

// --- wire framing --------------------------------------------------------

TEST(DistWire, FramesReassembleFromSingleByteFeeds) {
  const std::vector<std::string> payloads = {"{\"type\":\"hello\"}", "", "x",
                                             std::string(1000, 'z')};
  std::string stream;
  for (const auto& p : payloads) stream += dist::encode_frame(p);

  dist::FrameDecoder decoder;
  std::vector<std::string> got;
  for (char c : stream) {
    decoder.feed(std::string_view(&c, 1));  // worst-case short reads
    while (auto f = decoder.next()) got.push_back(*f);
  }
  EXPECT_EQ(got, payloads);
  EXPECT_TRUE(decoder.at_frame_boundary());
  EXPECT_TRUE(decoder.error().empty());
}

TEST(DistWire, OversizedFrameRejectedBothWays) {
  EXPECT_THROW((void)dist::encode_frame(std::string(dist::kMaxFramePayload + 1, 'a')),
               std::length_error);

  dist::FrameDecoder decoder;
  decoder.feed(std::to_string(dist::kMaxFramePayload + 1) + "\n");
  EXPECT_FALSE(decoder.next().has_value());
  EXPECT_FALSE(decoder.error().empty());
  // Poisoned for good: even valid bytes afterwards yield nothing.
  decoder.feed(dist::encode_frame("ok"));
  EXPECT_FALSE(decoder.next().has_value());
}

TEST(DistWire, MalformedLengthPrefixPoisonsStream) {
  dist::FrameDecoder decoder;
  decoder.feed("GET / HTTP/1.1\r\n");  // a peer speaking the wrong protocol
  EXPECT_FALSE(decoder.next().has_value());
  EXPECT_FALSE(decoder.error().empty());
  EXPECT_FALSE(decoder.at_frame_boundary());
}

TEST(DistWire, MidFrameIsNotAFrameBoundary) {
  dist::FrameDecoder decoder;
  const std::string frame = dist::encode_frame("{\"type\":\"done\"}");
  decoder.feed(std::string_view(frame).substr(0, frame.size() / 2));
  EXPECT_FALSE(decoder.next().has_value());
  EXPECT_FALSE(decoder.at_frame_boundary());  // a disconnect here tears a frame
  decoder.feed(std::string_view(frame).substr(frame.size() / 2));
  EXPECT_TRUE(decoder.next().has_value());
  EXPECT_TRUE(decoder.at_frame_boundary());
}

// --- protocol messages ---------------------------------------------------

TEST(DistProtocol, MessagesRoundTrip) {
  dist::Welcome w;
  w.workload = "Apache1";
  w.middleware = 2;
  w.watchd_version = 3;
  w.seed = 7;
  w.fault_count = 42;
  w.digest = 0xdeadbeefull;
  w.config = "[test]\nworkload = Apache1\n";
  w.trace = obs::TraceMode::kFailures;
  w.forensics_depth = 24;
  const auto w2 = dist::decode_welcome(dist::encode_welcome(w));
  ASSERT_TRUE(w2.has_value());
  EXPECT_EQ(w2->workload, w.workload);
  EXPECT_EQ(w2->config, w.config);
  EXPECT_EQ(w2->digest, w.digest);
  EXPECT_EQ(w2->trace, w.trace);
  EXPECT_EQ(w2->forensics_depth, w.forensics_depth);

  dist::Lease lease;
  lease.lease_id = 3;
  lease.digest = 9;
  lease.indices = {4, 5, 9};
  lease.fault_ids = {"a.b#1:zero", "a.b#2:rand", "c.d#1:null"};
  const auto l2 = dist::decode_lease(dist::encode_lease(lease));
  ASSERT_TRUE(l2.has_value());
  EXPECT_EQ(l2->indices, lease.indices);
  EXPECT_EQ(l2->fault_ids, lease.fault_ids);

  std::vector<core::RequestResult> reqs(2);
  reqs[0].ok = true;
  reqs[0].attempts = 1;
  reqs[1].ok = false;
  reqs[1].attempts = 3;
  const auto back = dist::decode_requests(dist::encode_requests(reqs));
  ASSERT_EQ(back.size(), 2u);
  EXPECT_TRUE(back[0].ok);
  EXPECT_EQ(back[1].attempts, 3);

  // RESULT carries the whole run record: every field survives the frame, and
  // a journal write/read as well.
  dist::WireResult r;
  r.lease_id = 12;
  r.index = 5;
  r.fault_id = "app/ReadFile.hFile#1:zero";
  r.fn_called = true;
  r.run_line = "app/ReadFile.hFile#1:zero 1 failure 1 15000000 1 2 1";
  r.wall_us = 1832;
  r.sim_us = 414000000;
  r.forensics = "=== DTS forensics: x ===\n\"quoted\" \\ tail";
  r.stratum = "ReadFile/zero";
  r.exec_index = "00000000deadbeef/12/5";
  r.trace_digest = 0xfedcba9876543210ull;  // beyond 2^53: travels as hex
  r.call_context = "ReadFile@417#1/89abcdef01234567";
  r.model = "oserror:transient";
  r.tier = "app";
  r.rtrace = "d=0123456789abcdef i=3 s=1,0,request,client,control,0,100,ok,0";
  r.requests = dist::encode_requests(reqs);
  r.detail = "crash: access violation, \"wrong\" response";
  r.spans = exec::encode_spans({{"mscs.detection", sim::TimePoint::from_micros(1000),
                                  sim::TimePoint::from_micros(2500)},
                                 {"mscs.recovery", sim::TimePoint::from_micros(2500),
                                  sim::TimePoint::from_micros(9000)}});
  const auto same_journal_fields = [](const exec::JournalRecord& a,
                                      const exec::JournalRecord& b) {
    EXPECT_EQ(a.index, b.index);
    EXPECT_EQ(a.fault_id, b.fault_id);
    EXPECT_EQ(a.fn_called, b.fn_called);
    EXPECT_EQ(a.run_line, b.run_line);
    EXPECT_EQ(a.wall_us, b.wall_us);
    EXPECT_EQ(a.sim_us, b.sim_us);
    EXPECT_EQ(a.forensics, b.forensics);
    EXPECT_EQ(a.stratum, b.stratum);
    EXPECT_EQ(a.exec_index, b.exec_index);
    EXPECT_EQ(a.trace_digest, b.trace_digest);
    EXPECT_EQ(a.call_context, b.call_context);
    EXPECT_EQ(a.model, b.model);
    EXPECT_EQ(a.tier, b.tier);
    EXPECT_EQ(a.rtrace, b.rtrace);
  };
  const auto r2 = dist::decode_result(dist::encode_result(r));
  ASSERT_TRUE(r2.has_value());
  EXPECT_EQ(r2->lease_id, r.lease_id);
  same_journal_fields(*r2, r);
  EXPECT_EQ(r2->requests, r.requests);
  EXPECT_EQ(r2->detail, r.detail);
  EXPECT_EQ(r2->spans, r.spans);
  const auto spans = exec::decode_spans(r2->spans);
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[1].name, "mscs.recovery");
  EXPECT_EQ(spans[1].duration().count_micros(), 6500);

  const std::string journal = temp_path("dist_result_roundtrip.jsonl");
  {
    exec::RunJournal out;
    std::string error;
    ASSERT_TRUE(out.open(journal, {}, /*append=*/false, &error)) << error;
    out.append(*r2);
  }
  std::string error;
  const auto file = exec::read_journal_file(journal, &error);
  ASSERT_TRUE(file.has_value()) << error;
  ASSERT_EQ(file->records.size(), 1u);
  same_journal_fields(file->records[0], r);
  // The journal keeps what results.csv and the run sink read.
  EXPECT_EQ(file->records[0].requests, r.requests);
  EXPECT_EQ(file->records[0].detail, r.detail);
  EXPECT_EQ(file->records[0].spans, r.spans);
}

// --- socket edge paths (loopback) ----------------------------------------

TEST(DistSocket, ConnectFailureIsBoundedAndReported) {
  // Grab an ephemeral port, then free it so nothing listens there.
  std::string error;
  std::uint16_t dead_port = 0;
  {
    dist::Listener probe = dist::Listener::open("127.0.0.1", 0, &error);
    ASSERT_TRUE(probe.valid()) << error;
    dead_port = probe.port();
  }
  const auto start = std::chrono::steady_clock::now();
  dist::Socket s = dist::tcp_connect("127.0.0.1", dead_port, /*timeout_ms=*/200,
                                     /*retries=*/2, &error);
  const auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_FALSE(s.valid());
  EXPECT_FALSE(error.empty());
  EXPECT_LT(std::chrono::duration_cast<std::chrono::seconds>(elapsed).count(), 10);
}

TEST(DistSocket, ShortWritesAndReadsReassemble) {
  std::string error;
  dist::Listener listener = dist::Listener::open("127.0.0.1", 0, &error);
  ASSERT_TRUE(listener.valid()) << error;
  dist::Socket client =
      dist::tcp_connect("127.0.0.1", listener.port(), 1000, 0, &error);
  ASSERT_TRUE(client.valid()) << error;
  dist::Socket server = listener.accept(1000);
  ASSERT_TRUE(server.valid());

  const std::string payload(64 * 1024, 'q');  // larger than one recv cap
  const std::string frame = dist::encode_frame(payload);
  for (std::size_t off = 0; off < frame.size(); off += 1024) {
    ASSERT_TRUE(dist::send_all(client.fd(),
                               std::string_view(frame).substr(off, 1024), 1000));
  }

  dist::FrameDecoder decoder;
  std::string got;
  while (true) {
    if (auto f = decoder.next()) {
      got = *f;
      break;
    }
    std::string chunk;
    const auto st = dist::recv_some(server.fd(), &chunk, 4096, 1000);
    ASSERT_EQ(st, dist::RecvStatus::kData);
    decoder.feed(chunk);
  }
  EXPECT_EQ(got, payload);
}

TEST(DistSocket, PeerDisconnectMidFrameIsDetected) {
  std::string error;
  dist::Listener listener = dist::Listener::open("127.0.0.1", 0, &error);
  ASSERT_TRUE(listener.valid()) << error;
  dist::Socket client =
      dist::tcp_connect("127.0.0.1", listener.port(), 1000, 0, &error);
  ASSERT_TRUE(client.valid()) << error;
  dist::Socket server = listener.accept(1000);
  ASSERT_TRUE(server.valid());

  const std::string frame = dist::encode_frame("{\"type\":\"ready\",\"digest\":1}");
  ASSERT_TRUE(dist::send_all(client.fd(),
                             std::string_view(frame).substr(0, frame.size() - 3), 1000));
  client.close();  // crash mid-frame

  dist::FrameDecoder decoder;
  for (;;) {
    std::string chunk;
    const auto st = dist::recv_some(server.fd(), &chunk, 4096, 1000);
    if (st == dist::RecvStatus::kData) {
      decoder.feed(chunk);
      continue;
    }
    EXPECT_EQ(st, dist::RecvStatus::kClosed);
    break;
  }
  EXPECT_FALSE(decoder.next().has_value());
  EXPECT_FALSE(decoder.at_frame_boundary());  // the tear is visible
}

TEST(DistSocket, ReadFromSilentPeerTimesOut) {
  std::string error;
  dist::Listener listener = dist::Listener::open("127.0.0.1", 0, &error);
  ASSERT_TRUE(listener.valid()) << error;
  dist::Socket client =
      dist::tcp_connect("127.0.0.1", listener.port(), 1000, 0, &error);
  ASSERT_TRUE(client.valid()) << error;
  dist::Socket server = listener.accept(1000);
  ASSERT_TRUE(server.valid());

  std::string chunk;
  EXPECT_EQ(dist::recv_some(server.fd(), &chunk, 4096, /*timeout_ms=*/50),
            dist::RecvStatus::kTimeout);
  EXPECT_TRUE(chunk.empty());
}

TEST(DistSocket, ParseHostPort) {
  const auto hp = dist::parse_host_port("10.1.2.3:8080");
  ASSERT_TRUE(hp.has_value());
  EXPECT_EQ(hp->first, "10.1.2.3");
  EXPECT_EQ(hp->second, 8080);
  EXPECT_FALSE(dist::parse_host_port("nohost").has_value());
  EXPECT_FALSE(dist::parse_host_port("host:notaport").has_value());
  EXPECT_FALSE(dist::parse_host_port("host:99999").has_value());
}

// --- coordinator + worker fleet ------------------------------------------

/// Runs the campaign in-process (workers == 0) or on a fleet of `workers`
/// spawned worker processes.
core::WorkloadSetResult run_on(const core::RunConfig& cfg, const core::CampaignOptions& opt,
                               int workers,
                               const std::optional<inject::FaultList>& list = std::nullopt) {
  if (workers == 0) return core::run_workload_set(cfg, opt, list);
  dist::DistOptions d;
  d.spawn_workers = workers;
  dist::Coordinator fleet(opt, d);
  return core::run_workload_set(cfg, opt, list, &fleet);
}

// The tentpole acceptance bar: a coordinator with two worker processes
// produces byte-identical output to the in-process serial executor —
// including results.csv, which renders per-request results and details that
// travel over the wire, not through the journal.
TEST(DistCampaign, TwoWorkerProcessesMatchSerialByteIdentical) {
  const core::RunConfig cfg = make_config("Apache1", mw::MiddlewareKind::kWatchd);
  core::CampaignOptions opt;
  opt.seed = 7;
  opt.max_faults = 16;

  opt.jobs = 1;
  const core::WorkloadSetResult serial = core::run_workload_set(cfg, opt);

  obs::MetricsRegistry metrics;
  core::CampaignOptions dopt = opt;
  dopt.metrics = &metrics;
  const core::WorkloadSetResult distributed = run_on(cfg, dopt, 2);

  EXPECT_EQ(core::serialize_workload_set(distributed),
            core::serialize_workload_set(serial));
  EXPECT_EQ(core::runs_csv(distributed), core::runs_csv(serial));
  EXPECT_EQ(metrics.counter("dts_dist_leases_reassigned_total").value(), 0u);
  EXPECT_GT(metrics.counter("dts_dist_leases_issued_total").value(), 0u);
  EXPECT_GT(metrics.counter("dts_dist_bytes_sent_total").value(), 0u);
  EXPECT_GT(metrics.counter("dts_dist_bytes_received_total").value(), 0u);
}

/// dts_runs_total summed over every outcome series.
std::uint64_t runs_total(const obs::MetricsRegistry& metrics) {
  std::uint64_t total = 0;
  for (const obs::MetricSample& s : metrics.snapshot()) {
    if (s.name == "dts_runs_total") total += s.counter_value;
  }
  return total;
}

/// The values of every `"key":<number>` field in `json`.
std::vector<std::uint64_t> json_numbers(const std::string& json, const std::string& key) {
  const std::string needle = "\"" + key + "\":";
  std::vector<std::uint64_t> values;
  for (std::size_t at = json.find(needle); at != std::string::npos;
       at = json.find(needle, at + needle.size())) {
    values.push_back(std::strtoull(json.c_str() + at + needle.size(), nullptr, 10));
  }
  return values;
}

/// The Chrome trace's rows: the tids a thread_name names, and for each tid
/// carrying run events whether they were leased (execution-index lease != 0)
/// or ran in-process.
struct TraceRows {
  std::set<int> named;
  std::map<int, std::set<bool>> leased;
};

TraceRows trace_rows(const obs::MetricsRegistry& metrics) {
  const std::string json = metrics.chrome_trace_json();
  const std::string start = "{\"ph\":\"";
  TraceRows rows;
  for (std::size_t at = json.find(start); at != std::string::npos;) {
    const std::size_t next = json.find(start, at + start.size());
    const std::string ev = json.substr(at, next == std::string::npos ? next : next - at);
    at = next;
    const int tid = std::stoi(ev.substr(ev.find("\"tid\":") + 6));
    if (ev.find("\"name\":\"thread_name\"") != std::string::npos) {
      rows.named.insert(tid);
    } else if (ev.find("\"cat\":\"run\"") != std::string::npos) {
      const std::size_t xi = ev.find("\"xi\":\"") + 6;
      const auto index =
          obs::fleet::ExecutionIndex::parse(ev.substr(xi, ev.find('"', xi) - xi));
      EXPECT_TRUE(index.has_value()) << ev;
      rows.leased[tid].insert(index && index->lease_id != 0);
    }
  }
  return rows;
}

/// The names (fault ids) of the Chrome trace's run events, sorted.
std::vector<std::string> run_event_names(const obs::MetricsRegistry& metrics) {
  const std::string json = metrics.chrome_trace_json();
  const std::string name_key = "\"name\":\"";
  const std::string run_cat = "\",\"cat\":\"run\"";
  std::vector<std::string> names;
  for (std::size_t at = json.find(run_cat); at != std::string::npos;
       at = json.find(run_cat, at + run_cat.size())) {
    const std::size_t begin = json.rfind(name_key, at) + name_key.size();
    names.push_back(json.substr(begin, at - begin));
  }
  std::sort(names.begin(), names.end());
  return names;
}

/// One campaign's output on one execution path: the set, its journal, its
/// middleware-span observation counts and summed sim microseconds keyed by
/// span name, how many runs were synthesized, dts_runs_total summed over
/// every series, the Chrome trace's run events, the dts_run_wall_seconds
/// observations, and the dts_activations_total values by label set.
struct PathOutput {
  core::WorkloadSetResult set;
  exec::JournalFile journal;
  std::map<std::string, std::pair<std::uint64_t, std::int64_t>> spans;
  std::uint64_t synthesized = 0;
  std::uint64_t runs_total = 0;
  std::vector<std::string> run_events;
  TraceRows rows;
  std::uint64_t wall_observations = 0;
  std::map<std::string, std::uint64_t> activations;
};

/// The journal's records in fault order, each rendered in the record codec
/// with the two path-dependent parts normalized: wall time, and the lease
/// field of the execution index (0 in-process, the lease id on a fleet),
/// which a forensics dump names too.
std::vector<std::string> normalized_records(const exec::JournalFile& file) {
  std::vector<exec::JournalRecord> records = file.records;
  std::sort(records.begin(), records.end(),
            [](const auto& a, const auto& b) { return a.index < b.index; });
  std::vector<std::string> out;
  for (exec::JournalRecord rec : records) {
    rec.wall_us = 0;
    const auto xi = obs::fleet::ExecutionIndex::parse(rec.exec_index);
    EXPECT_TRUE(xi.has_value()) << rec.exec_index;
    if (xi) {
      const std::string in_process =
          obs::fleet::ExecutionIndex{xi->campaign_digest, 0, xi->fault_index}.to_string();
      for (std::size_t at = 0;
           (at = rec.forensics.find(rec.exec_index, at)) != std::string::npos;
           at += in_process.size()) {
        rec.forensics.replace(at, rec.exec_index.size(), in_process);
      }
      rec.exec_index = in_process;
    }
    std::string line;
    exec::write_record_fields(&line, rec);
    out.push_back(std::move(line));
  }
  return out;
}

PathOutput run_path(const core::RunConfig& cfg, core::CampaignOptions opt,
                    const std::string& journal, int workers,
                    const std::optional<inject::FaultList>& list = std::nullopt) {
  std::filesystem::remove(journal);
  obs::MetricsRegistry metrics;
  opt.journal_path = journal;
  opt.metrics = &metrics;
  PathOutput out;
  out.set = run_on(cfg, opt, workers, list);
  std::string error;
  auto file = exec::read_journal_file(journal, &error);
  EXPECT_TRUE(file.has_value()) << error;
  if (file) out.journal = std::move(*file);
  out.runs_total = runs_total(metrics);
  out.run_events = run_event_names(metrics);
  out.rows = trace_rows(metrics);
  for (const obs::MetricSample& s : metrics.snapshot()) {
    if (s.name == "dts_snap_synthesized_runs_total") out.synthesized += s.counter_value;
    if (s.name == "dts_activations_total") out.activations[s.labels] = s.counter_value;
    if (s.name == "dts_run_wall_seconds") {
      for (std::uint64_t b : s.buckets) out.wall_observations += b;
    }
    if (s.kind != 'h' || s.name != "dts_middleware_span_seconds") continue;
    const std::size_t at = s.labels.find("span=\"");
    const std::string span = s.labels.substr(at + 6, s.labels.find('"', at + 6) - at - 6);
    auto& [observations, sum_micro] = out.spans[span];
    for (std::uint64_t b : s.buckets) observations += b;
    sum_micro += s.sum_micro;
  }
  return out;
}

// One run record, whichever path produced it: the same capped two-invocation
// Apache1/MSCS sweep on the thread pool, with never-firing runs synthesized
// from the golden run, on a two-worker fleet, and on a fleet whose
// coordinator synthesizes the never-firing runs journals identical records
// apart from wall time and the lease in the execution index — and the
// per-request results, detail and middleware spans reach results.csv and the
// span metrics identically too. Every path derives its per-run metrics from those records
// in the one sink: each record is counted once in dts_runs_total and
// dts_run_wall_seconds and traced as one Chrome run event, and the
// activation series carry the same labels and values on every path.
TEST(DistCampaign, ThreadForkAndWorkerPathsYieldIdenticalRecords) {
  const core::RunConfig cfg = make_config("Apache1", mw::MiddlewareKind::kMscs);
  core::CampaignOptions opt;
  opt.seed = 7;
  opt.iterations = 2;
  opt.max_faults = 48;
  opt.jobs = 2;
  const PathOutput threads = run_path(cfg, opt, temp_path("xpath_threads.jsonl"), 0);
  core::CampaignOptions synthesized = opt;
  synthesized.snapshots = true;
  const PathOutput synth = run_path(cfg, synthesized, temp_path("xpath_synth.jsonl"), 0);
  core::CampaignOptions fleet = opt;
  fleet.jobs = 1;
  const PathOutput workers = run_path(cfg, fleet, temp_path("xpath_workers.jsonl"), 2);
  fleet.snapshots = true;
  const PathOutput fleet_synth =
      run_path(cfg, fleet, temp_path("xpath_workers_synth.jsonl"), 2);

  const std::vector<std::string> expected = normalized_records(threads.journal);
  ASSERT_FALSE(expected.empty());
  EXPECT_GT(synth.synthesized, 0u);
  EXPECT_EQ(normalized_records(synth.journal), expected);
  EXPECT_EQ(normalized_records(workers.journal), expected);
  EXPECT_GT(fleet_synth.synthesized, 0u);
  EXPECT_EQ(fleet_synth.synthesized, synth.synthesized);
  EXPECT_EQ(normalized_records(fleet_synth.journal), expected);
  EXPECT_EQ(fleet_synth.runs_total, fleet_synth.journal.records.size());
  EXPECT_EQ(core::runs_csv(synth.set), core::runs_csv(threads.set));
  EXPECT_EQ(core::runs_csv(workers.set), core::runs_csv(threads.set));
  EXPECT_EQ(core::runs_csv(fleet_synth.set), core::runs_csv(threads.set));
  EXPECT_FALSE(threads.spans.empty());
  EXPECT_EQ(synth.spans, threads.spans);
  EXPECT_EQ(workers.spans, threads.spans);
  EXPECT_EQ(fleet_synth.spans, threads.spans);

  std::vector<std::string> fault_ids;
  for (const exec::JournalRecord& rec : threads.journal.records) {
    fault_ids.push_back(rec.fault_id);
  }
  std::sort(fault_ids.begin(), fault_ids.end());
  EXPECT_EQ(threads.run_events, fault_ids);
  EXPECT_EQ(threads.runs_total, fault_ids.size());
  EXPECT_EQ(threads.wall_observations, fault_ids.size());
  EXPECT_FALSE(threads.activations.empty());
  for (const PathOutput* path : {&synth, &workers, &fleet_synth}) {
    EXPECT_EQ(path->runs_total, threads.runs_total);
    EXPECT_EQ(path->run_events, threads.run_events);
    EXPECT_EQ(path->wall_observations, threads.wall_observations);
    EXPECT_EQ(path->activations, threads.activations);
  }
  // Every run event sits on a named Chrome row, and no row mixes runs the
  // coordinator synthesized with runs a fleet worker leased.
  EXPECT_GE(fleet_synth.rows.leased.size(), 2u);  // synthesis + the workers
  for (const PathOutput* path : {&threads, &synth, &workers, &fleet_synth}) {
    for (const auto& [tid, leased] : path->rows.leased) {
      EXPECT_TRUE(path->rows.named.contains(tid)) << "row " << tid << " has no name";
      EXPECT_EQ(leased.size(), 1u) << "row " << tid << " mixes synthesized and leased runs";
    }
  }
}

// A planned campaign runs on a fleet round by round. With adaptive sampling
// on, two workers execute the same entries as two threads, because each
// round's barrier holds across processes, and journal the same records,
// sampling stratum included.
TEST(DistCampaign, PlannedCampaignMatchesInProcess) {
  const core::RunConfig cfg = make_config("Apache1");
  core::CampaignOptions opt;
  opt.seed = 7;
  opt.plan.mode = plan::PlanOptions::Mode::kAuto;
  opt.plan.ci_half_width = 0.35;
  opt.jobs = 2;
  const PathOutput local = run_path(cfg, opt, temp_path("planned_local.jsonl"), 0);
  opt.jobs = 1;
  const PathOutput fleet = run_path(cfg, opt, temp_path("planned_fleet.jsonl"), 2);

  ASSERT_TRUE(local.set.plan_digest.has_value());
  ASSERT_TRUE(fleet.set.plan_digest.has_value());
  const core::PlanDigest& a = *local.set.plan_digest;
  const core::PlanDigest& b = *fleet.set.plan_digest;
  EXPECT_GT(a.executed, 0u);
  EXPECT_GT(a.unsampled, 0u);  // sampling stopped a stratum early
  EXPECT_EQ(core::serialize_workload_set(fleet.set), core::serialize_workload_set(local.set));
  EXPECT_EQ(core::runs_csv(fleet.set), core::runs_csv(local.set));
  EXPECT_EQ(local.journal.records.size(), a.executed);
  for (const auto& rec : fleet.journal.records) EXPECT_FALSE(rec.stratum.empty());
  EXPECT_EQ(normalized_records(fleet.journal), normalized_records(local.journal));

  EXPECT_EQ(b.entries, a.entries);
  EXPECT_EQ(b.executable, a.executable);
  EXPECT_EQ(b.pruned, a.pruned);
  EXPECT_EQ(b.deduped, a.deduped);
  EXPECT_EQ(b.executed, a.executed);
  EXPECT_EQ(b.reused, a.reused);
  EXPECT_EQ(b.unsampled, a.unsampled);
  ASSERT_EQ(b.strata.size(), a.strata.size());
  for (std::size_t i = 0; i < a.strata.size(); ++i) {
    EXPECT_EQ(b.strata[i].key, a.strata[i].key);
    EXPECT_EQ(b.strata[i].issued, a.strata[i].issued);
    EXPECT_EQ(b.strata[i].trials, a.strata[i].trials);
    EXPECT_EQ(b.strata[i].failures, a.strata[i].failures);
    EXPECT_EQ(b.strata[i].stopped_early, a.strata[i].stopped_early);
  }
}

// A planned fleet journal is the same artifact as an in-process one: cut to
// half, it resumes in-process re-executing only the runs it lacks, and an
// in-process journal cut to half resumes on a fleet the same way.
TEST(DistCampaign, PlannedJournalResumesAcrossPools) {
  const core::RunConfig cfg = make_config("Apache1", mw::MiddlewareKind::kMscs);
  core::CampaignOptions opt;
  opt.seed = 7;
  opt.max_faults = 600;
  opt.plan.mode = plan::PlanOptions::Mode::kAuto;
  for (const bool fleet_first : {true, false}) {
    const std::string journal =
        temp_path(fleet_first ? "planned_fleet_then_local.jsonl"
                              : "planned_local_then_fleet.jsonl");
    const PathOutput full = run_path(cfg, opt, journal, fleet_first ? 2 : 0);
    ASSERT_GT(full.set.executed_runs, 4u);

    std::vector<std::string> lines;
    {
      std::ifstream in(journal);
      for (std::string line; std::getline(in, line);) lines.push_back(line);
    }
    const std::size_t keep = 1 + (lines.size() - 1) / 2;
    {
      std::ofstream out(journal, std::ios::trunc);
      for (std::size_t i = 0; i < keep; ++i) out << lines[i] << "\n";
    }

    core::CampaignOptions again = opt;
    again.journal_path = journal;
    again.resume = true;
    const core::WorkloadSetResult resumed = run_on(cfg, again, fleet_first ? 0 : 2);
    ASSERT_TRUE(resumed.plan_digest.has_value());
    EXPECT_EQ(resumed.plan_digest->reused, keep - 1);
    EXPECT_EQ(resumed.executed_runs, full.set.executed_runs - (keep - 1));
    EXPECT_EQ(core::serialize_workload_set(resumed), core::serialize_workload_set(full.set));
    EXPECT_EQ(core::runs_csv(resumed), core::runs_csv(full.set));
    std::string error;
    const auto file = exec::read_journal_file(journal, &error);
    ASSERT_TRUE(file.has_value()) << error;
    EXPECT_EQ(normalized_records(*file), normalized_records(full.journal));
  }
}

// The traced three-tier config journals the same v7 records in-process and
// on a fleet: tier on every record and the same request traces.
TEST(DistCampaign, TracedTopologyRecordsMatchInProcess) {
  std::string error;
  const auto cfg = core::parse_config(
      "[test]\nmiddleware = none\nseed = 7\nmax_faults = 40\n\n[topology]\n"
      "topology = lb:2*apache -> app:2*iis -> db:1*sql_server\n"
      "tier = app\nrtrace = failures\n",
      &error);
  ASSERT_TRUE(cfg.has_value()) << error;
  core::CampaignOptions opt = cfg->campaign;
  opt.jobs = 2;
  const PathOutput local = run_path(cfg->run, opt, temp_path("xpath_topo_local.jsonl"), 0);
  opt.jobs = 1;
  const PathOutput fleet = run_path(cfg->run, opt, temp_path("xpath_topo_fleet.jsonl"), 2);

  EXPECT_EQ(local.journal.version, 7u);
  EXPECT_EQ(fleet.journal.version, 7u);
  std::size_t traced = 0;
  for (const auto& rec : fleet.journal.records) {
    EXPECT_EQ(rec.tier, "app");
    traced += !rec.rtrace.empty();
  }
  EXPECT_GT(traced, 0u);
  EXPECT_EQ(normalized_records(fleet.journal), normalized_records(local.journal));
  EXPECT_EQ(core::serialize_workload_set(fleet.set), core::serialize_workload_set(local.set));
}

// The journal header embeds the same campaign configuration whichever path
// ran the campaign — sweep knobs included — so the replay recipe an
// execution index points to does not depend on the path.
TEST(DistCampaign, JournalHeaderConfigMatchesInProcess) {
  std::string error;
  const auto cfg = core::parse_config(
      "[test]\nworkload = Apache1\nmiddleware = none\nseed = 7\niterations = 2\n"
      "max_faults = 40\nmodels = paper,oserror\n",
      &error);
  ASSERT_TRUE(cfg.has_value()) << error;
  const PathOutput local =
      run_path(cfg->run, cfg->campaign, temp_path("header_local.jsonl"), 0);
  const PathOutput fleet =
      run_path(cfg->run, cfg->campaign, temp_path("header_fleet.jsonl"), 2);

  EXPECT_EQ(fleet.journal.config_text, local.journal.config_text);
  EXPECT_EQ(fleet.journal.config_text, core::serialize_config(*cfg));
  EXPECT_NE(local.journal.config_text.find("iterations = 2\nmax_faults = 40\n"),
            std::string::npos);
  EXPECT_NE(local.journal.config_text.find("models = "), std::string::npos);
  EXPECT_EQ(normalized_records(fleet.journal), normalized_records(local.journal));
}

/// File names under `dir` (empty when it does not exist).
std::set<std::string> file_names(const std::string& dir) {
  std::set<std::string> out;
  if (!std::filesystem::exists(dir)) return out;
  for (const auto& e : std::filesystem::directory_iterator(dir)) {
    out.insert(e.path().filename().string());
  }
  return out;
}

// Syscall tracing reaches the workers: a capped explicit Apache1/MSCS list
// under trace=failures journals the same records on a two-worker fleet as at
// jobs=2 in-process, forensics dumps included, and the coordinator writes the
// same forensics files.
TEST(DistCampaign, TracedRecordsAndForensicsFilesMatchInProcess) {
  const core::RunConfig cfg = make_config("Apache1", mw::MiddlewareKind::kMscs);
  const inject::FaultList list = capped_list(cfg, 7, 24);
  core::CampaignOptions opt;
  opt.seed = 7;
  opt.trace = obs::TraceMode::kFailures;
  opt.forensics_depth = 24;

  opt.jobs = 2;
  opt.forensics_dir = temp_path("traced_local_fx");
  std::filesystem::remove_all(opt.forensics_dir);
  const PathOutput local = run_path(cfg, opt, temp_path("traced_local.jsonl"), 0, list);
  opt.jobs = 1;
  opt.forensics_dir = temp_path("traced_fleet_fx");
  std::filesystem::remove_all(opt.forensics_dir);
  const PathOutput fleet = run_path(cfg, opt, temp_path("traced_fleet.jsonl"), 2, list);

  std::size_t dumps = 0;
  for (const auto& rec : local.journal.records) dumps += !rec.forensics.empty();
  EXPECT_GT(dumps, 0u);
  EXPECT_EQ(local.journal.records.size(), list.faults.size());
  EXPECT_EQ(normalized_records(fleet.journal), normalized_records(local.journal));
  EXPECT_EQ(core::serialize_workload_set(fleet.set), core::serialize_workload_set(local.set));
  const std::set<std::string> files = file_names(temp_path("traced_local_fx"));
  EXPECT_EQ(files.size(), dumps);
  EXPECT_EQ(file_names(temp_path("traced_fleet_fx")), files);
}

// Kill one worker mid-shard: its lease is reassigned (exactly once) and the
// campaign still completes byte-identical to serial. The result the crashed
// worker streamed before dying is counted like every other accepted record.
TEST(DistCampaign, WorkerCrashMidShardReassignsLeaseAndStaysByteIdentical) {
  const core::RunConfig cfg = make_config("Apache1");
  const inject::FaultList list = capped_list(cfg, 7, 20);
  ASSERT_GE(list.faults.size(), 8u);

  exec::ExecOptions serial_opts;
  serial_opts.jobs = 1;
  const exec::CampaignResult serial =
      exec::CampaignExecutor(serial_opts).run(cfg, list, 7);

  obs::MetricsRegistry metrics;
  obs::fleet::StatusBoard board;
  core::CampaignOptions campaign;
  campaign.seed = 7;
  campaign.metrics = &metrics;
  campaign.status = &board;
  dist::DistOptions d;
  d.lease_size = 4;  // leases span several faults, so a crash tears one
  dist::Coordinator coordinator(campaign, d);

  // Worker A streams one result and then _exit()s mid-lease; worker B is
  // healthy and finishes the campaign, including A's reassigned remainder.
  // B waits on a pipe until the board shows that A took a lease, so B cannot
  // drain the campaign before A joins, however the host schedules the two.
  // Both are forked before any other thread of this process starts.
  const pid_t crasher = fork_worker(coordinator.port(), /*crash_after_runs=*/1);
  int gate[2];
  ASSERT_EQ(::pipe(gate), 0);
  const pid_t healthy = fork_gated_worker(coordinator.port(), gate);
  ::close(gate[0]);
  ASSERT_GT(crasher, 0);
  ASSERT_GT(healthy, 0);

  std::thread opener([&board, &gate] {
    // A may already have streamed its result and died when the board is
    // read, so a run counts as much as a lease. After a minute the gate opens
    // anyway, so that an A which never joins fails the checks below instead
    // of hanging the test.
    const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(60);
    while (std::chrono::steady_clock::now() < deadline) {
      const std::string json = board.status_json();
      const std::string rows = json.substr(json.find("\"workers\":["));
      const std::vector<std::uint64_t> leases = json_numbers(rows, "lease");
      const std::vector<std::uint64_t> runs = json_numbers(rows, "runs");
      const auto nonzero = [](std::uint64_t v) { return v != 0; };
      if (std::any_of(leases.begin(), leases.end(), nonzero) ||
          std::any_of(runs.begin(), runs.end(), nonzero)) {
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    const char open = 1;
    (void)!::write(gate[1], &open, 1);
    ::close(gate[1]);
  });
  const exec::CampaignResult distributed =
      exec::CampaignExecutor(campaign, {}, nullptr, &coordinator).run(cfg, list, 7);
  opener.join();
  EXPECT_EQ(run_lines(distributed.runs), run_lines(serial.runs));
  EXPECT_EQ(metrics.counter("dts_dist_leases_reassigned_total").value(), 1u);
  EXPECT_EQ(metrics.counter("dts_dist_leases_expired_total").value(), 0u);
  EXPECT_EQ(runs_total(metrics), distributed.executed);
  // The /status worker rows keep the crashed worker, marked gone: their runs
  // add up to the executed runs, and once the campaign is done no row names
  // a lease or owes a result.
  const std::string json = board.status_json();
  const std::string rows = json.substr(json.find("\"workers\":["));
  const std::vector<std::uint64_t> runs = json_numbers(rows, "runs");
  EXPECT_EQ(runs.size(), 2u);
  EXPECT_EQ(std::accumulate(runs.begin(), runs.end(), std::uint64_t{0}), distributed.executed);
  EXPECT_EQ(json_numbers(rows, "lease"), std::vector<std::uint64_t>(runs.size(), 0));
  EXPECT_EQ(json_numbers(rows, "outstanding"), std::vector<std::uint64_t>(runs.size(), 0));
  EXPECT_NE(rows.find("\"gone\":true"), std::string::npos);

  int status = 0;
  ASSERT_EQ(::waitpid(crasher, &status, 0), crasher);
  EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 3);  // the crash hook
  ASSERT_EQ(::waitpid(healthy, &status, 0), healthy);
  EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0);
}

// A distributed journal is the same artifact as an in-process journal: a
// campaign interrupted distributed-side resumes in-process with nothing
// re-executed, and vice versa the records pre-fill a distributed run.
TEST(DistCampaign, DistributedJournalResumesInProcess) {
  const core::RunConfig cfg = make_config("Apache1");
  const inject::FaultList list = capped_list(cfg, 7, 10);

  const std::string journal = temp_path("dist_journal.jsonl");
  std::filesystem::remove(journal);

  core::CampaignOptions campaign;
  campaign.seed = 7;
  campaign.journal_path = journal;
  dist::DistOptions d;
  d.spawn_workers = 1;
  dist::Coordinator coordinator(campaign, d);
  const exec::CampaignResult distributed =
      exec::CampaignExecutor(campaign, {}, nullptr, &coordinator).run(cfg, list, 7);
  ASSERT_FALSE(distributed.runs.empty());

  exec::ExecOptions eo;
  eo.jobs = 1;
  eo.journal_path = journal;
  eo.resume = true;
  const exec::CampaignResult resumed = exec::CampaignExecutor(eo).run(cfg, list, 7);
  EXPECT_EQ(resumed.executed, 0u);  // every run came from the distributed journal
  EXPECT_EQ(resumed.reused, distributed.executed);
  EXPECT_EQ(run_lines(resumed.runs), run_lines(distributed.runs));
}

// A worker that validated against one campaign refuses leases from another:
// the handshake digest travels on every lease, so a coordinator restarted
// with a different fault list on the same port cannot feed a stale worker.
TEST(DistCampaign, WorkerRefusesMismatchedCampaign) {
  // Exercised end-to-end via run_worker's validation path: a worker pointed
  // at a dead port exits 1 (connection), and the digest/identity checks are
  // covered by the integration tests above accepting only matching leases.
  dist::WorkerOptions w;
  w.port = 1;  // privileged port nobody listens on
  w.connect_timeout_ms = 100;
  w.connect_retries = 1;
  std::string error;
  EXPECT_EQ(dist::run_worker(w, &error), 1);
  EXPECT_FALSE(error.empty());
}

}  // namespace
}  // namespace dts
