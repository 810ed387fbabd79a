// Causal request-tracing tests (src/obs/rtrace/): wire-context round-trips,
// span collection, finalization (attribution conservation, exactly-one
// injection stamp, timing-independent path digest), serialization, and the
// traced seed three-tier campaign end-to-end — journal v7 "rt" trailers that
// reconcile with TopoRunStats, replay digest verification, signature path
// axis, and the no-context-leak invariant across failover. Labelled `rtrace`
// in CTest (part of both sanitizer presets).
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <map>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "core/campaign.h"
#include "core/config.h"
#include "core/run.h"
#include "exec/journal.h"
#include "inject/fault.h"
#include "forensics/replay.h"
#include "forensics/signature.h"
#include "obs/fleet/status.h"
#include "obs/ring.h"
#include "obs/rtrace/rtrace.h"
#include "obs/span.h"

namespace dts {
namespace {

using obs::rtrace::RtraceMode;
using obs::rtrace::RunTrace;
using obs::rtrace::TraceLog;
using obs::rtrace::TraceSpan;

// The seed three-tier campaign of the README quickstart, traced: spans are
// collected every run, and finalized and journaled for every non-masked one.
constexpr char kTracedThreeTierConfig[] =
    "[test]\n"
    "middleware = none\n"
    "seed = 7\n"
    "max_faults = 6\n"
    "\n"
    "[topology]\n"
    "topology = lb:2*apache -> app:2*iis -> db:1*sql_server\n"
    "tier = db\n"
    "rtrace = failures\n";

core::DtsConfig parse_or_die(const std::string& text) {
  std::string error;
  auto cfg = core::parse_config(text, &error);
  EXPECT_TRUE(cfg.has_value()) << error;
  return cfg.value();  // throws on failure, failing the test loudly
}

std::string temp_path(const std::string& name) {
  return (std::filesystem::path(::testing::TempDir()) / name).string();
}

TraceSpan make_span(int trace, int id, int parent, std::string name,
                    std::string tier, std::string replica, std::int64_t begin,
                    std::int64_t end, std::string outcome = "ok") {
  TraceSpan s;
  s.trace = trace;
  s.id = id;
  s.parent = parent;
  s.name = std::move(name);
  s.tier = std::move(tier);
  s.replica = std::move(replica);
  s.begin_us = begin;
  s.end_us = end;
  s.outcome = std::move(outcome);
  return s;
}

// Nearest-rank percentile, mirroring core/run.cpp's percentile_us.
std::int64_t nearest_rank(std::vector<std::int64_t> sorted, double q) {
  if (sorted.empty()) return 0;
  std::sort(sorted.begin(), sorted.end());
  const auto rank = static_cast<std::size_t>(
      std::max(1.0, std::ceil(q * static_cast<double>(sorted.size()))));
  return sorted[std::min(rank, sorted.size()) - 1];
}

// --- wire context ---------------------------------------------------------

TEST(RtraceWire, TokenRoundTripsThroughRequestLines) {
  EXPECT_EQ(obs::rtrace::wire_token(7, 3), "rt=7:3");
  EXPECT_EQ(obs::rtrace::rewrite_wire("7", 7, 9), "REQ 7 rt=7:9\n");

  const auto ctx = obs::rtrace::parse_wire("REQ 7 rt=7:3\n");
  ASSERT_TRUE(ctx.has_value());
  EXPECT_EQ(ctx->trace, 7);
  EXPECT_EQ(ctx->span, 3);

  // A rewritten line parses back to the rewritten context.
  const auto again = obs::rtrace::parse_wire(obs::rtrace::rewrite_wire("7", 7, 12));
  ASSERT_TRUE(again.has_value());
  EXPECT_EQ(again->span, 12);
}

TEST(RtraceWire, UntracedAndMalformedLinesCarryNoContext) {
  // The classic wire bytes (tracing off, or a pre-rtrace peer).
  EXPECT_FALSE(obs::rtrace::parse_wire("REQ 7\n").has_value());
  // Replies never carry context — it must not leak backwards.
  EXPECT_FALSE(obs::rtrace::parse_wire("OK 7\n").has_value());
  EXPECT_FALSE(obs::rtrace::parse_wire("ERR 7\n").has_value());
  // Malformed tokens are dropped, not misparsed.
  EXPECT_FALSE(obs::rtrace::parse_wire("REQ 7 rt=x:3\n").has_value());
  EXPECT_FALSE(obs::rtrace::parse_wire("REQ 7 rt=7\n").has_value());
  EXPECT_FALSE(obs::rtrace::parse_wire("REQ 7 rt=0:3\n").has_value());
  EXPECT_FALSE(obs::rtrace::parse_wire("REQ 7 rt=-1:3\n").has_value());
}

// --- span collection ------------------------------------------------------

TEST(RtraceLog, DisabledLogCollectsNothing) {
  TraceLog log;
  EXPECT_FALSE(log.enabled());
  EXPECT_EQ(log.begin_span(1, 0, "request", "client", "control", 0), 0);
  log.end_span(0, 10, "ok");
  EXPECT_TRUE(log.spans().empty());
}

TEST(RtraceLog, AssignsBeginOrderIdsAndTakeResets) {
  TraceLog log;
  log.set_enabled(true);
  const int a = log.begin_span(1, 0, "request", "client", "control", 0);
  const int b = log.begin_span(1, a, "lb", "lb", "lb-1", 5);
  EXPECT_EQ(a, 1);
  EXPECT_EQ(b, 2);
  log.end_span(b, 90, "ok");
  log.end_span(a, 100, "ok");

  ASSERT_EQ(log.spans().size(), 2u);
  EXPECT_EQ(log.spans()[0].outcome, "ok");
  EXPECT_EQ(log.spans()[1].parent, a);
  EXPECT_EQ(log.spans()[1].end_us, 90);

  const auto taken = log.take_spans();
  EXPECT_EQ(taken.size(), 2u);
  EXPECT_TRUE(log.spans().empty());
  // Ids restart after take — the next run's spans are independent.
  EXPECT_EQ(log.begin_span(1, 0, "request", "client", "control", 0), 1);
}

// --- finalization ---------------------------------------------------------

TEST(RtraceFinalize, SelfTimeAttributionConservesRootDuration) {
  // One request through three tiers, fully nested: every span's self time is
  // its duration minus its direct children's, so the per-tier attribution of
  // the request must sum exactly to the end-to-end latency.
  std::vector<TraceSpan> spans;
  spans.push_back(make_span(1, 1, 0, "request", "client", "control", 0, 1000));
  spans.push_back(make_span(1, 2, 1, "lb", "lb", "lb-1", 100, 900));
  spans.push_back(make_span(1, 3, 2, "attempt", "lb", "app-1", 150, 850));
  spans.push_back(make_span(1, 4, 3, "app.check", "app", "app-1", 300, 700));

  const RunTrace rt = obs::rtrace::finalize_trace(std::move(spans), {});
  ASSERT_EQ(rt.requests.size(), 1u);
  const auto& req = rt.requests[0];
  EXPECT_TRUE(req.ok);
  EXPECT_EQ(req.elapsed_us, 1000);

  std::int64_t attributed = 0;
  for (const auto& tier : req.tiers) attributed += tier.total_us();
  EXPECT_EQ(attributed, req.elapsed_us);

  // The successful app.check is service time; everything else — connection
  // setup, relay overhead — lands in the queue bucket; nothing failed.
  for (const auto& tier : req.tiers) {
    if (tier.tier == "app") {
      EXPECT_EQ(tier.service_us, 400);
    }
    EXPECT_EQ(tier.retry_us, 0);
  }
}

TEST(RtraceFinalize, FailedAttemptsCountAsRetryTime) {
  std::vector<TraceSpan> spans;
  spans.push_back(make_span(1, 1, 0, "request", "client", "control", 0, 1000));
  // First backend times out, balancer fails over to a second that succeeds.
  spans.push_back(make_span(1, 2, 1, "attempt", "lb", "app-1", 100, 500, "timeout"));
  spans.push_back(make_span(1, 3, 1, "attempt", "lb", "app-2", 500, 900));

  const RunTrace rt = obs::rtrace::finalize_trace(std::move(spans), {});
  ASSERT_EQ(rt.requests.size(), 1u);
  std::int64_t retry = 0, attributed = 0;
  for (const auto& tier : rt.requests[0].tiers) {
    retry += tier.retry_us;
    attributed += tier.total_us();
  }
  EXPECT_EQ(retry, 400);  // the timed-out attempt, and only it
  EXPECT_EQ(attributed, rt.requests[0].elapsed_us);
}

TEST(RtraceFinalize, StampsExactlyOneInnermostInjectedSpan) {
  // Two spans on the faulted machine contain the firing instant; the
  // latest-started (innermost) one owns the corrupted call chain.
  std::vector<TraceSpan> spans;
  spans.push_back(make_span(1, 1, 0, "request", "client", "control", 0, 1000));
  spans.push_back(make_span(1, 2, 1, "relay", "db", "db-1", 100, 900));
  spans.push_back(make_span(1, 3, 2, "app.check", "db", "db-1", 200, 800, "err"));

  obs::rtrace::FinalizeParams p;
  p.injection_us = 500;
  p.injection_machine = "db-1";
  p.fault_id = "db/CreateFileA/arg0/zero";
  const RunTrace rt = obs::rtrace::finalize_trace(std::move(spans), p);

  EXPECT_EQ(rt.injected_span, 3);
  std::size_t stamped = 0;
  for (const auto& s : rt.spans) stamped += s.injected ? 1 : 0;
  EXPECT_EQ(stamped, 1u);
  ASSERT_EQ(rt.requests.size(), 1u);
  EXPECT_TRUE(rt.requests[0].injected);
  EXPECT_EQ(rt.fault_id, "db/CreateFileA/arg0/zero");
}

TEST(RtraceFinalize, InjectionOutsideEverySpanStampsNothing) {
  std::vector<TraceSpan> spans;
  spans.push_back(make_span(1, 1, 0, "request", "client", "control", 0, 1000));

  obs::rtrace::FinalizeParams p;
  p.injection_us = 5000;  // after the workload finished
  p.injection_machine = "db-1";
  const RunTrace rt = obs::rtrace::finalize_trace(std::move(spans), p);
  EXPECT_EQ(rt.injected_span, 0);
  for (const auto& s : rt.spans) EXPECT_FALSE(s.injected);
}

TEST(RtraceFinalize, DigestNamesThePathNotTheTiming) {
  const auto build = [](std::int64_t shift, const std::string& outcome) {
    std::vector<TraceSpan> spans;
    spans.push_back(make_span(1, 1, 0, "request", "client", "control",
                              shift, shift + 1000, outcome));
    spans.push_back(make_span(1, 2, 1, "relay", "db", "db-1", shift + 100,
                              shift + 900));
    return obs::rtrace::finalize_trace(std::move(spans), {}).digest;
  };
  // Latency jitter must not split clusters…
  EXPECT_EQ(build(0, "ok"), build(7777, "ok"));
  // …but a different propagation fate must.
  EXPECT_NE(build(0, "ok"), build(0, "timeout"));
}

// --- serialization --------------------------------------------------------

TEST(RtraceSerialize, JournalPayloadRoundTrips) {
  std::vector<TraceSpan> spans;
  spans.push_back(make_span(2, 3, 0, "request", "client", "control", 10, 500));
  spans.push_back(make_span(2, 4, 3, "attempt", "lb", "app-2", 20, 480, "err"));
  obs::rtrace::FinalizeParams p;
  p.injection_us = 100;
  p.injection_machine = "app-2";
  p.fault_id = "db/ReadFile/arg1/null";
  const RunTrace rt = obs::rtrace::finalize_trace(std::move(spans), p);

  const std::string text = rt.serialize();
  EXPECT_EQ(text.find('"'), std::string::npos);   // journal-safe: no quoting
  EXPECT_EQ(text.find('\\'), std::string::npos);  // or escaping needed
  EXPECT_EQ(obs::rtrace::digest_of_serialized(text), rt.digest);
  EXPECT_EQ(obs::rtrace::digest_hex(rt.digest).size(), 16u);

  const auto back = RunTrace::parse(text);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->spans, rt.spans);
  EXPECT_EQ(back->digest, rt.digest);
  EXPECT_EQ(back->injected_span, rt.injected_span);
  EXPECT_EQ(back->fault_id, rt.fault_id);
  // Attribution is recomputed from the spans, not shipped: it must agree.
  ASSERT_EQ(back->requests.size(), rt.requests.size());
  for (std::size_t i = 0; i < rt.requests.size(); ++i) {
    EXPECT_EQ(back->requests[i].elapsed_us, rt.requests[i].elapsed_us);
    EXPECT_EQ(back->requests[i].ok, rt.requests[i].ok);
  }
}

TEST(RtraceSerialize, MalformedPayloadsAreRejected) {
  EXPECT_FALSE(RunTrace::parse("").has_value());
  EXPECT_FALSE(RunTrace::parse("v2 0000000000000000 inj=0 fault=-").has_value());
  EXPECT_FALSE(RunTrace::parse("v1 deadbeef").has_value());
  // A span field with the wrong arity fails the whole parse.
  EXPECT_FALSE(RunTrace::parse("v1 0000000000000000 inj=0 fault=-|1:2:3").has_value());
  EXPECT_EQ(obs::rtrace::digest_of_serialized("garbage"), 0u);
  EXPECT_EQ(obs::rtrace::digest_of_serialized(""), 0u);
}

TEST(RtraceMode, StringConversionsRoundTrip) {
  for (const RtraceMode m :
       {RtraceMode::kOff, RtraceMode::kFailures, RtraceMode::kAll}) {
    RtraceMode back = RtraceMode::kOff;
    ASSERT_TRUE(obs::rtrace::rtrace_mode_from_string(
        std::string(obs::rtrace::to_string(m)), &back));
    EXPECT_EQ(back, m);
  }
  RtraceMode out = RtraceMode::kOff;
  EXPECT_FALSE(obs::rtrace::rtrace_mode_from_string("sometimes", &out));
}

// --- satellite: span log and ring eviction under concurrent writers -------

TEST(RtraceConcurrency, PerThreadSpanAndRingWritersStayIsolated) {
  // SpanLog and RingBuffer are documented single-threaded (one run = one
  // simulation); the concurrency contract is one instance per worker thread.
  // Hammer both from parallel workers — TSan must stay quiet because no
  // instance is shared — and check eviction arithmetic on every one.
  constexpr int kThreads = 4;
  constexpr int kPushes = 100;
  constexpr std::size_t kCap = 8;
  std::vector<std::thread> workers;
  std::vector<std::string> failures(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([t, &failures] {
      obs::SpanLog spans;
      obs::RingBuffer<int> ring;
      ring.set_capacity(kCap);
      for (int i = 1; i <= kPushes; ++i) {
        spans.add("w" + std::to_string(t), sim::TimePoint{},
                  sim::TimePoint{} + sim::Duration::micros(i));
        ring.push(t * 1000 + i);
      }
      if (spans.spans().size() != kPushes) failures[t] = "span count";
      if (ring.size() != kCap || ring.pushed() != kPushes) {
        failures[t] = "ring accounting";
      }
      // Oldest retained element is push kPushes-kCap+1; newest is kPushes.
      if (ring[0] != t * 1000 + kPushes - static_cast<int>(kCap) + 1 ||
          ring[kCap - 1] != t * 1000 + kPushes) {
        failures[t] = "ring eviction order";
      }
    });
  }
  for (auto& w : workers) w.join();
  for (int t = 0; t < kThreads; ++t) EXPECT_EQ(failures[t], "") << "worker " << t;
}

TEST(RtraceConcurrency, SharedRingUnderLockEvictsExactly) {
  // When a ring IS shared (the status-board style), writers serialize through
  // a lock; eviction totals must be exact regardless of interleaving.
  constexpr int kThreads = 4;
  constexpr int kPerThread = 250;
  obs::RingBuffer<int> ring;
  ring.set_capacity(16);
  std::mutex mu;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&ring, &mu, t] {
      for (int i = 0; i < kPerThread; ++i) {
        std::lock_guard<std::mutex> lock(mu);
        ring.push(t * kPerThread + i);
      }
    });
  }
  for (auto& w : workers) w.join();
  EXPECT_EQ(ring.pushed(), static_cast<std::uint64_t>(kThreads * kPerThread));
  EXPECT_EQ(ring.size(), 16u);
}

// --- signature path axis --------------------------------------------------

TEST(RtraceSignature, PathAxisSplitsClustersOnlyWhenPresent) {
  forensics::SignatureKey a;
  a.fault_class = "file-handle:zero";
  a.call_context = "CreateFileA@1#1/89ab";
  a.outcome = "failure";
  a.span = "none";
  a.tier = "db";

  forensics::SignatureKey masked = a;
  masked.path = "00000000aaaaaaaa";
  forensics::SignatureKey outage = a;
  outage.path = "00000000bbbbbbbb";

  // Same fault, same tier — but a different propagation path is a different
  // failure mode, and an absent path (untraced run) is a third.
  EXPECT_NE(forensics::signature_id(masked), forensics::signature_id(outage));
  EXPECT_NE(forensics::signature_id(a), forensics::signature_id(masked));
  EXPECT_EQ(forensics::signature_id(masked), forensics::signature_id(masked));
}

// --- status board ---------------------------------------------------------

TEST(RtraceStatus, TracesJsonReportsTailAndTotal) {
  obs::fleet::StatusBoard board(8);
  for (int i = 0; i < 3; ++i) {
    obs::fleet::TraceEntry e;
    e.fault_id = "db/fault" + std::to_string(i);
    e.tier = "db";
    e.user_outcome = i == 0 ? "outage" : "masked";
    e.digest = obs::rtrace::digest_hex(0xabcd0000u + i);
    e.spans = 12;
    e.requests = 4;
    e.injected = i == 0;
    board.record_trace(e);
  }
  const std::string json = board.traces_json();
  EXPECT_NE(json.find("\"total\":3"), std::string::npos);
  EXPECT_NE(json.find("db/fault0"), std::string::npos);
  EXPECT_NE(json.find("\"outage\""), std::string::npos);
  EXPECT_NE(json.find("00000000abcd0002"), std::string::npos);
}

// --- configuration --------------------------------------------------------

TEST(RtraceConfig, ParsesAndSerializesMode) {
  const core::DtsConfig cfg = parse_or_die(kTracedThreeTierConfig);
  EXPECT_EQ(cfg.run.rtrace, RtraceMode::kFailures);

  const std::string text = core::serialize_config(cfg);
  EXPECT_NE(text.find("rtrace = failures"), std::string::npos);
  const core::DtsConfig again = parse_or_die(text);
  EXPECT_EQ(again.run.rtrace, RtraceMode::kFailures);
  EXPECT_EQ(core::serialize_config(again), text);

  std::string error;
  EXPECT_FALSE(core::parse_config(std::string(kTracedThreeTierConfig) +
                                      "rtrace = sometimes\n",
                                  &error)
                   .has_value());
  EXPECT_NE(error.find("rtrace"), std::string::npos);
}

TEST(RtraceConfig, OffModeSerializesLikeThePreRtracePipeline) {
  // `rtrace = off` must be invisible: same parsed config, same serialized
  // text, and therefore the same campaign bytes as a config without the key.
  const std::string untraced =
      std::string(kTracedThreeTierConfig).substr(
          0, std::string(kTracedThreeTierConfig).find("rtrace"));
  const core::DtsConfig plain = parse_or_die(untraced);
  const core::DtsConfig off = parse_or_die(untraced + "rtrace = off\n");
  EXPECT_EQ(off.run.rtrace, RtraceMode::kOff);
  EXPECT_EQ(core::serialize_config(off), core::serialize_config(plain));
}

// --- the traced seed campaign, end to end ---------------------------------

/// kTracedThreeTierConfig under `rtrace = all`: every run keeps its trace.
std::string all_mode_config() {
  std::string text = kTracedThreeTierConfig;
  const std::string mode = "rtrace = failures";
  return text.replace(text.find(mode), mode.size(), "rtrace = all");
}

class RtraceCampaignTest : public ::testing::Test {
 protected:
  // The traced three-tier campaign, journaled once under `failures` and once
  // under `all`, shared by every end-to-end test (runs once per process;
  // tests read the in-memory results and the journal files).
  static void SetUpTestSuite() {
    // Per-process journals: ctest runs every case in its own process, each
    // re-running this fixture — a shared path would race under `ctest -j`.
    const std::string pid = std::to_string(::getpid());
    journal_path_ = new std::string(temp_path("rtrace_journal." + pid + ".jsonl"));
    all_journal_path_ = new std::string(temp_path("rtrace_all_journal." + pid + ".jsonl"));
    set_ = new core::WorkloadSetResult(run_journaled(kTracedThreeTierConfig, *journal_path_));
    all_set_ = new core::WorkloadSetResult(run_journaled(all_mode_config(), *all_journal_path_));
  }
  static void TearDownTestSuite() {
    delete journal_path_;
    journal_path_ = nullptr;
    delete all_journal_path_;
    all_journal_path_ = nullptr;
    delete set_;
    set_ = nullptr;
    delete all_set_;
    all_set_ = nullptr;
  }

  static core::WorkloadSetResult run_journaled(const std::string& config,
                                               const std::string& journal) {
    std::filesystem::remove(journal);
    const core::DtsConfig cfg = parse_or_die(config);
    core::CampaignOptions opt = cfg.campaign;
    opt.journal_path = journal;
    return core::run_workload_set(cfg.run, opt);
  }

  static const core::RunResult* run_for(const std::string& fault_id) {
    for (const auto& run : set_->runs) {
      if (run.fault.id() == fault_id) return &run;
    }
    return nullptr;
  }

  static std::string* journal_path_;      // rtrace = failures
  static std::string* all_journal_path_;  // rtrace = all
  static core::WorkloadSetResult* set_;
  static core::WorkloadSetResult* all_set_;
};

std::string* RtraceCampaignTest::journal_path_ = nullptr;
std::string* RtraceCampaignTest::all_journal_path_ = nullptr;
core::WorkloadSetResult* RtraceCampaignTest::set_ = nullptr;
core::WorkloadSetResult* RtraceCampaignTest::all_set_ = nullptr;

TEST_F(RtraceCampaignTest, EveryRunCarriesATraceThatReconcilesWithTopoStats) {
  ASSERT_EQ(all_set_->runs.size(), 6u);
  for (const auto& run : all_set_->runs) {
    ASSERT_TRUE(run.topo.has_value()) << run.fault.id();
    ASSERT_TRUE(run.rtrace.has_value()) << run.fault.id();
    const RunTrace& rt = *run.rtrace;

    // One traced request per offered request, fates matching.
    EXPECT_EQ(static_cast<int>(rt.requests.size()), run.topo->requests_total)
        << run.fault.id();
    int ok = 0;
    std::vector<std::int64_t> ok_latencies;
    for (const auto& req : rt.requests) {
      if (req.ok) {
        ++ok;
        ok_latencies.push_back(req.elapsed_us);
      }
      // Per-request attribution conserves the end-to-end latency.
      std::int64_t attributed = 0;
      for (const auto& tier : req.tiers) attributed += tier.total_us();
      EXPECT_EQ(attributed, req.elapsed_us)
          << run.fault.id() << " request " << req.trace;
    }
    EXPECT_EQ(ok, run.topo->requests_ok) << run.fault.id();

    // The root spans ARE the latencies the topology stats summarize: the
    // nearest-rank p95 over traced successes must reproduce p95_us exactly.
    EXPECT_EQ(nearest_rank(ok_latencies, 0.95), run.topo->p95_us)
        << run.fault.id();
    EXPECT_EQ(nearest_rank(ok_latencies, 0.50), run.topo->p50_us)
        << run.fault.id();
  }
}

TEST_F(RtraceCampaignTest, InjectionStampIsExactlyOneOrNone) {
  for (const auto& run : all_set_->runs) {
    ASSERT_TRUE(run.rtrace.has_value());
    std::size_t stamped = 0;
    for (const auto& s : run.rtrace->spans) stamped += s.injected ? 1 : 0;
    // The exactly-one invariant: a trace either links its failure to one
    // span or records that the firing landed outside every request — the
    // seed faults all target first invocations, which for sql_server happen
    // during startup, causally BEFORE any request exists.
    EXPECT_EQ(stamped, run.rtrace->injected_span != 0 ? 1u : 0u)
        << run.fault.id();
    EXPECT_EQ(run.rtrace->fault_id, run.fault.id());
  }
}

TEST(RtraceInjection, MidRequestFiringStampsTheInnermostContainingSpan) {
  // FlushFileBuffers is only called from sql_server's query loop, so its
  // first invocation happens while a request is in flight on the db replica:
  // the firing must land inside that request's trace, on the db machine's
  // innermost live span.
  // Under `all`: the firing is masked, and `failures` keeps no masked trace.
  const core::DtsConfig cfg = parse_or_die(all_mode_config());
  inject::FaultSpec fault;
  fault.target_image = cfg.run.workload.target_image;  // sqlservr.exe
  fault.fn = nt::Fn::FlushFileBuffers;
  fault.param_index = 0;
  fault.invocation = 1;
  fault.type = inject::FaultType::kZero;
  fault.tier = "db";

  const core::RunResult run = core::execute_run(cfg.run, fault);
  ASSERT_TRUE(run.rtrace.has_value());
  ASSERT_NE(run.rtrace->injected_span, 0) << "firing landed outside every span";
  const TraceSpan* stamped = nullptr;
  std::size_t count = 0;
  for (const auto& s : run.rtrace->spans) {
    if (s.injected) {
      stamped = &s;
      ++count;
    }
  }
  ASSERT_EQ(count, 1u);
  ASSERT_NE(stamped, nullptr);
  EXPECT_EQ(stamped->id, run.rtrace->injected_span);
  EXPECT_EQ(stamped->tier, "db");
  // The query runs inside the replica's local application check.
  EXPECT_EQ(stamped->name, "app.check");
  // The request that owned the corrupted call is marked injected.
  bool request_linked = false;
  for (const auto& req : run.rtrace->requests) {
    if (req.trace == stamped->trace) request_linked = req.injected;
  }
  EXPECT_TRUE(request_linked);
}

TEST_F(RtraceCampaignTest, ContextNeverLeaksAcrossRequests) {
  // Parent linkage must stay inside one trace even across failover retries,
  // partitions and reconnects: a span parented under another request's span
  // would mean the wire context leaked through a reused connection.
  for (const auto& run : all_set_->runs) {
    ASSERT_TRUE(run.rtrace.has_value());
    std::map<int, std::set<int>> ids_by_trace;
    for (const auto& s : run.rtrace->spans) ids_by_trace[s.trace].insert(s.id);
    for (const auto& s : run.rtrace->spans) {
      if (s.parent == 0) continue;
      EXPECT_TRUE(ids_by_trace[s.trace].count(s.parent))
          << run.fault.id() << ": span " << s.id << " of trace " << s.trace
          << " parented under foreign span " << s.parent;
    }
  }
}

TEST_F(RtraceCampaignTest, JournalIsV7AndNonMaskedRecordsCarryTraces) {
  std::string error;
  const auto file = exec::read_journal_file(*journal_path_, &error);
  ASSERT_TRUE(file.has_value()) << error;
  EXPECT_EQ(file->version, 7u);
  ASSERT_EQ(file->records.size(), 6u);

  for (const auto& rec : file->records) {
    const core::RunResult* run = run_for(rec.fault_id);
    ASSERT_NE(run, nullptr) << rec.fault_id;
    // `failures` journals the trace for failed runs and every run whose
    // user-visible outcome was not fully masked.
    const bool wanted = run->outcome == core::Outcome::kFailure ||
                        run->topo->user_outcome != "masked";
    EXPECT_EQ(!rec.rtrace.empty(), wanted) << rec.fault_id;
    if (!rec.rtrace.empty()) {
      EXPECT_EQ(obs::rtrace::digest_of_serialized(rec.rtrace),
                run->rtrace->digest)
          << rec.fault_id;
      const auto parsed = RunTrace::parse(rec.rtrace);
      ASSERT_TRUE(parsed.has_value()) << rec.fault_id;
      EXPECT_EQ(parsed->spans, run->rtrace->spans) << rec.fault_id;
    }
  }
}

TEST_F(RtraceCampaignTest, MaskedRunUnderFailuresBuildsNoTraceAndJournalsTheSameBytes) {
  // `failures` finalizes a trace only for a run the journal keeps; a masked
  // run carries none, and its record is the `all` record without its trace.
  std::string error;
  const auto failures = exec::read_journal_file(*journal_path_, &error);
  ASSERT_TRUE(failures.has_value()) << error;
  const auto all = exec::read_journal_file(*all_journal_path_, &error);
  ASSERT_TRUE(all.has_value()) << error;
  ASSERT_EQ(failures->records.size(), all->records.size());

  std::size_t masked = 0;
  for (exec::JournalRecord rec : failures->records) {
    const core::RunResult* run = run_for(rec.fault_id);
    ASSERT_NE(run, nullptr) << rec.fault_id;
    const bool is_masked =
        run->outcome != core::Outcome::kFailure && run->topo->user_outcome == "masked";
    masked += is_masked ? 1 : 0;
    EXPECT_EQ(run->rtrace.has_value(), !is_masked) << rec.fault_id;

    auto twin = std::find_if(all->records.begin(), all->records.end(),
                             [&](const exec::JournalRecord& r) { return r.index == rec.index; });
    ASSERT_NE(twin, all->records.end()) << rec.fault_id;
    exec::JournalRecord expected = *twin;
    ASSERT_FALSE(expected.rtrace.empty()) << rec.fault_id;
    if (is_masked) expected.rtrace.clear();
    rec.wall_us = expected.wall_us = 0;  // host time, the one field that may differ
    std::string got_bytes, expected_bytes;
    exec::write_record_fields(&got_bytes, rec);
    exec::write_record_fields(&expected_bytes, expected);
    EXPECT_EQ(got_bytes, expected_bytes) << rec.fault_id;
  }
  EXPECT_GT(masked, 0u) << "the campaign has no masked run to check";
}

TEST_F(RtraceCampaignTest, UntracedCampaignStaysV6WithoutRtTrailers) {
  const std::string untraced_cfg =
      std::string(kTracedThreeTierConfig).substr(
          0, std::string(kTracedThreeTierConfig).find("rtrace"));
  const core::DtsConfig cfg = parse_or_die(untraced_cfg);
  core::CampaignOptions opt = cfg.campaign;
  const std::string path = temp_path("rtrace_untraced_journal.jsonl");
  std::filesystem::remove(path);
  opt.journal_path = path;
  const core::WorkloadSetResult set = core::run_workload_set(cfg.run, opt);
  for (const auto& run : set.runs) EXPECT_FALSE(run.rtrace.has_value());

  std::string error;
  const auto file = exec::read_journal_file(path, &error);
  ASSERT_TRUE(file.has_value()) << error;
  EXPECT_EQ(file->version, 6u);
  for (const auto& rec : file->records) EXPECT_TRUE(rec.rtrace.empty());
}

TEST_F(RtraceCampaignTest, ReplayVerifiesThePropagationPathDigest) {
  std::string error;
  const auto file = exec::read_journal_file(*journal_path_, &error);
  ASSERT_TRUE(file.has_value()) << error;

  for (const auto& rec : file->records) {
    const auto result = forensics::replay_record(*file, rec, {}, &error);
    ASSERT_TRUE(result.has_value()) << rec.fault_id << ": " << error;
    EXPECT_TRUE(result->matches()) << rec.fault_id;
    EXPECT_TRUE(result->rtrace_digest_match) << rec.fault_id;
    if (!rec.rtrace.empty()) {
      // The replayed run rebuilt the same propagation path from scratch.
      EXPECT_NE(result->rtrace_digest, 0u) << rec.fault_id;
      EXPECT_EQ(result->rtrace_digest,
                obs::rtrace::digest_of_serialized(rec.rtrace))
          << rec.fault_id;
    }
  }
}

TEST_F(RtraceCampaignTest, TracedModeIsByteIdenticalAcrossJobs) {
  const core::DtsConfig cfg = parse_or_die(kTracedThreeTierConfig);
  core::CampaignOptions opt = cfg.campaign;
  opt.jobs = 1;
  const std::string serial =
      core::serialize_workload_set(core::run_workload_set(cfg.run, opt));
  opt.jobs = 4;
  const std::string parallel =
      core::serialize_workload_set(core::run_workload_set(cfg.run, opt));
  EXPECT_EQ(serial, parallel);
}

}  // namespace
}  // namespace dts
