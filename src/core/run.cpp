#include "core/run.h"

#include <algorithm>
#include <cmath>

#include "apps/http.h"
#include "ntsim/kernel32.h"
#include "ntsim/scm.h"
#include "sim/pool.h"
#include "topo/install.h"
#include "topo/loadgen.h"

namespace dts::core {

/// The simulated world of one run. Declaration order is load-bearing: the
/// Network must outlive the machines — including the topology machines in
/// `machines`, declared (hence destroyed) after it (see netsim.h).
struct FaultInjectionRun::World {
  World(std::uint64_t seed, double target_cpu_scale, double target_jitter,
        nt::net::NetworkConfig net_cfg)
      : simulation(seed),
        network(simulation, net_cfg),
        target(simulation, nt::MachineConfig{.name = "target",
                                             .cpu_scale = target_cpu_scale,
                                             .jitter = target_jitter}),
        control(simulation, nt::MachineConfig{.name = "control", .cpu_scale = 0.25}) {}

  sim::Simulation simulation;
  nt::net::Network network;
  nt::Machine target;
  nt::Machine control;
  std::vector<std::unique_ptr<nt::Machine>> machines;  // topology machines
  topo::TopologyRuntime topo_rt;
  std::shared_ptr<ClientReport> report = std::make_shared<ClientReport>();
  obs::SpanLog spans;  // middleware latency spans (detection/recovery)
  obs::rtrace::TraceLog rtrace;  // per-hop request spans (topology runs)
};

namespace {

/// Nearest-rank percentile over successful request latencies (µs).
std::int64_t percentile_us(const std::vector<std::int64_t>& sorted, double q) {
  if (sorted.empty()) return 0;
  const auto rank = static_cast<std::size_t>(
      std::max(1.0, std::ceil(q * static_cast<double>(sorted.size()))));
  return sorted[std::min(rank, sorted.size()) - 1];
}

/// Whether a topology run's request trace is built and journaled.
/// kFailures keeps the journal lean: only runs that failed outright or whose
/// users saw degraded service carry their span tree.
bool rtrace_wanted(obs::rtrace::RtraceMode mode, const RunResult& r) {
  switch (mode) {
    case obs::rtrace::RtraceMode::kOff: return false;
    case obs::rtrace::RtraceMode::kAll: return true;
    case obs::rtrace::RtraceMode::kFailures:
      return r.outcome == Outcome::kFailure || (r.topo && r.topo->user_outcome != "masked");
  }
  return false;
}

}  // namespace

FaultInjectionRun::FaultInjectionRun(RunConfig config) : cfg_(std::move(config)) {
  sim::retain_host_heap();
  cfg_.mscs.service_name = cfg_.workload.service_name;
  cfg_.watchd.service_name = cfg_.workload.service_name;
  cfg_.watchd.version = cfg_.watchd_version;
}

FaultInjectionRun::~FaultInjectionRun() = default;

nt::Machine& FaultInjectionRun::target() { return world_->target; }

sim::Simulation& FaultInjectionRun::simulation() { return world_->simulation; }

const obs::SpanLog& FaultInjectionRun::spans() const { return world_->spans; }

std::set<nt::Fn> FaultInjectionRun::activated_functions() const {
  return interceptor_.called(cfg_.workload.target_image);
}

RunResult FaultInjectionRun::execute(const std::optional<inject::FaultSpec>& fault) {
  world_ = std::make_unique<World>(cfg_.seed, cfg_.target_cpu_scale, cfg_.target_jitter,
                                   cfg_.net);
  World& w = *world_;
  if (!cfg_.topo.empty()) return execute_topology(fault);

  // --- install the server -----------------------------------------------------
  std::string_view expected_index;  // the memoized page; outlives the run
  switch (cfg_.workload.server) {
    case ServerKind::kApache:
      expected_index = apps::install_apache(w.target, w.network, cfg_.apache);
      break;
    case ServerKind::kIis:
      if (cfg_.workload.client == ClientKind::kFtp) cfg_.iis.enable_ftp = true;
      expected_index = apps::install_iis(w.target, w.network, cfg_.iis);
      break;
    case ServerKind::kSql:
      apps::install_sql_server(w.target, w.network, cfg_.sql);
      break;
  }

  // --- install middleware ------------------------------------------------------
  // Spans live in the World so middleware coroutines can write through the
  // config pointer for the whole run; refreshed here for every execute().
  cfg_.mscs.spans = &w.spans;
  cfg_.watchd.spans = &w.spans;
  switch (cfg_.middleware) {
    case mw::MiddlewareKind::kNone:
      break;
    case mw::MiddlewareKind::kMscs:
      mw::install_mscs(w.target, cfg_.mscs);
      break;
    case mw::MiddlewareKind::kWatchd:
      cfg_.watchd.heartbeat_port = cfg_.workload.port;
      mw::install_watchd(w.target, cfg_.watchd, &w.network);
      break;
  }

  // --- arm the injector ---------------------------------------------------------
  interceptor_ = inject::Interceptor{};
  interceptor_.set_trace_limit(cfg_.trace_limit);
  if (cfg_.golden_capture > 0) {
    interceptor_.set_golden_capture(cfg_.workload.target_image, cfg_.golden_capture);
  }
  if (fault) interceptor_.arm(*fault);
  w.target.k32().set_hook(&interceptor_);

  // --- start the service (directly, or via the middleware that owns it) ---------
  switch (cfg_.middleware) {
    case mw::MiddlewareKind::kNone:
      w.target.scm().start_service(cfg_.workload.service_name);
      break;
    case mw::MiddlewareKind::kMscs:
      mw::start_mscs(w.target, cfg_.mscs);
      break;
    case mw::MiddlewareKind::kWatchd:
      mw::start_watchd(w.target, cfg_.watchd);
      break;
  }

  // --- start the client workload -------------------------------------------------
  ClientParams params;
  params.target_machine = "target";
  params.port = cfg_.workload.port;
  params.config = cfg_.client;
  params.report = w.report;

  nt::net::Network* net = &w.network;
  if (cfg_.workload.client == ClientKind::kFtp) {
    const std::string_view expected = apps::ftp_download_content();
    w.control.register_program("ftpclient.exe", [params, net, expected](nt::Ctx c) {
      return ftp_client_program(c, net, params, "download.bin", expected);
    });
    w.control.start_process("ftpclient.exe", "ftpclient.exe");
  } else if (cfg_.workload.client == ClientKind::kHttp) {
    const std::string expected_cgi = apps::http::expected_cgi_body("id=42");
    w.control.register_program(
        "httpclient.exe", [params, net, expected_index, expected_cgi](nt::Ctx c) {
          return http_client_program(c, net, params, expected_index, expected_cgi);
        });
    w.control.start_process("httpclient.exe", "httpclient.exe");
  } else {
    const std::string query = apps::sql_client_query();
    const std::string expected = apps::expected_sql_reply(cfg_.sql);
    w.control.register_program("sqlclient.exe",
                               [params, net, query, expected](nt::Ctx c) {
                                 return sql_client_program(c, net, params, query, expected);
                               });
    w.control.start_process("sqlclient.exe", "sqlclient.exe");
  }

  // --- run to completion -----------------------------------------------------------
  const sim::TimePoint cap = w.simulation.now() + cfg_.run_timeout;
  while (!w.report->finished && w.simulation.now() < cap &&
         w.simulation.pending_events() > 0) {
    w.simulation.step_before(cap);
  }
  // Grace period: polling monitors (MSCS) may be one tick away from logging
  // a restart the client already benefited from; let the world settle before
  // reading the logs. Does not affect response times (client timestamps).
  if (w.report->finished) {
    sim::TimePoint settle = w.simulation.now() + sim::Duration::seconds(12);
    if (cap < settle) settle = cap;
    w.simulation.run_until(settle);
  }

  // --- classify ----------------------------------------------------------------------
  RunResult result;
  result.sim_elapsed = w.simulation.now() - sim::TimePoint{};
  if (fault) result.fault = *fault;
  // An injection that left the parameter word unchanged (zeroing an already
  // zero argument, ...) is inert: it cannot change behaviour and must not
  // count toward the paper-table activated-fault denominators.
  result.activated = interceptor_.effective();
  result.client_finished = w.report->finished;
  result.retries = w.report->total_retries();
  result.requests = w.report->requests;

  // Restart accounting mirrors the paper: MSCS restarts come from the NT
  // event log, watchd restarts from its own log file (§3).
  switch (cfg_.middleware) {
    case mw::MiddlewareKind::kNone:
      result.restarts = 0;
      break;
    case mw::MiddlewareKind::kMscs:
      result.restarts = static_cast<int>(
          w.target.event_log().count("ClusSvc", mw::kMscsEventRestart));
      break;
    case mw::MiddlewareKind::kWatchd:
      result.restarts =
          static_cast<int>(mw::watchd_restarts_logged(w.target, cfg_.watchd.log_path));
      break;
  }

  if (!w.report->finished) {
    result.outcome = Outcome::kFailure;
    result.response_received = w.report->any_response();
    result.response_time = cfg_.run_timeout;
    result.detail = "client did not complete within the run timeout";
  } else {
    result.response_time = w.report->finished_at - w.report->started_at;
    if (!w.report->all_ok()) {
      result.outcome = Outcome::kFailure;
      result.response_received = w.report->any_response();
    } else if (result.restarts > 0 && result.retries > 0) {
      result.outcome = Outcome::kRestartRetrySuccess;
    } else if (result.restarts > 0) {
      result.outcome = Outcome::kRestartSuccess;
    } else if (result.retries > 0) {
      result.outcome = Outcome::kRetrySuccess;
    } else {
      result.outcome = Outcome::kNormalSuccess;
    }
  }

  // Diagnostics: the target image's abnormal exits, if any.
  for (const auto& rec : w.target.exit_history()) {
    if (rec.image == cfg_.workload.target_image && rec.exit_code >= 0xC0000000u) {
      result.detail = rec.reason;
      break;
    }
  }
  return result;
}

RunResult FaultInjectionRun::execute_topology(const std::optional<inject::FaultSpec>& fault) {
  World& w = *world_;

  // --- build the tier machines and their wiring --------------------------------
  w.rtrace.set_enabled(cfg_.rtrace != obs::rtrace::RtraceMode::kOff);
  topo::TierHostParams hp;
  hp.apache = cfg_.apache;
  hp.iis = cfg_.iis;
  hp.sql = cfg_.sql;
  hp.jitter = cfg_.target_jitter;
  hp.hop_timeout = cfg_.client.response_timeout;
  hp.ready_timeout = cfg_.client.server_up_timeout;
  hp.ready_poll = cfg_.client.server_up_poll;
  hp.trace = &w.rtrace;
  w.topo_rt = topo::install_topology(w.simulation, w.network, w.machines, cfg_.topo, hp);

  // Per-link network overrides: tier names (or "client") expand to the
  // tier's machines. Resolved before anything connects.
  for (const auto& link : cfg_.links) {
    nt::net::NetworkConfig lc = cfg_.net;
    if (link.latency_us >= 0) lc.latency = sim::Duration::micros(link.latency_us);
    if (link.bytes_per_second >= 0) {
      lc.bytes_per_second = static_cast<std::uint64_t>(link.bytes_per_second);
    }
    const auto machines_of = [&](const std::string& endpoint) {
      std::vector<std::string> out;
      if (endpoint == "client") {
        out.push_back("control");
        return out;
      }
      for (const auto& tr : w.topo_rt.tiers) {
        if (tr.spec.name != endpoint) continue;
        out.push_back(tr.lb);
        out.insert(out.end(), tr.instances.begin(), tr.instances.end());
      }
      return out;
    };
    for (const auto& a : machines_of(link.a)) {
      for (const auto& b : machines_of(link.b)) w.network.set_link(a, b, lc);
    }
  }

  // --- arm the injector on the faulted tier's instances -------------------------
  // Only that tier's machines are hooked, so invocation counting — keyed by
  // (image, fn) — numbers the tier's calls even when another tier runs the
  // same application.
  interceptor_ = inject::Interceptor{};
  interceptor_.set_trace_limit(cfg_.trace_limit);
  if (cfg_.golden_capture > 0) {
    interceptor_.set_golden_capture(cfg_.workload.target_image, cfg_.golden_capture);
  }
  if (fault) interceptor_.arm(*fault);
  for (nt::Machine* m : w.topo_rt.tier_instances(cfg_.topo.fault_tier)) {
    m->k32().set_hook(&interceptor_);
  }

  // --- start the open-loop generator on the control machine ----------------------
  topo::LoadgenParams lg;
  lg.front_machine = w.topo_rt.front_machine;
  lg.front_port = w.topo_rt.front_port;
  lg.requests = cfg_.topo.requests;
  lg.offered_rps_milli = cfg_.topo.offered_rps_milli;
  lg.response_timeout = cfg_.client.response_timeout;
  lg.server_up_timeout = cfg_.client.server_up_timeout;
  lg.server_up_poll = cfg_.client.server_up_poll;
  lg.report = w.report;
  lg.trace = &w.rtrace;
  nt::net::Network* net = &w.network;
  w.control.register_program(
      "loadgen.exe", [net, lg](nt::Ctx c) { return topo::loadgen_program(c, net, lg); });
  w.control.start_process("loadgen.exe", "loadgen.exe");

  // --- run to completion (same step/settle discipline as the classic path) -------
  const sim::TimePoint cap = w.simulation.now() + cfg_.run_timeout;
  while (!w.report->finished && w.simulation.now() < cap &&
         w.simulation.pending_events() > 0) {
    w.simulation.step_before(cap);
  }
  if (w.report->finished) {
    sim::TimePoint settle = w.simulation.now() + sim::Duration::seconds(12);
    if (cap < settle) settle = cap;
    w.simulation.run_until(settle);
  }

  // --- classify -------------------------------------------------------------------
  RunResult result;
  result.sim_elapsed = w.simulation.now() - sim::TimePoint{};
  if (fault) result.fault = *fault;
  result.activated = interceptor_.effective();
  result.client_finished = w.report->finished;
  result.restarts = 0;  // no middleware in topology runs
  result.retries = 0;   // the generator never retries
  result.requests = w.report->requests;

  TopoRunStats ts;
  ts.tier = cfg_.topo.fault_tier;
  ts.offered_rps_milli = cfg_.topo.offered_rps_milli;
  ts.requests_total = cfg_.topo.requests;
  std::vector<std::int64_t> ok_latencies;
  for (const auto& r : w.report->requests) {
    if (r.ok) {
      ++ts.requests_ok;
      ok_latencies.push_back(r.elapsed.count_micros());
    }
  }
  std::sort(ok_latencies.begin(), ok_latencies.end());
  ts.p50_us = percentile_us(ok_latencies, 0.50);
  ts.p95_us = percentile_us(ok_latencies, 0.95);
  ts.p99_us = percentile_us(ok_latencies, 0.99);
  const std::int64_t threshold_us =
      cfg_.topo.degraded_p95_ms > 0 ? cfg_.topo.degraded_p95_ms * 1000
                                    : cfg_.client.response_timeout.count_micros() / 2;
  if (ts.requests_ok == 0) {
    ts.user_outcome = "outage";
  } else if (ts.requests_ok < ts.requests_total) {
    ts.user_outcome = "partial";
  } else if (ts.p95_us > threshold_us) {
    ts.user_outcome = "degraded";
  } else {
    ts.user_outcome = "masked";
  }
  result.topo = std::make_shared<const TopoRunStats>(ts);

  // The classic five-way axis collapses to success/failure here: the
  // open-loop generator has no retry protocol and topology runs carry no
  // middleware, so the restart/retry outcomes cannot occur.
  if (!w.report->finished) {
    result.outcome = Outcome::kFailure;
    result.response_received = w.report->any_response();
    result.response_time = cfg_.run_timeout;
    result.detail = "workload generator did not complete within the run timeout";
  } else {
    result.response_time = w.report->finished_at - w.report->started_at;
    if (ts.requests_ok == ts.requests_total) {
      result.outcome = Outcome::kNormalSuccess;
    } else {
      result.outcome = Outcome::kFailure;
      result.response_received = w.report->any_response();
    }
  }

  // Finalize the request trace of a run the journal keeps: stamp the
  // injection onto the span the corruption landed in, compute critical-path
  // attribution and the propagation-path digest. A trace the journal drops
  // is never built.
  if (rtrace_wanted(cfg_.rtrace, result)) {
    obs::rtrace::FinalizeParams fp;
    if (fault) fp.fault_id = fault->id();
    if (interceptor_.injected()) {
      fp.injection_us =
          (interceptor_.injection_time() - sim::TimePoint{}).count_micros();
      fp.injection_machine = interceptor_.injection_machine();
    }
    result.rtrace = std::make_shared<const obs::rtrace::RunTrace>(
        obs::rtrace::finalize_trace(w.rtrace.take_spans(), fp));
  }

  // Diagnostics: the target image's abnormal exits anywhere in the faulted
  // tier.
  for (nt::Machine* m : w.topo_rt.tier_instances(cfg_.topo.fault_tier)) {
    bool found = false;
    for (const auto& rec : m->exit_history()) {
      if (rec.image == cfg_.workload.target_image && rec.exit_code >= 0xC0000000u) {
        result.detail = rec.reason;
        found = true;
        break;
      }
    }
    if (found) break;
  }
  return result;
}

RunResult execute_run(const RunConfig& config, const std::optional<inject::FaultSpec>& fault) {
  FaultInjectionRun run(config);
  return run.execute(fault);
}

}  // namespace dts::core
