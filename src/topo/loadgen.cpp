#include "topo/loadgen.h"

#include "ntsim/kernel.h"

namespace dts::topo {

namespace {

using nt::Ctx;

/// One open-loop request: single attempt, single connection, hard deadline.
/// With tracing on, the request id doubles as the trace id and this thread
/// owns the root span; the reply check uses the bare id, so traced and
/// untraced replies verify identically.
sim::Task request_thread(Ctx c, nt::net::Network* net, LoadgenParams p, int id) {
  core::RequestResult result;
  result.attempts = 1;
  const sim::TimePoint t0 = c.m().sim().now();
  const auto us = [&c] { return (c.m().sim().now() - sim::TimePoint{}).count_micros(); };
  obs::rtrace::TraceLog* tl = p.trace != nullptr && p.trace->enabled() ? p.trace : nullptr;
  const int root =
      tl != nullptr ? tl->begin_span(id, 0, "request", "client", "control", us()) : 0;
  std::string outcome = "refused";

  auto sock = co_await net->connect(c, p.front_machine, p.front_port);
  if (sock == nullptr) {
    result.detail = "connection refused";
  } else {
    std::string line = "REQ " + std::to_string(id);
    if (tl != nullptr) line += " " + obs::rtrace::wire_token(id, root);
    sock->send(line + "\n");
    auto reply = co_await sock->recv_until(c, "\n", 4096, p.response_timeout);
    if (!reply) {
      result.detail = "no reply";  // timeout or connection reset
      outcome = "timeout";
    } else {
      result.any_response = true;
      if (*reply == "OK " + std::to_string(id) + "\n") {
        result.ok = true;
        outcome = "ok";
      } else {
        result.detail = "error reply";
        outcome = "err";
      }
    }
  }
  if (tl != nullptr) tl->end_span(root, us(), outcome);
  result.elapsed = c.m().sim().now() - t0;
  p.report->requests.push_back(std::move(result));
}

}  // namespace

sim::Task loadgen_program(Ctx c, nt::net::Network* net, LoadgenParams params) {
  params.report->started_at = c.m().sim().now();

  const sim::TimePoint up_deadline = c.m().sim().now() + params.server_up_timeout;
  while (c.m().sim().now() < up_deadline &&
         !net->port_open(params.front_machine, params.front_port)) {
    co_await nt::sleep_in_sim(c, params.server_up_poll);
  }
  // Up or not, issue the workload: a down front tier shows up as refused
  // connections, i.e. a full outage, not a hang.

  const std::int64_t rate = params.offered_rps_milli > 0 ? params.offered_rps_milli : 1;
  const sim::Duration inter_arrival = sim::Duration::micros(1'000'000'000 / rate);
  for (int i = 1; i <= params.requests; ++i) {
    nt::net::Network* np = net;
    LoadgenParams p = params;
    c.proc().spawn_thread([np, p, i](Ctx tc) { return request_thread(tc, np, p, i); });
    if (i < params.requests) co_await nt::sleep_in_sim(c, inter_arrival);
  }

  // Every request has a bounded lifetime (refusal, reply or timeout), so this
  // poll always terminates well inside the run timeout.
  while (params.report->requests.size() < static_cast<std::size_t>(params.requests)) {
    co_await nt::sleep_in_sim(c, sim::Duration::millis(100));
  }
  params.report->finished = true;
  params.report->finished_at = c.m().sim().now();
  c.m().sim().hold();  // the run loop checks `finished` at this instant
}

}  // namespace dts::topo
