#include "core/clients.h"

#include <functional>

#include "apps/ftp.h"
#include "apps/http.h"
#include "ntsim/kernel.h"

namespace dts::core {

namespace {

using nt::Ctx;

/// Waits (bounded) for the server port to accept connections. The DTS agent
/// performed this "wait for server to be up" step before launching the
/// client programs (paper Fig. 1).
sim::CoTask<bool> wait_for_server(Ctx c, nt::net::Network* net, const ClientParams& p) {
  const sim::TimePoint deadline = c.m().sim().now() + p.config.server_up_timeout;
  while (c.m().sim().now() < deadline) {
    if (net->port_open(p.target_machine, p.port)) co_return true;
    co_await nt::sleep_in_sim(c, p.config.server_up_poll);
  }
  co_return false;
}

/// One request with the DTS retry protocol: up to max_attempts attempts,
/// `check` validates the raw reply, 15 s between attempts.
sim::CoTask<RequestResult> attempt_request(
    Ctx c, nt::net::Network* net, const ClientParams& p, const std::string& wire_request,
    const std::function<bool(const nt::net::Payload&)>& check) {
  RequestResult result;
  const sim::TimePoint t0 = c.m().sim().now();
  for (int attempt = 1; attempt <= p.config.max_attempts; ++attempt) {
    result.attempts = attempt;
    if (attempt > 1) co_await nt::sleep_in_sim(c, p.config.retry_wait);

    auto sock = co_await net->connect(c, p.target_machine, p.port);
    if (sock == nullptr) {
      result.detail = "connection refused";
      continue;
    }
    sock->send(wire_request);

    // Collect the reply until EOF, bounded by the response timeout.
    const sim::TimePoint deadline = c.m().sim().now() + p.config.response_timeout;
    nt::net::Payload reply;
    const bool timed_out = !co_await sock->recv_to_eof(c, deadline, reply);

    if (!reply.empty()) result.any_response = true;
    if (timed_out) {
      result.detail = "timeout";
      continue;
    }
    if (reply.empty()) {
      result.detail = "connection reset";
      continue;
    }
    if (check(reply)) {
      result.ok = true;
      result.detail.clear();
      break;
    }
    result.detail = "incorrect reply (" + std::to_string(reply.size()) + " bytes)";
  }
  result.elapsed = c.m().sim().now() - t0;
  co_return result;
}

void finish(Ctx c, const ClientParams& p) {
  p.report->finished = true;
  p.report->finished_at = c.m().sim().now();
  c.m().sim().hold();  // the run loop checks `finished` at this instant
}

}  // namespace

sim::Task http_client_program(Ctx c, nt::net::Network* net, ClientParams params,
                              std::string_view expected_index, std::string expected_cgi) {
  params.report->started_at = c.m().sim().now();
  co_await wait_for_server(c, net, params);
  // Whether or not the server came up, run the requests: a down server shows
  // up as refused connections and the retry protocol takes over.

  auto r1 = co_await attempt_request(
      c, net, params, "GET /index.html HTTP/1.0\r\nHost: target\r\n\r\n",
      [&](const nt::net::Payload& reply) { return apps::http::http_ok(reply, expected_index); });
  params.report->requests.push_back(std::move(r1));

  auto r2 = co_await attempt_request(
      c, net, params, "GET /cgi-bin/test.cgi?id=42 HTTP/1.0\r\nHost: target\r\n\r\n",
      [&](const nt::net::Payload& reply) { return apps::http::http_ok(reply, expected_cgi); });
  params.report->requests.push_back(std::move(r2));

  finish(c, params);
}

sim::Task ftp_client_program(Ctx c, nt::net::Network* net, ClientParams params,
                             std::string path, std::string_view expected_payload) {
  params.report->started_at = c.m().sim().now();
  co_await wait_for_server(c, net, params);

  RequestResult result;
  const sim::TimePoint t0 = c.m().sim().now();
  for (int attempt = 1; attempt <= params.config.max_attempts; ++attempt) {
    result.attempts = attempt;
    if (attempt > 1) co_await nt::sleep_in_sim(c, params.config.retry_wait);
    auto payload = co_await apps::ftp::ftp_fetch(c, net, params.target_machine,
                                                 params.port, path,
                                                 params.config.response_timeout * 2);
    if (payload) {
      result.any_response = true;
      if (*payload == expected_payload) {
        result.ok = true;
        result.detail.clear();
        break;
      }
      result.detail = "incorrect payload (" + std::to_string(payload->size()) + " bytes)";
    } else {
      result.detail = "transfer failed";
    }
  }
  result.elapsed = c.m().sim().now() - t0;
  params.report->requests.push_back(std::move(result));
  finish(c, params);
}

sim::Task sql_client_program(Ctx c, nt::net::Network* net, ClientParams params,
                             std::string query, std::string expected_reply) {
  params.report->started_at = c.m().sim().now();
  co_await wait_for_server(c, net, params);

  auto r = co_await attempt_request(
      c, net, params, query + "\n",
      [&](const nt::net::Payload& reply) { return reply.equals(expected_reply); });
  params.report->requests.push_back(std::move(r));

  finish(c, params);
}

}  // namespace dts::core
