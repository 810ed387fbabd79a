// Minimal HTTP/1.0 substrate shared by the simulated Apache and IIS servers,
// plus the CGI child-process runner (pipes + CreateProcessA — all on the
// injectable KERNEL32 surface, which is exactly where DTS found CGI bugs).
#pragma once

#include <map>
#include <optional>
#include <string>
#include <string_view>

#include "apps/winapp.h"
#include "ntsim/netsim.h"

namespace dts::apps::http {

struct Request {
  std::string method;
  std::string target;   // path?query
  std::string version;
  std::map<std::string, std::string> headers;

  std::string path() const {
    const auto q = target.find('?');
    return q == std::string::npos ? target : target.substr(0, q);
  }
  std::string query() const {
    const auto q = target.find('?');
    return q == std::string::npos ? "" : target.substr(q + 1);
  }
};

/// Parses a raw request (request line + headers). Nullopt if malformed.
std::optional<Request> parse_request(const std::string& raw);

/// The header block of an HTTP/1.0 response with a `body_size`-byte body,
/// through the blank line. A server sends it as the head of the reply and
/// the body as its tail (nt::net::Socket::send), so the body is never
/// joined to it on the host.
std::string response_head(int status, std::string_view content_type, std::size_t body_size,
                          std::string_view server_name);

/// True if `reply` is an HTTP/1.0 200 response whose body (everything after
/// the first blank line) is exactly `expected_body` — the reply check of the
/// DTS HttpClient and of the topology relays. A reply whose head ends at the
/// blank line and whose tail is the very string `expected_body` views passes
/// without a byte comparison: callers pass a memoized page, which is
/// immutable for the life of the process, so the same object means the same
/// bytes.
bool http_ok(const nt::net::Payload& reply, std::string_view expected_body);

std::string_view reason_phrase(int status);

/// Reads one request (through the terminating blank line) from a socket.
sim::CoTask<std::optional<Request>> read_request(Ctx c, nt::net::Socket& sock,
                                                 sim::Duration timeout);

/// Runs a CGI program as a child process with its stdout redirected into a
/// pipe (CreatePipe + STARTF_USESTDHANDLES + CreateProcessA), collects its
/// output and reaps it. Returns nullopt on any failure (spawn error, CGI
/// crash, timeout). All calls go through the injectable dispatcher.
sim::CoTask<std::optional<std::string>> run_cgi(const Api& api, const std::string& cgi_image,
                                                const Request& req,
                                                sim::Duration timeout);

/// Registers the simulated CGI interpreter program (`cgi.exe`) on a machine.
/// It reads QUERY_STRING/REQUEST_METHOD from its environment, burns
/// interpreter-startup CPU, and writes a ~1 kB HTML document to stdout.
void register_cgi_program(nt::Machine& machine, sim::Duration startup_cost);

/// The exact body the simulated CGI emits for a given query — used by the
/// DTS client to check response correctness.
std::string expected_cgi_body(const std::string& query);

}  // namespace dts::apps::http
