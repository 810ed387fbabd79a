// The DTS workload clients (paper §4): HttpClient fetches a 115 kB static
// page and a 1 kB CGI page; SqlClient issues one single-table SELECT. Both
// verify reply correctness, time out after 15 s, wait 15 s between retries,
// and give up after the third attempt.
#pragma once

#include <memory>
#include <string>
#include <string_view>

#include "core/outcome.h"
#include "ntsim/netsim.h"
#include "ntsim/process.h"

namespace dts::core {

struct ClientConfig {
  sim::Duration response_timeout = sim::Duration::seconds(15);
  sim::Duration retry_wait = sim::Duration::seconds(15);
  int max_attempts = 3;

  /// DTS starts the client only after the server comes up (paper Fig. 1:
  /// "Wait for server to be up"), bounded by this timeout.
  sim::Duration server_up_timeout = sim::Duration::seconds(90);
  sim::Duration server_up_poll = sim::Duration::millis(500);
};

struct ClientParams {
  std::string target_machine = "target";
  std::uint16_t port = 80;
  ClientConfig config;
  std::shared_ptr<ClientReport> report;
};

/// HttpClient: two requests — GET /index.html (expects `expected_index`) and
/// GET /cgi-bin/test.cgi?id=42 (expects the CGI body for query "id=42").
/// `expected_index` is a view, not a copy: it must outlive the program (the
/// memoized page that install_apache/install_iis return does).
sim::Task http_client_program(nt::Ctx c, nt::net::Network* net, ClientParams params,
                              std::string_view expected_index, std::string expected_cgi);

/// SqlClient: one SELECT over the seeded table, reply must match exactly.
sim::Task sql_client_program(nt::Ctx c, nt::net::Network* net, ClientParams params,
                             std::string query, std::string expected_reply);

/// FtpClient (extension workload): downloads `path` via anonymous FTP and
/// verifies the payload, with the same retry protocol. `expected_payload` is
/// a view like `expected_index` (of the memoized ftp_download_content).
sim::Task ftp_client_program(nt::Ctx c, nt::net::Network* net, ClientParams params,
                             std::string path, std::string_view expected_payload);

}  // namespace dts::core
