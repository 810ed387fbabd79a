// FTP service substrate — the IIS capability the paper mentions but never
// measured ("Although IIS can serve as an HTTP server, an FTP server, and a
// gopher server, only the HTTP functionality was tested"). This module
// provides the protocol engine and the FtpClient workload so the extension
// experiment (the IIS-FTP table of bench/paper_tables) can measure it under
// the same harness.
//
// Protocol subset: USER/PASS (anonymous), SYST, TYPE, PWD, CWD, PASV, RETR,
// LIST, QUIT — enough for the paper-style "fetch one file and verify it"
// workload. One control connection per session; PASV data connections.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "apps/winapp.h"
#include "ntsim/netsim.h"

namespace dts::apps::ftp {

struct FtpConfig {
  std::uint16_t control_port = 21;
  /// Base for passive-mode data ports (one per transfer, cycled).
  std::uint16_t pasv_port_base = 20000;
  std::string root = "C:\\InetPub\\ftproot";
  sim::Duration command_cost = sim::Duration::millis(400);
  sim::Duration session_idle_timeout = sim::Duration::seconds(60);
};

/// Runs the FTP service loop on the calling simulated thread (spawned inside
/// inetinfo.exe when the IIS config enables FTP). File access goes through
/// the injectable KERNEL32 surface.
sim::Task ftp_service(nt::Ctx c, FtpConfig cfg, nt::net::Network* net);

/// One FTP fetch: connects, logs in anonymously, RETRs `path` in passive
/// mode, and returns the file bytes (nullopt on any protocol/transfer
/// failure). Used by the FtpClient workload and by tests.
sim::CoTask<std::optional<std::string>> ftp_fetch(nt::Ctx c, nt::net::Network* net,
                                                  const std::string& server_machine,
                                                  std::uint16_t port,
                                                  const std::string& path,
                                                  sim::Duration timeout);

}  // namespace dts::apps::ftp
