// Simulated Microsoft IIS 3.0 (HTTP service only, as in the paper).
//
// Single process — every crash is fatal without middleware, the mechanism
// behind "IIS fails roughly twice as often as Apache stand-alone". The init
// path deliberately touches a large slice of KERNEL32 (paper Table 1: 70–76
// activated functions), and error handling follows the era's closed-source
// style: many return values go unchecked, so soft failures corrupt state
// instead of stopping the server.
#pragma once

#include <cstdint>
#include <string>

#include "apps/ftp.h"
#include "ntsim/kernel.h"
#include "ntsim/netsim.h"

namespace dts::apps {

struct IisConfig {
  std::string service_name = "W3SVC";
  std::string image = "inetinfo.exe";
  std::uint16_t port = 80;
  std::string doc_root = "C:\\InetPub\\wwwroot";
  std::string metabase_path = "C:\\WINNT\\system32\\inetsrv\\metabase.bin";
  std::string log_dir = "C:\\WINNT\\system32\\LogFiles";

  /// CPU costs at cpu_scale 1.0.
  sim::Duration init_cost_per_phase = sim::Duration::millis(700);  // 3 phases
  sim::Duration static_request_cost = sim::Duration::millis(6500);
  sim::Duration cgi_startup_cost = sim::Duration::millis(9800);
  sim::Duration cgi_timeout = sim::Duration::seconds(30);

  /// IIS reports Running quickly relative to Apache/SQL, and declares a
  /// short start wait hint — so its start-pending hangs clear fast.
  sim::Duration start_wait_hint = sim::Duration::seconds(10);

  std::size_t index_size = 115 * 1024;

  /// The FTP service (MSFTPSVC) runs inside inetinfo.exe when enabled — the
  /// IIS capability the paper mentions but never measured. Off by default so
  /// the calibrated HTTP workloads are unaffected.
  bool enable_ftp = false;
  ftp::FtpConfig ftp;

  /// The gopher service (GOPHERSVC) — the third protocol the paper names.
  /// Selector in, document out, connection closed. Off by default.
  bool enable_gopher = false;
  std::uint16_t gopher_port = 70;
  std::string gopher_root = "C:\\InetPub\\gophroot";
};

/// Contents of the file the FTP workload downloads (ftproot\download.bin);
/// memoized like apache_index_content.
const std::string& ftp_download_content();

/// Installs the IIS program, content and service registration. Returns the
/// static index.html content (memoized, valid for the life of the process,
/// and shared by index.html, not copied).
const std::string& install_iis(nt::Machine& machine, nt::net::Network& network,
                               const IisConfig& cfg = {});

}  // namespace dts::apps
