// Simulated Apache 1.3.3 for Win32, in the paper's two-process configuration:
// a management process ("Apache1") that spawns and respawns a single worker
// ("Apache2") which serves all HTTP requests. The management process's
// monitor-and-respawn loop is the built-in fault tolerance the paper found
// made external middleware redundant for worker faults.
#pragma once

#include <cstdint>
#include <string>

#include "ntsim/kernel.h"
#include "ntsim/netsim.h"

namespace dts::apps {

struct ApacheConfig {
  std::string service_name = "Apache";
  std::string master_image = "apache.exe";
  std::string worker_image = "apache_child.exe";
  std::uint16_t port = 80;
  std::string doc_root = "C:\\Apache\\htdocs";
  std::string conf_path = "C:\\Apache\\conf\\httpd.ini";
  std::string log_dir = "C:\\Apache\\logs";

  /// CPU costs at cpu_scale 1.0 (the 100 MHz Pentium).
  sim::Duration master_init_cost = sim::Duration::millis(150);
  /// Work between the Running report and the worker spawn (log setup etc.).
  sim::Duration post_running_delay = sim::Duration::millis(700);
  sim::Duration worker_init_cost = sim::Duration::millis(400);
  sim::Duration static_request_cost = sim::Duration::millis(4400);
  sim::Duration cgi_startup_cost = sim::Duration::millis(8200);
  sim::Duration cgi_timeout = sim::Duration::seconds(30);
  sim::Duration respawn_delay = sim::Duration::millis(250);

  /// The service's start wait hint. Apache's NT service wrapper declared a
  /// generous hint — the reason its start-pending hangs took so long to
  /// clear (paper §4.2).
  sim::Duration start_wait_hint = sim::Duration::seconds(45);

  /// Size of the static document the paper's HttpClient fetches.
  std::size_t index_size = 115 * 1024;

  /// Worker-pool size. The paper pins this to ONE child: "Configuring Apache
  /// for only one child process guarantees that the same child process will
  /// pick up the request each time, thus ensuring reproducible results."
  /// Values > 1 restore Apache's default pool; the ablation_multiprocess
  /// bench shows the activation nondeterminism that motivated the pin.
  int max_children = 1;
};

/// Installs the Apache programs, document tree, configuration file and SCM
/// service registration on a machine. Returns the static index.html content
/// (what a correct response must carry): the memoized page of
/// apache_index_content, valid for the life of the process.
const std::string& install_apache(nt::Machine& machine, nt::net::Network& network,
                                  const ApacheConfig& cfg = {});

/// Deterministic content of the 115 kB static document. Memoized per size:
/// the reference stays valid (and the bytes unchanged) for the life of the
/// process, so callers on any thread may hold it instead of copying.
const std::string& apache_index_content(std::size_t size);

}  // namespace dts::apps
