// Simulated NT Service Control Manager.
//
// Reproduces the behaviour the paper's Fig. 4 analysis hinges on: "When any
// service is in a pending state, the SCM locks its database, which causes any
// state change requests to the SCM to be denied. Thus, both MSCS and watchd
// must wait until the 'Start Pending' state times out before initiating a
// restart of the service."
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>

#include "ntsim/event_log.h"
#include "ntsim/types.h"
#include "sim/time.h"

namespace dts::nt {

class Machine;

enum class ServiceState { kStopped, kStartPending, kRunning, kStopPending };

std::string_view to_string(ServiceState s);

struct ServiceConfig {
  std::string name;
  std::string image;         // program image started for this service
  std::string command_line;
  /// Wait hint: how long the SCM tolerates the start-pending state before
  /// declaring the start failed. The paper observed Apache holding the
  /// pending state longer than IIS; the hint is where that lives.
  sim::Duration start_wait_hint = sim::Duration::seconds(30);
};

struct ServiceStatus {
  ServiceState state = ServiceState::kStopped;
  Pid pid = 0;
  /// Process handle-equivalent: the object is exposed so monitors (watchd)
  /// can wait on service death. May be null when stopped.
  std::shared_ptr<class ProcessObject> process;
};

class Scm {
 public:
  explicit Scm(Machine& machine);

  void register_service(ServiceConfig cfg);
  bool has_service(std::string_view name) const;

  /// Appends a command-line switch to a registered service (middleware
  /// installers add their interaction flags, e.g. "/cluster"). Returns false
  /// if the service does not exist or already carries the switch.
  bool append_service_switch(const std::string& name, const std::string& sw);

  /// True while any service is in a pending state. While locked, all state
  /// change requests (start/stop) are denied with
  /// ERROR_SERVICE_DATABASE_LOCKED.
  bool database_locked() const;

  /// Starts a service: spawns its process and enters StartPending. The
  /// service process must report Running via set_service_status before the
  /// start wait hint expires.
  ///
  /// If `info` is non-null it receives the new process object, captured at
  /// spawn time — the "merged startService/getServiceInfo" API the improved
  /// watchd (Watchd2/3) relies on. The original Watchd1 instead calls
  /// start_service() and later query(), losing the handle if the process
  /// dies in between (the paper's coverage hole).
  Win32Error start_service(const std::string& name,
                           std::shared_ptr<ProcessObject>* info = nullptr);

  /// Requests a stop: enters StopPending and asks the machine to terminate
  /// the service process.
  Win32Error control_stop(const std::string& name);

  std::optional<ServiceStatus> query(const std::string& name) const;

  /// Called by the service process itself (SetServiceStatus). Only the
  /// process registered for the service may report.
  Win32Error set_service_status(Pid pid, ServiceState state);

  /// Machine teardown hook: a process died. If it backed a running service,
  /// the service becomes Stopped (logged). If it backed a *pending* service,
  /// the SCM keeps the pending state (and the database lock!) until the wait
  /// hint expires — the paper's restart-delay mechanism.
  void on_process_exit(Pid pid);

  /// Total number of successful service starts (diagnostics).
  std::size_t starts() const { return starts_; }

 private:
  struct Record {
    ServiceConfig cfg;
    ServiceState state = ServiceState::kStopped;
    Pid pid = 0;
    std::uint64_t pending_epoch = 0;  // invalidates stale deadline events
  };

  void log(EventSeverity sev, std::uint32_t id, std::string msg);
  void arm_start_deadline(const std::string& name);

  Machine* machine_;
  std::map<std::string, Record> services_;
  std::size_t starts_ = 0;
};

}  // namespace dts::nt
