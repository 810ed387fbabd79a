// The simulated NT machine: processes, filesystem, SCM, event log, and the
// KERNEL32 API surface. One Machine per simulated box; a fault-injection run
// typically simulates a target machine and a client machine on one network.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "ntsim/event_log.h"
#include "ntsim/filesystem.h"
#include "ntsim/process.h"
#include "ntsim/registry.h"
#include "ntsim/scm.h"
#include "ntsim/types.h"
#include "sim/simulation.h"

namespace dts::nt {

class Kernel32;

struct MachineConfig {
  std::string name = "target";
  /// Relative CPU cost multiplier. 1.0 models the paper's 100 MHz Pentium;
  /// 0.25 approximates their 400 MHz Pentium II.
  double cpu_scale = 1.0;
  /// Multiplicative execution-time noise (0 = none): each cost is scaled by
  /// a uniform factor in [1-jitter, 1+jitter] drawn from the simulation RNG.
  /// Models OS scheduling/cache noise; still fully reproducible per seed.
  /// The paper's multi-child Apache nondeterminism only appears with noise.
  double jitter = 0.0;
};

/// Record of a finished process, kept for diagnostics and restart counting.
struct ProcessExitRecord {
  Pid pid = 0;
  std::string image;
  Dword exit_code = 0;
  std::string reason;
  sim::TimePoint at;
};

struct ProcessStartRecord {
  Pid pid = 0;
  std::string image;
  sim::TimePoint at;
};

class Machine {
 public:
  Machine(sim::Simulation& sim, MachineConfig cfg);
  ~Machine();

  Machine(const Machine&) = delete;
  Machine& operator=(const Machine&) = delete;

  sim::Simulation& sim() const { return *sim_; }
  const std::string& name() const { return cfg_.name; }
  double cpu_scale() const { return cfg_.cpu_scale; }

  /// Scales a base syscall/work cost by the machine's CPU speed, plus the
  /// configured execution-time jitter.
  sim::Duration cost(sim::Duration base) const {
    double scaled = static_cast<double>(base.count_micros()) * cfg_.cpu_scale;
    if (cfg_.jitter > 0.0) {
      scaled *= 1.0 + cfg_.jitter * (2.0 * sim_->rng().uniform01() - 1.0);
    }
    return sim::Duration::micros(static_cast<std::int64_t>(scaled));
  }

  Filesystem& fs() { return fs_; }
  Registry& registry() { return registry_; }
  EventLog& event_log() { return event_log_; }
  Scm& scm() { return *scm_; }
  Kernel32& k32() { return *k32_; }

  // --- program images --------------------------------------------------------
  using ProgramMain = std::function<sim::Task(Ctx)>;
  void register_program(std::string image, ProgramMain main_fn);
  bool has_program(std::string_view image) const;

  // --- process lifecycle -----------------------------------------------------

  /// Starts a process from a registered program image. Returns 0 if the image
  /// is unknown.
  Pid start_process(const std::string& image, const std::string& command_line,
                    Pid parent_pid = 0);

  Process* find_process(Pid pid);
  const Process* find_process(Pid pid) const;

  /// First live process whose image matches (used by tests and middleware).
  Process* find_process_by_image(std::string_view image);

  bool alive(Pid pid) const { return find_process(pid) != nullptr; }
  std::size_t live_processes() const { return processes_.size(); }

  /// Requests asynchronous termination of a process (NT TerminateProcess /
  /// ExitProcess / unhandled exception all funnel here). Safe to call from
  /// within one of the process's own threads: actual teardown runs as a
  /// zero-delay simulation event.
  void request_process_exit(Pid pid, Dword code, std::string reason);

  /// Invoked by the Task completion hook of every simulated thread.
  void on_thread_complete(Pid pid, Tid tid, std::exception_ptr error);

  // --- history & stats -------------------------------------------------------
  const std::vector<ProcessExitRecord>& exit_history() const { return exit_history_; }
  const std::vector<ProcessStartRecord>& start_history() const { return start_history_; }

  /// Number of process starts of `image` strictly after `since`.
  std::size_t starts_of(std::string_view image, sim::TimePoint since = {}) const;
  /// Number of crashes (abnormal exits) of `image`.
  std::size_t crashes_of(std::string_view image) const;

  std::uint64_t syscalls_made = 0;

 private:
  void teardown(Pid pid, Dword code, std::string reason);

  sim::Simulation* sim_;
  MachineConfig cfg_;
  Filesystem fs_;
  Registry registry_;
  EventLog event_log_;
  std::unique_ptr<Scm> scm_;
  std::unique_ptr<Kernel32> k32_;

  std::map<std::string, ProgramMain> programs_;
  std::map<Pid, std::unique_ptr<Process>> processes_;
  Pid next_pid_ = 100;

  std::vector<ProcessExitRecord> exit_history_;
  std::vector<ProcessStartRecord> start_history_;
};

}  // namespace dts::nt
