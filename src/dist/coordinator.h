// The control-machine half of a distributed campaign (the paper's DTS
// architecture, §3: management on the control machine, fault injection on
// target machines — here scaled to a fleet of worker processes).
//
// The coordinator owns the fault list and the run journal. It leases
// contiguous shards of the remaining sweep to connected workers, tracks
// per-worker liveness via streamed results and heartbeats, expires leases
// whose worker went silent, and returns the unfinished remainder of a lost
// lease to the queue for reassignment. Completed runs are journalled exactly
// as the in-process executor journals them (same key, same record schema),
// so a distributed journal resumes an in-process campaign and vice versa;
// at-most-once output is enforced the same way — the first record for a
// fault index wins, later duplicates are dropped.
//
// Output is merged through exec::merge_completed_runs, the same serial
// replay of the paper-§4 skip-uncalled rule the in-process executor uses, so
// a distributed campaign's results are byte-identical to `--jobs=1` no
// matter how many workers ran it, which ones crashed, or how leases were
// scheduled.
#pragma once

#include <sys/types.h>

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>

#include "core/campaign.h"
#include "dist/worker.h"
#include "inject/fault_list.h"

namespace dts::obs::fleet {
class FleetEventLog;
}  // namespace dts::obs::fleet

namespace dts::dist {

struct DistOptions {
  /// Listen endpoint; port 0 binds an ephemeral port (read back via
  /// Coordinator::port()).
  std::string listen_host = "127.0.0.1";
  std::uint16_t listen_port = 0;

  /// Local worker processes to spawn (fork + run_worker against the
  /// loopback). 0 = none: the campaign waits for external workers
  /// (`ntdts worker --connect=host:port`).
  int spawn_workers = 0;

  /// Faults per lease. 0 = auto (scales with the sweep size).
  std::size_t lease_size = 0;

  /// A leased worker that streams neither results nor heartbeats for this
  /// long is declared dead: its lease expires and the unfinished remainder
  /// is reassigned.
  int lease_timeout_ms = 30000;

  /// Per-message write deadline towards a worker.
  int io_timeout_ms = 10000;

  /// Telemetry cadence advertised to workers in WELCOME, in milliseconds.
  /// 0 disables telemetry shipping; forced to 0 when the campaign has no
  /// metrics registry (there is nowhere to merge snapshots into).
  std::uint64_t telemetry_ms = 1000;

  /// Structured fleet event log: worker connect/disconnect, lease issue/
  /// expiry/reassignment. Must outlive run(). Null = off.
  obs::fleet::FleetEventLog* events = nullptr;

  /// Fired by run_workload_set_distributed once the listener is bound, with
  /// the actual port — lets the CLI print a connect line before blocking.
  std::function<void(std::uint16_t)> on_listen;

  /// Template for spawned local workers (host/port are filled in).
  WorkerOptions worker;
};

/// One campaign's coordinator. Binds its listener on construction (throws
/// std::runtime_error when the endpoint is unavailable); run() serves until
/// every fault is accounted for.
///
/// The campaign's own options drive it, exactly as they drive the in-process
/// executor: seed, journal and resume, metrics (dts_dist_* series, plus the
/// workers' telemetry merged under worker="<id>" labels), status board, stall
/// detector, progress, and the syscall trace mode and forensics depth the
/// workers run under — their forensics dumps come back in the records and
/// land in forensics_dir. Workers and the journal header receive the same
/// serialized configuration an in-process campaign journals. `campaign` must
/// outlive the coordinator.
class Coordinator {
 public:
  Coordinator(core::RunConfig base, inject::FaultList list,
              const core::CampaignOptions& campaign, DistOptions options);
  ~Coordinator();

  Coordinator(const Coordinator&) = delete;
  Coordinator& operator=(const Coordinator&) = delete;

  /// The bound listen port (useful with listen_port = 0).
  std::uint16_t port() const;

  /// Serves workers until the sweep is complete, then merges. Throws
  /// std::runtime_error when the campaign can no longer make progress
  /// (journal conflict, endpoint failure, or every worker lost with the
  /// respawn budget exhausted). `skip_uncalled` as in
  /// exec::CampaignExecutor::run: false for explicit fault lists.
  exec::CampaignResult run(bool skip_uncalled = true);

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// Forks a local worker process running run_worker(options); the child never
/// returns (it _exit()s with run_worker's code). `close_fd` is closed in the
/// child when >= 0 (the coordinator's listener, so the child does not hold
/// the port). Returns the child pid, or -1 on fork failure.
pid_t spawn_worker_process(const WorkerOptions& options, int close_fd);

/// Distributed twin of core::run_workload_set's exhaustive path: profiles,
/// builds the campaign's sweep (or takes the explicit list — executed without
/// the skip-uncalled rule, as in-process), then runs it through a
/// Coordinator.
core::WorkloadSetResult run_workload_set_distributed(
    const core::RunConfig& base, const core::CampaignOptions& options,
    const DistOptions& dist,
    const std::optional<inject::FaultList>& explicit_faults = std::nullopt);

}  // namespace dts::dist
