// The control-machine half of a distributed campaign (the paper's DTS
// architecture, §3: management on the control machine, fault injection on
// target machines — here scaled to a fleet of worker processes).
//
// The coordinator is the campaign loop's second pool (exec::RunPool), next
// to its thread pool: it owns no campaign. The loop (exec/executor.h) still
// decides what runs, resumes, synthesizes, journals through its one sink and
// assembles the output; the coordinator leases the entry indices of each
// round's fresh batch to connected workers, tracks per-worker liveness via
// streamed results and heartbeats, expires leases whose worker went silent,
// and returns the unfinished remainder of a lost lease to the round's queue.
// A leased entry the loop's skip-uncalled proof covers by the time its lease
// is cut is elided instead. Workers stay connected across rounds and are
// spawned at the first round with work, so a campaign with nothing fresh to
// run spawns none.
//
// Because the loop is the same, a fleet campaign's output is byte-identical
// to `--jobs=1` no matter how many workers ran it, which ones crashed, or how
// leases were scheduled; its journal resumes in-process and vice versa.
#pragma once

#include <sys/types.h>

#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "core/campaign.h"
#include "dist/worker.h"
#include "exec/executor.h"

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

  /// Faults per lease. 0 = auto (scales with the round's size).
  std::size_t lease_size = 0;

  /// A leased worker that streams neither results nor heartbeats for this
  /// long is declared dead: its lease expires and the unfinished remainder
  /// is reassigned.
  int lease_timeout_ms = 30000;

  /// Per-message write deadline towards a worker.
  int io_timeout_ms = 10000;

  /// Structured fleet event log: worker connect/disconnect, lease issue/
  /// expiry/reassignment. Must outlive the coordinator. Null = off.
  obs::fleet::FleetEventLog* events = nullptr;

  /// Fired by the Coordinator constructor once the listener is bound, with
  /// the actual port — lets the CLI print a connect line before blocking.
  std::function<void(std::uint16_t)> on_listen;

  /// Template for spawned local workers (host/port are filled in).
  WorkerOptions worker;
};

/// A worker fleet as a pool of the campaign loop. Binds its listener on
/// construction (throws std::runtime_error when the endpoint is unavailable);
/// hand it to core::run_workload_set (or an exec::CampaignExecutor) to run a
/// campaign's rounds on the fleet.
///
/// The campaign's own options drive it, exactly as they drive the loop:
/// seed, metrics (the dts_dist_* series), status board (its worker rows),
/// and the syscall trace mode and forensics depth the workers run under —
/// their forensics dumps come back in the records. Every accepted record
/// reaches the loop's one sink, which counts it in the per-run metrics like
/// any in-process run. Workers receive the serialized configuration the
/// campaign journals. `campaign` must outlive the coordinator.
class Coordinator final : public exec::RunPool {
 public:
  Coordinator(const core::CampaignOptions& campaign, DistOptions options);
  ~Coordinator() override;

  /// The bound listen port (useful with listen_port = 0).
  std::uint16_t port() const;

  /// Serves workers until every entry of the round is done or elided.
  /// Throws std::runtime_error when the round can no longer make progress
  /// (endpoint failure, or every worker lost with the respawn budget
  /// exhausted).
  void run(const exec::Round& round) override;

  /// Ends the campaign: tells every worker it is done and reaps the spawned
  /// ones.
  void finish() override;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// Forks a local worker process running run_worker(options); the child never
/// returns (it _exit()s with run_worker's code). `close_fd` is closed in the
/// child when >= 0 (the coordinator's listener, so the child does not hold
/// the port). Returns the child pid, or -1 on fork failure.
pid_t spawn_worker_process(const WorkerOptions& options, int close_fd);

}  // namespace dts::dist
