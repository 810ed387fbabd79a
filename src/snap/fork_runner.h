// Snapshot/fork execution of campaign runs: skip the golden prefix.
//
// Every fault run of a campaign replays the same fault-free prefix up to its
// injection site before diverging. The ForkRunner executes that prefix ONCE
// (the host golden run, seeded exactly like the planner's profiler so call
// sites align seq-for-seq), captures a COW world snapshot at each planned
// checkpoint, and fork()s one child per fault run from the checkpoint
// nearest below its injection site. The child arms its fault, reseeds the
// root RNG to what its own full-run seed would have produced at this point
// (cursor replay — the prefix trajectory is seed-invariant while no draw
// value escapes into state), and simply keeps executing: the OS's
// copy-on-write pages carry the live coroutine frames that no in-memory
// snapshot could. The child finishes its run record (exec::finish_run) and
// sends it over a pipe in the journal's field codec, so the parent receives
// the same record a full run of the fault would have produced.
//
// Runs whose fault the golden profile proves can never fire (invocation
// beyond the golden call count) have an empty suffix: every injection point
// lies before the golden tail, so their whole trajectory IS the golden run.
// Those results are synthesized directly from the host run's end state —
// zero fork, zero replay — gated on the same seed-invariance conditions
// (no jitter, zero semantic RNG draws over the entire host run).
//
// Everything that cannot be proven equivalent falls back to a full run:
// unknown injection sites, jitter/tracing configs, semantic RNG draws in the
// prefix, host divergence from the golden trajectory, and any child that
// exits abnormally. Fallbacks are returned to the caller, never dropped.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "core/run.h"
#include "exec/journal.h"
#include "snap/snapshot.h"

namespace dts::snap {

/// True when the platform supports fork-based snapshot execution (POSIX).
bool snapshots_supported();

/// Human-readable reason snapshot execution cannot serve this configuration
/// (empty = supported). `tracing` = the executor wants per-run syscall
/// traces, which would be missing their skipped prefix.
std::string unsupported_reason(const core::RunConfig& base, bool tracing);

struct ForkItem {
  std::size_t index = 0;  // caller's identifier, echoed in ChildOutcome
  inject::FaultSpec fault;
  std::uint64_t seed = 0;  // the run's own seed: mix(campaign, hash(id))

  /// kAtSite: the golden run reaches the injection site at `site`; fork from
  /// the greatest checkpoint <= site (the fault then fires naturally in the
  /// suffix). kGoldenTail: the profile proves the fault can never fire
  /// (invocation beyond the golden count); the run IS the golden run — its
  /// suffix past the last golden call site contains no injection point, so
  /// its result is synthesized from the host run's own end state instead of
  /// forking a child that would re-execute an identical tail.
  enum class Mode { kAtSite, kGoldenTail };
  Mode mode = Mode::kAtSite;
  std::uint64_t site = 0;  // valid for kAtSite

  /// Whether the golden run calls the fault's function at all — the value a
  /// full run's interceptor would report. Used verbatim for synthesized
  /// kGoldenTail results (a fork reports the child's own interceptor state).
  bool fn_called = true;
};

struct ChildOutcome {
  std::size_t index = 0;
  core::RunResult result;
  /// The run's record. A forked child inherits the host's interceptor state
  /// across fork(), so trace digest and call context match a full run
  /// byte-for-byte; wall_us is the child's fork-to-result time (0 for a
  /// synthesized result, which does no per-run work).
  exec::JournalRecord record;
  std::uint64_t skipped_sim_us = 0;  // golden-prefix sim time not re-executed
};

struct ForkStats {
  std::uint64_t checkpoints_planned = 0;
  std::uint64_t snapshots_taken = 0;
  std::uint64_t forked_runs = 0;
  std::uint64_t synthesized_runs = 0;  // kGoldenTail results from the host run
  std::uint64_t fallback_runs = 0;
  std::uint64_t identity_checks = 0;  // snapshot-identity validations issued
  std::uint64_t cow_violations = 0;   // post-run digest self-check failures
  // COW accounting summed over every capture (see nt::CowStats).
  std::uint64_t shared_blocks = 0;
  std::uint64_t copied_blocks = 0;
  std::uint64_t shared_bytes = 0;
  std::uint64_t copied_bytes = 0;
  std::uint64_t skipped_sim_us = 0;  // summed across forked runs
};

class ForkRunner {
 public:
  struct Options {
    std::uint64_t campaign_seed = 0;
    std::uint64_t campaign_digest = 0;  // folded into snapshot identities
    std::size_t max_checkpoints = 64;   // 0 = one per distinct site
    /// Max concurrently live forked children (the campaign's --jobs).
    int jobs = 1;
    /// Latest golden call site (max seq the profile observed); when nonzero
    /// it is added to the checkpoint set, anchoring the COW self-check
    /// witness closest to the host run's end.
    std::uint64_t tail_site = 0;
  };

  ForkRunner(core::RunConfig base, Options opts)
      : base_(std::move(base)), opts_(opts) {}

  /// Executes `items` against one host golden run. `on_result` fires in fork
  /// order (ascending checkpoint, then item order — deterministic). Returns
  /// the indices that must instead be executed as full runs; a failed child
  /// is a fallback, never an exception.
  std::vector<std::size_t> run(const std::vector<ForkItem>& items,
                               const std::function<void(const ChildOutcome&)>& on_result);

  const ForkStats& stats() const { return stats_; }

 private:
  struct Child {
    long pid = 0;
    int fd = -1;
    std::size_t index = 0;
    std::uint64_t skipped_us = 0;
  };

  bool on_checkpoint(std::uint64_t site);
  void spawn_child(const ForkItem& item, const WorldSnapshot& snap,
                   std::uint64_t identity);
  void reap_oldest();
  [[noreturn]] void finish_child(core::RunResult result);
  void mark_fallback(std::size_t index);

  core::RunConfig base_;
  Options opts_;
  ForkStats stats_;

  std::optional<core::FaultInjectionRun> run_;
  std::vector<std::uint64_t> checkpoints_;
  std::map<std::uint64_t, std::vector<ForkItem>> groups_;  // checkpoint -> items
  std::vector<ForkItem> tail_items_;  // kGoldenTail: synthesized, not forked
  std::vector<std::uint64_t> fired_;
  std::vector<Child> active_;  // reaped FIFO (fork order)
  std::optional<WorldSnapshot> first_snapshot_;  // COW self-check witness
  std::vector<std::size_t>* fallback_ = nullptr;
  const std::function<void(const ChildOutcome&)>* on_result_ = nullptr;

  // Child-side state (meaningful only after fork, in the child).
  bool in_child_ = false;
  int child_fd_ = -1;
  ForkItem child_item_;
  std::int64_t child_start_us_ = 0;
};

}  // namespace dts::snap
