// Parallel campaign execution: shards a fault list across a work-stealing
// pool of workers, each executing FaultInjectionRun in its own fresh
// simulation (runs are seed-isolated, DESIGN §4.3 — the sweep is
// embarrassingly parallel), then merges results back into fault-list order.
//
// Determinism guarantee: per-run seeds derive from (campaign seed, fault id)
// only — never from worker id or schedule — and the paper-§4 skip-uncalled
// rule is replayed serially over the completed results during the merge, so
// the output at jobs=N is byte-identical to jobs=1
// (core::serialize_workload_set round-trips match exactly). Every executed
// run, threaded or synthesized, is finished into its record and handed to one
// exec::RunSink (exec/sink.h), the same sink the distributed coordinator
// feeds.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "core/run.h"
#include "exec/progress.h"
#include "inject/fault_list.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "plan/plan.h"
#include "plan/profiler.h"
#include "plan/sampler.h"

namespace dts::obs::fleet {
class StallDetector;
class StatusBoard;
}  // namespace dts::obs::fleet

namespace dts::exec {

/// Metrics/report label value for an outcome — matches the campaign-file
/// outcome codes so dashboards, results.csv and worker telemetry agree on
/// vocabulary: "normal", "restart", "restart_retry", "retry", "failure".
std::string_view outcome_label(core::Outcome o);

/// Metrics label value for the middleware configuration, e.g. "none",
/// "mscs", "watchd3".
std::string middleware_label(const core::RunConfig& base);

/// The execution and output knobs of a campaign, declared once: a campaign's
/// core::CampaignOptions extends this struct with the sweep it executes, and
/// the executor, the run sink and the distributed coordinator all read the
/// campaign's own options.
struct ExecOptions {
  /// Worker count: 1 = serial on the calling thread, 0 = one worker per
  /// hardware thread. Results are byte-identical at any job count: per-run
  /// seeds derive from the fault id, never from worker id or schedule.
  int jobs = 1;

  /// JSONL run journal written as runs complete (empty = none). With
  /// `resume`, completed runs found in it are reused and only the missing
  /// faults execute; a journal of another campaign is refused (throws), and
  /// records whose execution index names a foreign campaign digest are
  /// skipped with a warning.
  std::string journal_path;
  bool resume = false;

  /// Fired after every completed fault (executed, skipped or reused), with
  /// throughput and ETA. Serialized: never invoked concurrently.
  std::function<void(const ProgressSnapshot&)> on_snapshot;

  // --- observability (all optional; defaults add near-zero overhead) ------

  /// Campaign metrics sink: outcome counters, response-time histograms,
  /// per-worker throughput, steal/queue-depth stats and one Chrome trace
  /// event per executed run. Must outlive the campaign. Null = no metrics.
  obs::MetricsRegistry* metrics = nullptr;

  /// Per-run syscall tracing. kOff records nothing; kFailures embeds a
  /// forensics dump in the journal record of every run that classifies as
  /// failure or involved a restart; kAll dumps every executed run.
  obs::TraceMode trace = obs::TraceMode::kOff;

  /// Ring depth for the syscall trace (the N of "last-N calls").
  std::size_t forensics_depth = 32;

  /// When non-empty (and tracing selects a run), the forensics dump is also
  /// written to `<forensics_dir>/run-<index>-<fault>.txt` for direct reading;
  /// the journal embeds it either way.
  std::string forensics_dir;

  /// Fleet observability (src/obs/fleet/): stall/anomaly detector and live
  /// status board, both fed every executed run. Must outlive the campaign.
  /// Null = off.
  obs::fleet::StallDetector* stall = nullptr;
  obs::fleet::StatusBoard* status = nullptr;

  /// Synthesize the records of never-firing faults (invocation beyond the
  /// golden call count) from one shared host golden run instead of running
  /// each (exec/synthesis.h); every other fault runs in full. Campaign
  /// output stays byte-identical to the plain path at any jobs count:
  /// configurations synthesis cannot serve (jitter, tracing, topology — see
  /// unsupported_reason) and host runs that fail a gate silently fall
  /// back to full runs, so the result cache key deliberately ignores this
  /// flag. Planned campaigns never execute a never-firing fault (the pruner
  /// drops them), so the flag does not change how they run.
  bool snapshots = false;
};

struct CampaignResult {
  std::vector<core::RunResult> runs;  // fault-list order
  std::size_t executed = 0;  // fresh simulations run
  std::size_t reused = 0;    // reloaded from the journal
  std::size_t skipped = 0;   // skip-uncalled records in the merged output
};

/// Resolves a requested job count to a usable worker count. jobs >= 1 passes
/// through; jobs <= 0 means one worker per hardware thread, where a zero
/// `hardware_threads` (std::thread::hardware_concurrency() is advisory and
/// may return 0 — single-core containers do) clamps to 1.
int effective_jobs(int jobs, unsigned hardware_threads);
/// Same, against the real std::thread::hardware_concurrency().
int effective_jobs(int jobs);

/// One fault of a campaign: its result once executed here or reloaded from
/// a resume journal. `executed == false` marks a fault nobody ran (pending,
/// elided under an uncalled-function proof, or lost to a crashed distributed
/// worker).
struct CompletedRun {
  core::RunResult result;
  bool fn_called = false;
  bool executed = false;
};

/// fn -> lowest fault index whose *executed* run proved the function uncalled.
/// A worker may elide fault i only given a proof at index j < i: that is
/// exactly the information the serial sweep has when it reaches i, which
/// makes elision schedule-independent (an executed-but-serially-skipped run
/// is discarded by the merge; a proof the serial sweep would have had always
/// exists by induction over j). Thread-safe; shared by the in-process
/// executor and the distributed coordinator.
class UncalledProofs {
 public:
  void record(nt::Fn fn, std::size_t index);
  bool proven_before(nt::Fn fn, std::size_t index) const;

 private:
  mutable std::mutex mu_;
  std::map<nt::Fn, std::size_t> proofs_;
};

/// Serially replays the paper-§4 skip-uncalled rule over completed runs, in
/// fault-list order, producing output byte-identical to a one-worker sweep
/// regardless of how (or where — see src/dist/) the faults were executed.
/// Unexecuted faults the skip rule does not cover are defensively executed
/// here; the returned `executed` counts only those defensive runs. Shared by
/// the in-process executor and the distributed coordinator.
CampaignResult merge_completed_runs(const core::RunConfig& base,
                                    const inject::FaultList& list,
                                    std::uint64_t campaign_seed, bool skip_uncalled,
                                    std::vector<CompletedRun> completed);

/// Result of a planned campaign (run_plan). `runs` is in plan-entry order;
/// pruned entries carry synthesized non-activated records, duplicates carry
/// the representative's outcome under their own fault id, and entries an
/// adaptive stratum stopped early are absent (counted in `unsampled`).
struct PlanCampaignResult {
  std::vector<core::RunResult> runs;
  std::size_t executed = 0;   // fresh simulations run
  std::size_t reused = 0;     // reloaded from the journal
  std::size_t deduped = 0;    // duplicate records attributed to a shared run
  std::size_t pruned = 0;     // provably inert records synthesized
  std::size_t unsampled = 0;  // entries skipped by adaptive early stopping
  std::vector<plan::StratumProgress> strata;
};

class CampaignExecutor {
 public:
  /// `options` — typically the campaign's core::CampaignOptions — must
  /// outlive the executor. `config_text` (the campaign's
  /// core::serialize_config) is embedded in the journal header so `ntdts
  /// replay` rebuilds the exact RunConfig from the journal alone; empty keeps
  /// the identity fields only. `snapshot_profile` gives run() the golden call
  /// counts that prove a fault never fires; without one, options.snapshots
  /// has no effect. It must outlive the executor too.
  explicit CampaignExecutor(const ExecOptions& options, std::string config_text = {},
                            const plan::GoldenProfile* snapshot_profile = nullptr)
      : options_(options),
        config_text_(std::move(config_text)),
        snapshot_profile_(snapshot_profile) {}

  /// Executes every fault of `list` against `base`. Each run's seed is
  /// sim::Rng::mix(campaign_seed, hash(fault.id())), matching the serial
  /// campaign loop this subsystem replaces. `skip_uncalled` applies the
  /// paper-§4 rule (campaign sweeps); explicit user-supplied fault lists pass
  /// false, so every listed fault executes.
  CampaignResult run(const core::RunConfig& base, const inject::FaultList& list,
                     std::uint64_t campaign_seed, bool skip_uncalled = true);

  /// Executes a campaign plan (src/plan/): only kExecute entries run, issued
  /// round by round from the adaptive sampler; everything else is attributed
  /// or synthesized. Per-run seeds derive exactly as in run(), so an entry's
  /// executed result is bit-identical to what the exhaustive sweep produces
  /// for the same fault. Journal records are tagged with their sampling
  /// stratum; the journal key's fault count is the plan's entry count.
  PlanCampaignResult run_plan(const core::RunConfig& base, const plan::Plan& plan,
                              std::uint64_t campaign_seed,
                              const plan::SamplerOptions& sampler_options);

 private:
  const ExecOptions& options_;
  std::string config_text_;
  const plan::GoldenProfile* snapshot_profile_;
};

}  // namespace dts::exec
