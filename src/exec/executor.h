// The campaign loop: the one place that decides which faults of a campaign
// run. Every campaign is a plan (src/plan/): an exhaustive sweep or an
// explicit fault list enters as a plan whose entries all execute. The loop
// issues the plan round by round from the adaptive sampler, behind a barrier,
// and hands each round's fresh entries to a pool: this process's threads, or
// a worker fleet (dist::Coordinator).
//
// Determinism guarantee: per-run seeds derive from (campaign seed, fault id)
// only, never from worker id or schedule; a round's composition depends only
// on fully recorded earlier rounds; and the paper-§4 skip-uncalled rule elides
// a fault only given a proof at a lower entry index and is replayed in entry
// order when the output is assembled. So the output at jobs=N, or on a fleet,
// is byte-identical to jobs=1 (core::serialize_workload_set round-trips match
// exactly). Every run, threaded, leased or synthesized, is finished into its
// record, rebuilt into its result from that record alone, as a resumed run
// is, and handed to one exec::RunSink (exec/sink.h).
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "core/run.h"
#include "exec/journal.h"
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
  /// back to full runs, so the flag changes how a campaign runs, never what
  /// it records. Planned campaigns never execute a never-firing fault (the pruner
  /// drops them), so the flag does not change how they run.
  bool snapshots = false;
};

/// A campaign's outcome. `runs` is in entry order: executed results as-is,
/// skip-uncalled records for the faults of a function proven uncalled
/// (sweeps), duplicates carrying their representative's outcome under their
/// own fault id, and pruned entries as non-activated records; entries an
/// adaptive stratum stopped early are absent (counted in `unsampled`).
struct CampaignResult {
  std::vector<core::RunResult> runs;
  std::size_t executed = 0;   // fresh runs recorded: executed or synthesized
  std::size_t reused = 0;     // reloaded from the journal
  std::size_t skipped = 0;    // skip-uncalled records in the output
  std::size_t deduped = 0;    // duplicate records attributed to a shared run
  std::size_t pruned = 0;     // provably inert records synthesized
  std::size_t unsampled = 0;  // entries skipped by adaptive early stopping
  std::vector<plan::StratumProgress> strata;  // planned campaigns only
};

/// Resolves a requested job count to a usable worker count. jobs >= 1 passes
/// through; jobs <= 0 means one worker per hardware thread, where a zero
/// `hardware_threads` (std::thread::hardware_concurrency() is advisory and
/// may return 0 — single-core containers do) clamps to 1.
int effective_jobs(int jobs, unsigned hardware_threads);
/// Same, against the real std::thread::hardware_concurrency().
int effective_jobs(int jobs);

/// One round of a campaign as the loop hands it to a pool: the campaign,
/// constant across its rounds, and the round's fresh entries.
struct Round {
  const core::RunConfig& base;
  std::uint64_t seed;    // campaign seed: run seeds derive from it and the fault id
  std::uint64_t digest;  // campaign digest, stamped into every execution index
  const std::vector<plan::PlanEntry>& entries;  // the whole campaign, by index
  const std::vector<std::size_t>& fresh;        // this round's, ascending
  /// Asked just before entry i would start: true means the loop elided it
  /// (and counted it), so it must not run.
  std::function<bool(std::size_t)> elide;
  /// The record of a finished run of entry rec.index, with the worker that
  /// ran it and its lease (0 = in-process). Returns the result the loop
  /// rebuilt from the record, or null when its run line does not parse (the
  /// run is then not recorded). Thread-safe.
  std::function<const core::RunResult*(JournalRecord, int, std::uint64_t)> done;
};

/// Where a campaign's runs execute: this process's threads, or a worker fleet
/// (dist::Coordinator). The loop decides what runs; a pool only runs it.
class RunPool {
 public:
  RunPool() = default;
  RunPool(const RunPool&) = delete;
  RunPool& operator=(const RunPool&) = delete;
  virtual ~RunPool() = default;
  /// Runs every entry of round.fresh that round.elide does not claim, and
  /// returns once each one is elided or done.
  virtual void run(const Round& round) = 0;
  /// Called once after the campaign's last round.
  virtual void finish() {}
};

class CampaignExecutor {
 public:
  /// `options` — typically the campaign's core::CampaignOptions — must
  /// outlive the executor. `config_text` (the campaign's
  /// core::serialize_config) is embedded in the journal header so `ntdts
  /// replay` rebuilds the exact RunConfig from the journal alone; empty keeps
  /// the identity fields only. `snapshot_profile` gives the loop the golden
  /// call counts that prove a fault never fires; without one,
  /// options.snapshots has no effect. `pool` runs each round's fresh entries;
  /// null runs them on options.jobs threads of this process. Both must
  /// outlive the executor too.
  explicit CampaignExecutor(const ExecOptions& options, std::string config_text = {},
                            const plan::GoldenProfile* snapshot_profile = nullptr,
                            RunPool* pool = nullptr)
      : options_(options),
        config_text_(std::move(config_text)),
        snapshot_profile_(snapshot_profile),
        pool_(pool) {}

  /// Executes every fault of `list` against `base`, as the plan whose entries
  /// all execute. Each run's seed is sim::Rng::mix(campaign_seed,
  /// hash(fault.id())); execution indices carry plan::sweep_digest(list) and
  /// the journal key counts the list. `skip_uncalled` applies the paper-§4
  /// rule (campaign sweeps); explicit user-supplied fault lists pass false,
  /// so every listed fault executes.
  CampaignResult run(const core::RunConfig& base, const inject::FaultList& list,
                     std::uint64_t campaign_seed, bool skip_uncalled = true);

  /// Executes a campaign plan (src/plan/): only kExecute entries run, issued
  /// round by round from the adaptive sampler; everything else is attributed
  /// or synthesized. Per-run seeds derive exactly as in run(), so an entry's
  /// executed result is bit-identical to what the exhaustive sweep produces
  /// for the same fault. Journal records are tagged with their sampling
  /// stratum, execution indices carry plan::sweep_digest(plan), and the
  /// journal key's fault count is the plan's entry count.
  CampaignResult run_plan(const core::RunConfig& base, const plan::Plan& plan,
                          std::uint64_t campaign_seed,
                          const plan::SamplerOptions& sampler_options);

 private:
  enum class Kind { kSweep, kList, kPlanned };

  /// The loop both ways in share: resume, golden-tail synthesis, the rounds,
  /// and the entry-order assembly.
  CampaignResult run_rounds(const core::RunConfig& base, const plan::Plan& plan,
                            std::uint64_t campaign_seed, std::uint64_t campaign_digest,
                            const plan::SamplerOptions& sampler_options, Kind kind);

  const ExecOptions& options_;
  std::string config_text_;
  const plan::GoldenProfile* snapshot_profile_;
  RunPool* pool_;
};

}  // namespace dts::exec
