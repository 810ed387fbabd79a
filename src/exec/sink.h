// One run record, one sink. finish_run() turns a finished FaultInjectionRun
// into its exec::JournalRecord on every path that produces a fault's record —
// the executor's thread workers, golden-tail synthesis (exec/synthesis.h), and
// `ntdts worker` (src/dist/). Records that cross a process boundary travel in
// the journal's own field codec, so the record a run produces does not depend
// on which path ran it, and the campaign loop rebuilds every run's result
// from its record (exec::result_from_record). RunSink is the one consumer:
// journal, forensics files, stall detector, status board, per-run metrics and
// the progress callback all read the record it is handed.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <iterator>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "core/run.h"
#include "exec/executor.h"
#include "exec/journal.h"
#include "exec/progress.h"
#include "obs/fleet/span.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace dts::exec {

/// Builds the record of a finished run: `result` is what run.execute()
/// returned, `xi` names the run, `wall_us` is its host cost. `trace` selects
/// whether a forensics dump is embedded (the run must have been configured
/// with a trace ring for it to hold anything).
JournalRecord finish_run(const core::FaultInjectionRun& run, const core::RunResult& result,
                         const obs::fleet::ExecutionIndex& xi, std::uint64_t wall_us,
                         obs::TraceMode trace = obs::TraceMode::kOff);

/// Executes `fault` against `base` under the run seed every path derives —
/// mix(campaign_seed, hash(fault id)) — and returns its finished record.
/// wall_us covers world construction plus execute().
JournalRecord execute_fault(const core::RunConfig& base, std::uint64_t campaign_seed,
                            const inject::FaultSpec& fault,
                            const obs::fleet::ExecutionIndex& xi,
                            obs::TraceMode trace = obs::TraceMode::kOff,
                            std::size_t forensics_depth = 0);

/// The campaign loop's journal-resume loader. With options.resume set, reads
/// options.journal_path (throwing on a journal of another campaign of
/// `entries` faults) and returns, in journal order, the records of entries i
/// that `matches(i, fault_id)` accepts and whose execution index carries
/// `campaign_digest`; foreign-digest records are counted, warned about and
/// skipped.
std::vector<JournalRecord> load_resumed_runs(
    const ExecOptions& options, const core::RunConfig& base, std::uint64_t campaign_seed,
    std::uint64_t campaign_digest, std::size_t entries,
    const std::function<bool(std::size_t, const std::string&)>& matches);

/// Everything that consumes a finished run. Opens the journal (when
/// options.journal_path is set, with `config_text` embedded in its header)
/// and resolves the per-campaign metric handles at construction; record() is
/// thread-safe. `options` must outlive the sink.
class RunSink {
 public:
  RunSink(const core::RunConfig& base, const ExecOptions& options,
          std::uint64_t campaign_seed, std::size_t entries,
          const std::string& config_text = {});

  /// Starts progress accounting: `total` faults, `reused` of them already
  /// done. Before start() the sink reports no progress.
  void start(std::size_t total, std::size_t reused);

  /// One executed run, counted in the per-run metrics whichever path ran
  /// it; `result` is the one the loop rebuilt from `rec`. `worker` is the
  /// run's Chrome event row: the executing thread or, for a run executed
  /// under a dist lease (`lease_id` != 0), the fleet worker, which the
  /// status board shows too.
  void record(const JournalRecord& rec, const core::RunResult& result, int worker,
              std::uint64_t lease_id = 0);

  /// A fault completed without a fresh run (elided or reloaded).
  void skipped();

  /// Reports the current state once more (a campaign with nothing to run).
  void report();

  /// Fresh runs recorded since start().
  std::size_t executed() const;

 private:
  // Both require progress_mu_: on_snapshot is never invoked concurrently.
  void progress(bool fresh);
  void publish(const ProgressSnapshot& s);
  obs::Counter& activations(nt::Fn fn);

  const ExecOptions& options_;
  RunJournal journal_;

  obs::MetricsRegistry* metrics_ = nullptr;
  obs::Labels set_labels_;
  obs::Histogram* resp_hist_ = nullptr;
  obs::Histogram* wall_hist_ = nullptr;
  std::array<obs::Counter*, std::size(core::kAllOutcomes)> outcome_counters_{};
  std::mutex activations_mu_;
  std::map<nt::Fn, obs::Counter*> activations_;

  mutable std::mutex progress_mu_;
  std::optional<ProgressTracker> tracker_;
};

}  // namespace dts::exec
