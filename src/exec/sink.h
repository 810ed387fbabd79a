// One run record, one sink. finish_run() turns a finished FaultInjectionRun
// into its exec::JournalRecord on every path that produces a fault's record —
// the executor's thread workers, golden-tail synthesis (exec/synthesis.h), and
// `ntdts worker` (src/dist/). Records that cross a process boundary travel in
// the journal's own field codec, so the record a run produces does not depend
// on which path ran it. RunSink is the one
// consumer: journal, forensics files, stall detector, status board, per-run
// metrics and the progress callback all read the record it is handed.
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
#include "obs/span.h"
#include "obs/trace.h"

namespace dts::exec {

/// "o1|x3" — ok/fail flag + attempt count per workload request, the two
/// per-request fields results.csv renders.
std::string encode_requests(const std::vector<core::RequestResult>& requests);
std::vector<core::RequestResult> decode_requests(const std::string& text);

/// "mscs.detection:1000:2500 mscs.recovery:2500:9000" — name and sim-time
/// bounds (microseconds) of each middleware span.
std::string encode_spans(const std::vector<obs::Span>& spans);
std::vector<obs::Span> decode_spans(const std::string& text);

/// Builds the record of a finished run: `result` is what run.execute()
/// returned, `xi` names the run, `wall_us` is its host cost. `trace` selects
/// whether a forensics dump is embedded (the run must have been configured
/// with a trace ring for it to hold anything).
JournalRecord finish_run(const core::FaultInjectionRun& run, const core::RunResult& result,
                         const obs::fleet::ExecutionIndex& xi, std::uint64_t wall_us,
                         obs::TraceMode trace = obs::TraceMode::kOff);

/// A fault executed as a full run, with its record.
struct ExecutedRun {
  core::RunResult result;
  JournalRecord record;
};

/// Executes `fault` against `base` under the run seed every path derives —
/// mix(campaign_seed, hash(fault id)) — and finishes its record. wall_us
/// covers world construction plus execute().
ExecutedRun execute_fault(const core::RunConfig& base, std::uint64_t campaign_seed,
                          const inject::FaultSpec& fault,
                          const obs::fleet::ExecutionIndex& xi,
                          obs::TraceMode trace = obs::TraceMode::kOff,
                          std::size_t forensics_depth = 0);

/// Rebuilds the RunResult a record describes: the run line plus sim time,
/// per-request results, detail and request trace. False when the run line
/// does not parse for `target_image`.
bool result_from_record(const JournalRecord& rec, const std::string& target_image,
                        core::RunResult* out);

/// The campaign loop's journal-resume loader. With options.resume set, reads options.journal_path (throwing on a journal
/// of another campaign of `entries` faults) and returns, by entry index, the
/// runs rebuilt from the first record of each entry i that
/// `matches(i, fault_id)` accepts and whose execution index carries
/// `campaign_digest`; foreign-digest records are counted, warned about and
/// skipped.
std::map<std::size_t, CompletedRun> load_resumed_runs(
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

  /// One executed run. `worker` is the executing thread (the Chrome event
  /// row) or, for a run executed under a dist lease (`lease_id` != 0), the
  /// fleet worker shown on the status board. `count` false leaves the run
  /// out of the per-run metrics: a fleet coordinator's sink receives runs
  /// that their worker's telemetry already counts.
  void record(const JournalRecord& rec, const core::RunResult& result, int worker,
              std::uint64_t lease_id = 0, bool count = true);

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
