// Campaign orchestration — the paper's experiment flow chart (Fig. 1):
// for each workload, for each function, for each parameter, for each
// iteration, for each fault type: one fault-injection run.
#pragma once

#include <map>
#include <optional>
#include <set>
#include <vector>

#include "core/run.h"
#include "exec/executor.h"
#include "inject/fault_list.h"
#include "plan/plan.h"
#include "plan/sampler.h"

namespace dts::core {

/// Summary of the campaign plan a workload set ran under (absent for
/// exhaustive campaigns) — what `ntdts plan` and the run report print.
struct PlanDigest {
  std::size_t entries = 0;     // raw sweep size
  std::size_t executable = 0;  // faults the plan schedules for execution
  std::size_t pruned = 0;
  std::size_t deduped = 0;
  std::size_t executed = 0;   // fresh simulations actually run
  std::size_t reused = 0;     // reloaded from the journal
  std::size_t unsampled = 0;  // skipped by adaptive early stopping
  std::map<plan::PruneReason, std::size_t> prune_histogram;
  std::vector<plan::StratumProgress> strata;
};

/// All runs of one workload set (one workload × one middleware config).
struct WorkloadSetResult {
  RunConfig base_config;
  std::set<nt::Fn> activated_functions;  // paper Table 1
  std::vector<RunResult> runs;           // in fault-list order

  /// Faults that actually fired (the denominator for outcome percentages —
  /// the paper reports "percentage of the total number of activated faults").
  std::size_t activated_faults() const;
  std::map<Outcome, std::size_t> outcome_counts() const;
  double percent(Outcome o) const;
  /// Failure split for Fig. 4.
  std::size_t failures_with_response() const;
  std::size_t failures_without_response() const;

  std::string label() const;  // e.g. "Apache1/MSCS"

  /// Fresh simulations this campaign ran (not serialized; 0 after a cache
  /// load). The planner's whole point is making this smaller than runs.size().
  std::size_t executed_runs = 0;

  /// Present when the campaign ran under a plan (not serialized).
  std::optional<PlanDigest> plan_digest;
};

/// A campaign: the execution and output knobs of exec::ExecOptions (jobs,
/// journal, progress, observability, snapshots), which the executor and the
/// distributed coordinator read directly, plus the sweep they execute.
struct CampaignOptions : exec::ExecOptions {
  /// How many invocations of each function to inject (the I axis). The paper
  /// uses 1: "only the first invocation of each function was injected".
  int iterations = 1;

  /// Root seed; each run derives its own from this and the fault id.
  std::uint64_t seed = 1;

  /// Optional cap on the number of faults (for quick smoke experiments);
  /// 0 = no cap. Capped lists sample evenly across the sweep.
  std::size_t max_faults = 0;

  /// Campaign planning (src/plan/): golden-run profiling, equivalence
  /// pruning, optional adaptive sampling. The default mode (kExhaustive)
  /// bypasses the planner entirely and reproduces the plain sweep.
  plan::PlanOptions plan;

  /// Fault-model selection (src/fault/): CSV of model names expanded by the
  /// registry's sweep enumerators ("paper,oserror"). Empty = the paper
  /// default, whose sweep is byte-identical to the pre-registry code. Parsed
  /// with fault::ModelSet::parse; run_workload_set throws std::runtime_error
  /// on unknown names. Part of the result cache key — different model sets
  /// are different campaigns.
  std::string models;
};

/// Runs a complete workload set and returns its results. The sweep covers
/// the functions a fault-free profiling pass activates (the paper-§4
/// skip-uncalled rule prunes the rest as it runs), sampled down to
/// options.max_faults. An explicit fault list replaces the sweep and runs in
/// full — every listed fault executes — and cannot be combined with a plan.
WorkloadSetResult run_workload_set(
    const RunConfig& base, const CampaignOptions& options = {},
    const std::optional<inject::FaultList>& explicit_faults = std::nullopt);

/// The campaign's raw sweep: the model registry's faults for `functions`
/// (null = the whole catalogue), iterations deep, sampled evenly down to
/// max_faults, each stamped with the topology's faulted tier. The one sweep
/// the exhaustive path, the planner and the distributed coordinator execute.
inject::FaultList campaign_sweep(const RunConfig& base, const CampaignOptions& options,
                                 const std::set<nt::Fn>* functions);

/// Profiling only: the set of activated functions (no faults injected).
std::set<nt::Fn> profile_workload(const RunConfig& base, std::uint64_t seed = 1);

/// Builds the campaign plan for `base` — golden profile plus equivalence
/// pruning over the raw sweep (honouring iterations and max_faults) — or,
/// in kFromFile mode, loads options.plan.plan_file and validates it against
/// the campaign. Throws std::runtime_error on load/validation failure.
/// `ntdts plan` calls this directly; run_workload_set calls it for the
/// non-exhaustive modes.
plan::Plan build_campaign_plan(const RunConfig& base, const CampaignOptions& options);

/// Text serialization of a workload-set result (configuration identity,
/// activated functions, one line per run). Round-trips through
/// deserialize_workload_set; used by the benchmark harness cache so each
/// table/figure binary can reuse campaign data instead of re-running it.
std::string serialize_workload_set(const WorkloadSetResult& set);
std::optional<WorkloadSetResult> deserialize_workload_set(const std::string& text,
                                                          std::string* error = nullptr);

/// One-run payload of the campaign file format (the fields after "run ") —
/// also the record payload of the exec run journal. parse_run_line accepts
/// exactly what serialize_run_line emits; `detail` and per-request results
/// are not round-tripped (as for the whole-set serialization).
std::string serialize_run_line(const RunResult& r);
bool parse_run_line(const std::string& target_image, const std::string& line,
                    RunResult* out, std::string* error);

/// Runs the workload set, or loads it from `cache_dir` if an identical
/// configuration was run before (empty cache_dir = always run). The cache
/// key covers workload, middleware, watchd version, seed, iterations and
/// fault cap.
WorkloadSetResult load_or_run_workload_set(const RunConfig& base,
                                           const CampaignOptions& options,
                                           const std::string& cache_dir);

}  // namespace dts::core
