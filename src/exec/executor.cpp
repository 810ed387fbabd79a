#include "exec/executor.h"

#include <algorithm>
#include <exception>
#include <mutex>
#include <optional>
#include <set>
#include <thread>

#include "exec/sink.h"
#include "plan/checkpoints.h"
#include "sim/rng.h"
#include "snap/fork_runner.h"

namespace dts::exec {

namespace {

core::RunResult skipped_result(const inject::FaultSpec& fault) {
  core::RunResult r;
  r.fault = fault;
  r.activated = false;
  r.detail = "skipped: function not called by this workload";
  return r;
}

// Deterministic initial sharding with range stealing: worker w starts with a
// contiguous slice of the work items; a worker whose slice runs dry steals
// the tail half of the fattest remaining slice. All bookkeeping sits behind
// one mutex — at milliseconds per simulated run the lock is invisible, and
// the shared state stays trivially correct (results never depend on who ran
// what; see the merge step).
class ShardQueue {
 public:
  static constexpr std::size_t npos = static_cast<std::size_t>(-1);

  ShardQueue(std::size_t item_count, int workers)
      : ranges_(workers), remaining_(item_count) {
    for (int w = 0; w < workers; ++w) {
      ranges_[w].next = item_count * static_cast<std::size_t>(w) / workers;
      ranges_[w].end = item_count * (static_cast<std::size_t>(w) + 1) / workers;
    }
  }

  /// Optional observability hooks, set before workers start: `steals` counts
  /// range-stealing events, `depth` tracks unclaimed items. Updated under
  /// the queue mutex (handle updates themselves are relaxed atomics).
  void set_metrics(obs::Counter* steals, obs::Gauge* depth) {
    steals_ = steals;
    depth_ = depth;
    if (depth_ != nullptr) depth_->set(static_cast<double>(remaining_));
  }

  /// Next item for `worker`, stealing if its own range is exhausted;
  /// npos when no work is left anywhere.
  std::size_t pop(int worker) {
    std::lock_guard<std::mutex> lock(mu_);
    Range& own = ranges_[worker];
    if (own.next < own.end) return take(own);
    Range* victim = nullptr;
    std::size_t victim_size = 0;
    for (Range& r : ranges_) {
      const std::size_t size = r.end - r.next;
      if (size > victim_size) {
        victim = &r;
        victim_size = size;
      }
    }
    if (victim == nullptr) return npos;
    const std::size_t half = (victim_size + 1) / 2;
    own.end = victim->end;
    own.next = victim->end - half;
    victim->end = own.next;
    if (steals_ != nullptr) steals_->inc();
    return take(own);
  }

 private:
  struct Range {
    std::size_t next = 0;
    std::size_t end = 0;
  };

  std::size_t take(Range& r) {
    --remaining_;
    if (depth_ != nullptr) depth_->set(static_cast<double>(remaining_));
    return r.next++;
  }

  std::mutex mu_;
  std::vector<Range> ranges_;
  std::size_t remaining_ = 0;
  obs::Counter* steals_ = nullptr;
  obs::Gauge* depth_ = nullptr;
};

// Calls work(worker, position) once for every position in [0, count) on up
// to options.jobs workers — on the calling thread, in order, when one worker
// suffices (the pre-parallel serial loop exactly). `work` returns whether it
// ran a fresh simulation, counted per worker. Rethrows the first exception a
// worker raised.
void run_pool(std::size_t count, const ExecOptions& options,
              const std::function<bool(int, std::size_t)>& work) {
  if (count == 0) return;
  const int workers = static_cast<int>(
      std::min<std::size_t>(static_cast<std::size_t>(effective_jobs(options.jobs)), count));
  obs::MetricsRegistry* metrics = options.metrics;
  ShardQueue queue(count, workers);
  if (metrics != nullptr) {
    queue.set_metrics(
        &metrics->counter("dts_exec_steals_total", {},
                          "work-stealing events across exec workers"),
        &metrics->gauge("dts_exec_queue_depth", {},
                        "unclaimed faults remaining in the shard queue"));
  }
  std::atomic<bool> stop{false};
  std::exception_ptr first_error;
  std::mutex error_mu;

  auto loop = [&](int worker) {
    try {
      obs::Counter* runs = nullptr;
      if (metrics != nullptr) {
        runs = &metrics->counter("dts_exec_worker_runs_total",
                                 {{"worker", std::to_string(worker)}},
                                 "fresh runs executed per exec worker");
        metrics->set_thread_name(worker, "worker-" + std::to_string(worker));
      }
      for (;;) {
        if (stop.load(std::memory_order_relaxed)) return;
        const std::size_t item = queue.pop(worker);
        if (item == ShardQueue::npos) return;
        if (work(worker, item) && runs != nullptr) runs->inc();
      }
    } catch (...) {
      std::lock_guard<std::mutex> lock(error_mu);
      if (!first_error) first_error = std::current_exception();
      stop.store(true, std::memory_order_relaxed);
    }
  };

  if (workers == 1) {
    loop(0);
  } else {
    std::vector<std::thread> threads;
    threads.reserve(workers);
    for (int w = 0; w < workers; ++w) threads.emplace_back(loop, w);
    for (auto& t : threads) t.join();
  }
  if (first_error) std::rethrow_exception(first_error);
}

// True when the campaign may route runs through the snapshot/fork phase.
// The phase costs one host golden run, so a single pending fault never pays.
bool snapshot_phase_applicable(const ExecOptions& options,
                               const plan::GoldenProfile* profile,
                               const core::RunConfig& base, std::size_t pending) {
  return options.snapshots && profile != nullptr && pending >= 2 &&
         snap::unsupported_reason(base, options.trace != obs::TraceMode::kOff).empty();
}

// Latest golden call site (max syscall seq the profile observed) — the
// checkpoint that lets profile-proven never-firing faults replay only the
// run's tail.
std::uint64_t profile_tail_site(const plan::GoldenProfile& profile) {
  std::uint64_t tail = 0;
  for (const auto& [fn, calls] : profile.calls) {
    for (const plan::GoldenCall& c : calls) tail = std::max(tail, c.call_site);
  }
  return tail;
}

void emit_snap_metrics(obs::MetricsRegistry* metrics, const core::RunConfig& base,
                       const snap::ForkStats& st) {
  if (metrics == nullptr) return;
  const obs::Labels set_labels = {{"workload", base.workload.name},
                                  {"middleware", middleware_label(base)}};
  metrics->counter("dts_snap_checkpoints_total", set_labels,
                   "checkpoints planned across host golden runs")
      .inc(st.checkpoints_planned);
  metrics->counter("dts_snap_snapshots_total", set_labels,
                   "COW world snapshots captured at checkpoints")
      .inc(st.snapshots_taken);
  metrics->counter("dts_snap_forked_runs_total", set_labels,
                   "campaign runs executed as forked snapshot children")
      .inc(st.forked_runs);
  metrics->counter("dts_snap_synthesized_runs_total", set_labels,
                   "never-firing runs synthesized from the host golden run")
      .inc(st.synthesized_runs);
  metrics->counter("dts_snap_fallback_runs_total", set_labels,
                   "snapshot-phase runs that fell back to full execution")
      .inc(st.fallback_runs);
  metrics->counter("dts_snap_identity_checks_total", set_labels,
                   "snapshot-identity validations (child pre-arm + parent self-check)")
      .inc(st.identity_checks);
  metrics->counter("dts_snap_cow_violations_total", set_labels,
                   "snapshot digests invalidated by in-place payload mutation")
      .inc(st.cow_violations);
  metrics->counter("dts_snap_shared_blocks_total", set_labels,
                   "memory/file payloads structure-shared at capture")
      .inc(st.shared_blocks);
  metrics->counter("dts_snap_copied_blocks_total", set_labels,
                   "memory/file payloads deep-copied at capture")
      .inc(st.copied_blocks);
  metrics->counter("dts_snap_shared_bytes_total", set_labels,
                   "payload bytes structure-shared at capture")
      .inc(st.shared_bytes);
  metrics->counter("dts_snap_copied_bytes_total", set_labels,
                   "payload bytes deep-copied at capture")
      .inc(st.copied_bytes);
  metrics->counter("dts_snap_skipped_sim_us_total", set_labels,
                   "golden-prefix simulated microseconds not re-executed")
      .inc(st.skipped_sim_us);
}

// Executes the snapshot/fork phase and returns the indices that still need a
// full run. `record` fires once per forked or synthesized result, in
// deterministic fork order, on the calling thread.
std::vector<std::size_t> run_snapshot_phase(
    const core::RunConfig& base, const ExecOptions& options,
    std::uint64_t campaign_seed, std::uint64_t campaign_digest,
    std::uint64_t tail_site, const std::vector<snap::ForkItem>& items,
    const std::function<void(const snap::ChildOutcome&)>& record) {
  snap::ForkRunner::Options ropts;
  ropts.campaign_seed = campaign_seed;
  ropts.campaign_digest = campaign_digest;
  ropts.jobs = effective_jobs(options.jobs);
  ropts.tail_site = tail_site;
  snap::ForkRunner runner(base, ropts);
  std::vector<std::size_t> fallback = runner.run(items, record);
  emit_snap_metrics(options.metrics, base, runner.stats());
  return fallback;
}

}  // namespace

std::string_view outcome_label(core::Outcome o) {
  switch (o) {
    case core::Outcome::kNormalSuccess: return "normal";
    case core::Outcome::kRestartSuccess: return "restart";
    case core::Outcome::kRestartRetrySuccess: return "restart_retry";
    case core::Outcome::kRetrySuccess: return "retry";
    case core::Outcome::kFailure: return "failure";
  }
  return "?";
}

std::string middleware_label(const core::RunConfig& base) {
  switch (base.middleware) {
    case mw::MiddlewareKind::kNone: return "none";
    case mw::MiddlewareKind::kMscs: return "mscs";
    case mw::MiddlewareKind::kWatchd:
      return "watchd" + std::to_string(static_cast<int>(base.watchd_version));
  }
  return "?";
}

void UncalledProofs::record(nt::Fn fn, std::size_t index) {
  std::lock_guard<std::mutex> lock(mu_);
  auto [it, inserted] = proofs_.emplace(fn, index);
  if (!inserted && index < it->second) it->second = index;
}

bool UncalledProofs::proven_before(nt::Fn fn, std::size_t index) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = proofs_.find(fn);
  return it != proofs_.end() && it->second < index;
}

int effective_jobs(int jobs, unsigned hardware_threads) {
  if (jobs >= 1) return jobs;
  return hardware_threads >= 1 ? static_cast<int>(hardware_threads) : 1;
}

int effective_jobs(int jobs) {
  return effective_jobs(jobs, std::thread::hardware_concurrency());
}

CampaignResult merge_completed_runs(const core::RunConfig& base,
                                    const inject::FaultList& list,
                                    std::uint64_t campaign_seed, bool skip_uncalled,
                                    std::vector<CompletedRun> completed) {
  const std::size_t n = list.faults.size();
  CampaignResult out;
  std::set<nt::Fn> uncalled;
  out.runs.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const inject::FaultSpec& fault = list.faults[i];
    if (skip_uncalled && uncalled.contains(fault.fn)) {
      out.runs.push_back(skipped_result(fault));
      ++out.skipped;
      continue;
    }
    CompletedRun& slot = completed[i];
    if (!slot.executed) {
      // Defensive: an elided fault always has an earlier uncalled proof, so
      // this branch is unreachable unless that invariant breaks — in which
      // case run the fault now rather than emit a wrong record.
      ExecutedRun run = execute_fault(base, campaign_seed, fault, {});
      slot.result = std::move(run.result);
      slot.fn_called = run.record.fn_called;
      slot.executed = true;
      ++out.executed;
    }
    if (!slot.result.activated && !slot.fn_called) uncalled.insert(fault.fn);
    out.runs.push_back(std::move(slot.result));
  }
  return out;
}

CampaignResult CampaignExecutor::run(const core::RunConfig& base,
                                     const inject::FaultList& list,
                                     std::uint64_t campaign_seed, bool skip_uncalled) {
  const std::size_t n = list.faults.size();
  CampaignResult out;

  // Causal span: every journal record, forensics dump and trace event names
  // its run as campaign_digest/lease_id/fault_index (lease 0 = in-process),
  // the same identifier a distributed worker's record carries — so a record
  // can be traced back to its campaign and shard from any artifact.
  const std::uint64_t campaign_digest = plan::sweep_digest(list);

  std::vector<CompletedRun> slots(n);
  auto resumed = load_resumed_runs(
      options_, base, campaign_seed, campaign_digest, n,
      [&list](std::size_t i, const std::string& id) { return list.faults[i].id() == id; });
  out.reused = resumed.size();
  for (auto& [i, run] : resumed) slots[i] = std::move(run);
  UncalledProofs proofs;
  std::vector<std::size_t> pending;
  pending.reserve(n - out.reused);
  for (std::size_t i = 0; i < n; ++i) {
    const CompletedRun& slot = slots[i];
    if (!slot.executed) {
      pending.push_back(i);
    } else if (!slot.result.activated && !slot.fn_called) {
      proofs.record(list.faults[i].fn, i);
    }
  }

  RunSink sink(base, options_, campaign_seed, n, config_text_);
  sink.start(n, out.reused);
  // Every fresh run lands here, whichever path executed it.
  const auto complete = [&](std::size_t i, core::RunResult result,
                            const JournalRecord& rec, int worker) {
    CompletedRun& slot = slots[i];
    slot.result = std::move(result);
    slot.fn_called = rec.fn_called;
    slot.executed = true;
    if (!slot.result.activated && !slot.fn_called) proofs.record(list.faults[i].fn, i);
    sink.record(rec, slot.result, worker);
  };

  // --- snapshot/fork phase ---------------------------------------------------
  // One host golden run captures COW snapshots at planned checkpoints; each
  // fault whose injection site the profile resolves forks from the nearest
  // checkpoint and executes only the suffix. Forked records reach the sink
  // exactly as full runs do (the merge below then guarantees byte-identical
  // campaign output either way); whatever cannot be forked stays in
  // `pending` for the thread pool.
  if (snapshot_phase_applicable(options_, snapshot_profile_, base, pending.size())) {
    const plan::GoldenProfile& profile = *snapshot_profile_;
    const std::uint64_t tail_site = profile_tail_site(profile);
    std::vector<snap::ForkItem> items;
    std::vector<std::size_t> next_pending;
    for (std::size_t i : pending) {
      const inject::FaultSpec& fault = list.faults[i];
      snap::ForkItem item;
      item.index = i;
      item.fault = fault;
      item.seed = sim::Rng::mix(campaign_seed, sim::Rng::hash(fault.id()));
      if (auto site = plan::injection_site(profile, fault)) {
        item.mode = snap::ForkItem::Mode::kAtSite;
        item.site = *site;
        items.push_back(item);
        continue;
      }
      const auto cnt = profile.invocation_counts.find(fault.fn);
      const int count = cnt == profile.invocation_counts.end() ? 0 : cnt->second;
      if (tail_site > 0 && fault.invocation > count) {
        // Profile-proven never-firing: the run IS the golden run; its result
        // is synthesized from the host run's end state.
        item.mode = snap::ForkItem::Mode::kGoldenTail;
        item.fn_called = count > 0;
        items.push_back(item);
        continue;
      }
      // Reached but outside the profile's capture window: full run.
      next_pending.push_back(i);
    }
    if (!items.empty()) {
      std::vector<std::size_t> fallbacks = run_snapshot_phase(
          base, options_, campaign_seed, campaign_digest, tail_site, items,
          [&](const snap::ChildOutcome& o) { complete(o.index, o.result, o.record, 0); });
      next_pending.insert(next_pending.end(), fallbacks.begin(), fallbacks.end());
      std::sort(next_pending.begin(), next_pending.end());
      pending = std::move(next_pending);
    }
  }

  run_pool(pending.size(), options_, [&](int worker, std::size_t item) {
    const std::size_t i = pending[item];
    const inject::FaultSpec& fault = list.faults[i];
    if (skip_uncalled && proofs.proven_before(fault.fn, i)) {
      sink.skipped();
      return false;
    }
    ExecutedRun run = execute_fault(base, campaign_seed, fault, {campaign_digest, 0, i},
                                    options_.trace, options_.forensics_depth);
    complete(i, std::move(run.result), run.record, worker);
    return true;
  });
  // Fully resumed (or forked): no worker reported the final state.
  if (pending.empty()) sink.report();
  out.executed = sink.executed();

  // Merge: replay the paper-§4 skip rule serially over the completed results
  // so the output is byte-identical to a one-worker sweep regardless of how
  // the faults were scheduled above (shared with the distributed coordinator).
  CampaignResult merged =
      merge_completed_runs(base, list, campaign_seed, skip_uncalled, std::move(slots));
  out.runs = std::move(merged.runs);
  out.skipped = merged.skipped;
  out.executed += merged.executed;
  return out;
}

PlanCampaignResult CampaignExecutor::run_plan(const core::RunConfig& base,
                                              const plan::Plan& plan,
                                              std::uint64_t campaign_seed,
                                              const plan::SamplerOptions& sampler_options) {
  const std::size_t n = plan.entries.size();
  PlanCampaignResult out;

  // Plan digest (folds in dispositions): the plan-campaign analogue of the
  // sweep digest stamped into exec indices by run(). The journal key's fault
  // count is the plan's entry count (the raw sweep), which never equals a
  // profile-restricted exhaustive journal's count — a planned campaign can
  // only resume another planned campaign.
  const std::uint64_t campaign_digest = plan::sweep_digest(plan);

  // Engaged once the entry's run completed (here or in a resumed journal).
  // Most entries of a planned sweep never run, so an empty slot stays cheap.
  std::vector<std::optional<core::RunResult>> results(n);
  auto resumed = load_resumed_runs(
      options_, base, campaign_seed, campaign_digest, n,
      [&plan](std::size_t i, const std::string& id) {
        const plan::PlanEntry& e = plan.entries[i];
        return e.disposition == plan::Disposition::kExecute && e.fault.id() == id;
      });
  out.reused = resumed.size();
  for (auto& [i, run] : resumed) results[i] = std::move(run.result);

  RunSink sink(base, options_, campaign_seed, n, config_text_);
  // Planned records carry their sampling stratum.
  const auto complete = [&](std::size_t idx, core::RunResult result, JournalRecord rec,
                            int worker) {
    const inject::FaultSpec& fault = plan.entries[idx].fault;
    rec.stratum = plan::to_string(plan::StratumKey{fault.fn, fault.type});
    results[idx] = std::move(result);
    sink.record(rec, *results[idx], worker);
  };

  plan::AdaptiveSampler sampler(plan, sampler_options);
  sink.start(plan.executable_count(), 0);

  // Round loop: issue one sampler batch, execute its fresh members in
  // parallel, then record the whole round back into the sampler (in entry
  // order) before asking for the next one. The barrier is what keeps the
  // executed-run set independent of the worker count: batch composition only
  // ever depends on fully-recorded earlier rounds.
  for (;;) {
    const std::vector<std::size_t> batch = sampler.next_batch();
    if (batch.empty()) break;

    std::vector<std::size_t> fresh;
    for (std::size_t idx : batch) {
      if (results[idx]) {
        sink.skipped();
      } else {
        fresh.push_back(idx);
      }
    }

    // Snapshot/fork phase, per round: plan entries carry their golden call
    // site directly (golden_known), so forked items need no profile lookup;
    // the profile still provides the tail checkpoint. Leftovers stay in
    // `fresh` for the round's worker pool.
    if (snapshot_phase_applicable(options_, snapshot_profile_, base, fresh.size())) {
      const std::uint64_t tail_site = profile_tail_site(*snapshot_profile_);
      std::vector<snap::ForkItem> items;
      std::vector<std::size_t> next_fresh;
      for (std::size_t idx : fresh) {
        const plan::PlanEntry& entry = plan.entries[idx];
        if (!entry.golden_known) {
          next_fresh.push_back(idx);
          continue;
        }
        snap::ForkItem item;
        item.index = idx;
        item.fault = entry.fault;
        item.seed = sim::Rng::mix(campaign_seed, sim::Rng::hash(entry.fault.id()));
        item.mode = snap::ForkItem::Mode::kAtSite;
        item.site = entry.call_site;
        items.push_back(item);
      }
      if (!items.empty()) {
        std::vector<std::size_t> fallbacks = run_snapshot_phase(
            base, options_, campaign_seed, campaign_digest, tail_site, items,
            [&](const snap::ChildOutcome& o) { complete(o.index, o.result, o.record, 0); });
        next_fresh.insert(next_fresh.end(), fallbacks.begin(), fallbacks.end());
        std::sort(next_fresh.begin(), next_fresh.end());
        fresh = std::move(next_fresh);
      }
    }

    run_pool(fresh.size(), options_, [&](int worker, std::size_t pos) {
      const std::size_t idx = fresh[pos];
      ExecutedRun run = execute_fault(base, campaign_seed, plan.entries[idx].fault,
                                      {campaign_digest, 0, idx}, options_.trace,
                                      options_.forensics_depth);
      complete(idx, std::move(run.result), std::move(run.record), worker);
      return true;
    });

    for (std::size_t idx : batch) {
      const core::RunResult& r = *results[idx];
      sampler.record(idx, r.activated, r.outcome == core::Outcome::kFailure);
    }
  }

  out.executed = sink.executed();
  out.strata = sampler.progress();

  // Assemble plan-entry-order output: executed results as-is, duplicates
  // attributed to their representative's run, pruned entries synthesized as
  // non-activated records (what executing them would have classified as).
  out.runs.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const plan::PlanEntry& e = plan.entries[i];
    switch (e.disposition) {
      case plan::Disposition::kExecute:
        if (results[i]) {
          out.runs.push_back(std::move(*results[i]));
        } else {
          ++out.unsampled;
        }
        break;
      case plan::Disposition::kDuplicate:
        if (results[e.duplicate_of]) {
          core::RunResult r = *results[e.duplicate_of];
          r.fault = e.fault;
          r.detail = "deduplicated: same corrupted word as " +
                     plan.entries[e.duplicate_of].fault.id();
          out.runs.push_back(std::move(r));
          ++out.deduped;
        } else {
          ++out.unsampled;
        }
        break;
      case plan::Disposition::kPruned: {
        core::RunResult r;
        r.fault = e.fault;
        r.activated = false;
        r.outcome = core::Outcome::kNormalSuccess;
        r.client_finished = true;
        r.detail = "pruned: " + std::string(plan::to_string(e.reason));
        out.runs.push_back(std::move(r));
        ++out.pruned;
        break;
      }
    }
  }

  if (obs::MetricsRegistry* metrics = options_.metrics) {
    const obs::Labels set_labels = {{"workload", base.workload.name},
                                    {"middleware", middleware_label(base)}};
    for (const auto& [reason, count] : plan.prune_histogram()) {
      obs::Labels labels = set_labels;
      labels.emplace_back("reason", std::string(plan::to_string(reason)));
      metrics->counter("dts_plan_pruned_total", labels,
                       "faults pruned from the sweep, by proof")
          .inc(count);
    }
    metrics->counter("dts_plan_dedup_total", set_labels,
                     "faults attributed to an equivalent run instead of executing")
        .inc(out.deduped);
    metrics->counter("dts_plan_unsampled_total", set_labels,
                     "faults skipped by adaptive early stopping")
        .inc(out.unsampled);
    metrics->counter("dts_plan_runs_saved_total", set_labels,
                     "sweep entries that did not need a fresh simulation")
        .inc(n - out.executed - out.reused);
    for (const plan::StratumProgress& s : out.strata) {
      obs::Labels labels = set_labels;
      labels.emplace_back("stratum", plan::to_string(s.key));
      metrics->gauge("dts_plan_stratum_ci_half_width", labels,
                     "Wilson 95% CI half-width on the stratum failure rate")
          .set(s.ci_half_width);
      metrics->gauge("dts_plan_stratum_trials", labels,
                     "activated runs recorded in the stratum")
          .set(static_cast<double>(s.trials));
    }
  }
  return out;
}

}  // namespace dts::exec
