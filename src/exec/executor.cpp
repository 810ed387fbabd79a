#include "exec/executor.h"

#include <algorithm>
#include <exception>
#include <map>
#include <mutex>
#include <set>
#include <thread>

#include "exec/sink.h"
#include "exec/synthesis.h"

namespace dts::exec {

namespace {

/// Chrome trace row of golden-tail synthesized runs, apart from the rows
/// 0..N-1 of the workers of either pool.
constexpr int kSynthesisRow = -1;

/// One entry of a campaign: its result, rebuilt from its record once run
/// here, on a fleet, or reloaded from a resume journal. `executed == false`
/// marks an entry nobody ran (pending, elided under an uncalled-function
/// proof, or unsampled).
struct CompletedRun {
  core::RunResult result;
  bool fn_called = false;
  bool executed = false;
};

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
// what; see the loop's assembly).
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

// The in-process pool: runs a round's fresh entries on up to options.jobs
// threads, on the calling thread, in order, when one suffices (the
// pre-parallel serial loop exactly). Rethrows the first exception a thread
// raised.
class ThreadPool final : public RunPool {
 public:
  explicit ThreadPool(const ExecOptions& options) : options_(options) {}

  void run(const Round& round) override {
    const std::size_t count = round.fresh.size();
    if (count == 0) return;
    const int workers = static_cast<int>(std::min<std::size_t>(
        static_cast<std::size_t>(effective_jobs(options_.jobs)), count));
    obs::MetricsRegistry* metrics = options_.metrics;
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
          const std::size_t i = round.fresh[item];
          if (round.elide(i)) continue;
          round.done(execute_fault(round.base, round.seed, round.entries[i].fault,
                                   {round.digest, 0, i}, options_.trace,
                                   options_.forensics_depth),
                     worker, 0);
          if (runs != nullptr) runs->inc();
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

 private:
  const ExecOptions& options_;
};

// fn -> lowest entry index whose *executed* run proved the function uncalled.
// A pool may elide entry i only given a proof at index j < i: that is exactly
// the information the serial sweep has when it reaches i, which makes elision
// schedule-independent (an executed-but-serially-skipped run is discarded by
// the assembly; a proof the serial sweep would have had always exists by
// induction over j). Thread-safe.
class UncalledProofs {
 public:
  void record(nt::Fn fn, std::size_t index) {
    std::lock_guard<std::mutex> lock(mu_);
    auto [it, inserted] = proofs_.emplace(fn, index);
    if (!inserted && index < it->second) it->second = index;
  }

  bool proven_before(nt::Fn fn, std::size_t index) const {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = proofs_.find(fn);
    return it != proofs_.end() && it->second < index;
  }

 private:
  mutable std::mutex mu_;
  std::map<nt::Fn, std::size_t> proofs_;
};

void emit_snap_metrics(obs::MetricsRegistry* metrics, const core::RunConfig& base,
                       std::uint64_t synthesized, std::uint64_t fallback,
                       std::uint64_t skipped_sim_us) {
  if (metrics == nullptr) return;
  const obs::Labels set_labels = {{"workload", base.workload.name},
                                  {"middleware", middleware_label(base)}};
  metrics->counter("dts_snap_synthesized_runs_total", set_labels,
                   "never-firing runs synthesized from the host golden run")
      .inc(synthesized);
  metrics->counter("dts_snap_fallback_runs_total", set_labels,
                   "never-firing runs executed in full after a failed synthesis gate")
      .inc(fallback);
  metrics->counter("dts_snap_skipped_sim_us_total", set_labels,
                   "simulated microseconds of synthesized runs not executed")
      .inc(skipped_sim_us);
}

}  // namespace

std::string middleware_label(const core::RunConfig& base) {
  switch (base.middleware) {
    case mw::MiddlewareKind::kNone: return "none";
    case mw::MiddlewareKind::kMscs: return "mscs";
    case mw::MiddlewareKind::kWatchd:
      return "watchd" + std::to_string(static_cast<int>(base.watchd_version));
  }
  return "?";
}

int effective_jobs(int jobs, unsigned hardware_threads) {
  if (jobs >= 1) return jobs;
  return hardware_threads >= 1 ? static_cast<int>(hardware_threads) : 1;
}

int effective_jobs(int jobs) {
  return effective_jobs(jobs, std::thread::hardware_concurrency());
}

CampaignResult CampaignExecutor::run(const core::RunConfig& base,
                                     const inject::FaultList& list,
                                     std::uint64_t campaign_seed, bool skip_uncalled) {
  plan::Plan all;
  all.entries.reserve(list.faults.size());
  for (const inject::FaultSpec& fault : list.faults) all.entries.push_back({.fault = fault});
  // Causal span: every journal record, forensics dump and trace event names
  // its run as campaign_digest/lease_id/fault_index (lease 0 = in-process),
  // so a record can be traced back to its campaign and lease from any
  // artifact. A sweep's digest is its fault list's.
  return run_rounds(base, all, campaign_seed, plan::sweep_digest(list), {},
                    skip_uncalled ? Kind::kSweep : Kind::kList);
}

CampaignResult CampaignExecutor::run_plan(const core::RunConfig& base, const plan::Plan& plan,
                                          std::uint64_t campaign_seed,
                                          const plan::SamplerOptions& sampler_options) {
  // The plan digest folds in dispositions. The journal key's fault count is
  // the plan's entry count (the raw sweep), which never equals a
  // profile-restricted exhaustive journal's count — a planned campaign can
  // only resume another planned campaign.
  return run_rounds(base, plan, campaign_seed, plan::sweep_digest(plan), sampler_options,
                    Kind::kPlanned);
}

CampaignResult CampaignExecutor::run_rounds(const core::RunConfig& base,
                                            const plan::Plan& plan,
                                            std::uint64_t campaign_seed,
                                            std::uint64_t campaign_digest,
                                            const plan::SamplerOptions& sampler_options,
                                            Kind kind) {
  const std::size_t n = plan.entries.size();
  const bool planned = kind == Kind::kPlanned;
  const bool skip_uncalled = kind == Kind::kSweep;
  CampaignResult out;

  // One slot per kExecute entry, filled once the entry's run completed (here,
  // on a fleet, or in a resumed journal): most entries of a planned sweep
  // never run. `executable` holds the entries' indices in ascending order, so
  // slot_index(i) finds an entry's slot by binary search; slots are distinct,
  // so pool threads fill them without locking.
  std::vector<std::size_t> executable;
  for (std::size_t i = 0; i < n; ++i) {
    if (plan.entries[i].disposition == plan::Disposition::kExecute) executable.push_back(i);
  }
  std::vector<CompletedRun> slots(executable.size());
  const auto slot_index = [&](std::size_t i) {
    return static_cast<std::size_t>(
        std::lower_bound(executable.begin(), executable.end(), i) - executable.begin());
  };
  UncalledProofs proofs;
  // The one place a record becomes a result: every fresh run, whichever pool
  // or synthesis produced it, and every resumed record. A record whose run
  // line does not parse fills nothing, so a resumed one is re-executed.
  const auto fill = [&](const JournalRecord& rec) -> const CompletedRun* {
    core::RunResult result;
    if (!result_from_record(rec, base.workload.target_image, &result)) return nullptr;
    CompletedRun& s = slots[slot_index(rec.index)];
    s.result = std::move(result);
    s.fn_called = rec.fn_called;
    s.executed = true;
    if (skip_uncalled && !s.result.activated && !s.fn_called) {
      proofs.record(plan.entries[rec.index].fault.fn, rec.index);
    }
    return &s;
  };

  // The first record of an entry that parses wins.
  for (const JournalRecord& rec : load_resumed_runs(
           options_, base, campaign_seed, campaign_digest, n,
           [&plan](std::size_t i, const std::string& id) {
             const plan::PlanEntry& e = plan.entries[i];
             return e.disposition == plan::Disposition::kExecute && e.fault.id() == id;
           })) {
    if (!slots[slot_index(rec.index)].executed && fill(rec) != nullptr) ++out.reused;
  }

  RunSink sink(base, options_, campaign_seed, n, config_text_);
  // Every fresh run lands here, whichever pool ran it. Planned records carry
  // their sampling stratum.
  const auto complete = [&](JournalRecord rec, int worker,
                            std::uint64_t lease_id) -> const core::RunResult* {
    const inject::FaultSpec& fault = plan.entries[rec.index].fault;
    if (planned) rec.stratum = plan::to_string(plan::StratumKey{fault.fn, fault.type});
    const CompletedRun* s = fill(rec);
    if (s == nullptr) return nullptr;
    sink.record(rec, s->result, worker, lease_id);
    return &s->result;
  };

  plan::AdaptiveSampler sampler(plan, sampler_options);
  sink.start(executable.size(), out.reused);

  // --- golden-tail synthesis ------------------------------------------------
  // A fault whose invocation lies beyond its function's golden call count can
  // never fire, so its run is the golden run: with snapshots on, one host
  // golden run stands in for all of them (exec/synthesis.h). Their records
  // reach the sink exactly as full runs do, on the coordinator's lease 0 when
  // a fleet runs the rest. Every other fault, and every never-firing one when
  // a synthesis gate fails, is left to the rounds.
  if (options_.snapshots && snapshot_profile_ != nullptr &&
      unsupported_reason(base, options_.trace != obs::TraceMode::kOff).empty()) {
    const auto& counts = snapshot_profile_->invocation_counts;
    std::vector<TailItem> tail;
    for (std::size_t k = 0; k < executable.size(); ++k) {
      const inject::FaultSpec& fault = plan.entries[executable[k]].fault;
      const auto it = counts.find(fault.fn);
      if (!slots[k].executed && fault.invocation > (it == counts.end() ? 0 : it->second)) {
        tail.push_back({executable[k], fault});
      }
    }
    std::vector<JournalRecord> synthesized =
        synthesize_golden_tail(base, campaign_seed, campaign_digest, tail);
    std::uint64_t skipped_sim_us = 0;
    if (options_.metrics != nullptr && !synthesized.empty()) {
      options_.metrics->set_thread_name(kSynthesisRow, "synthesis");
    }
    for (JournalRecord& rec : synthesized) {
      skipped_sim_us += rec.sim_us;
      complete(std::move(rec), kSynthesisRow, 0);
    }
    emit_snap_metrics(options_.metrics, base, synthesized.size(),
                      tail.size() - synthesized.size(), skipped_sim_us);
  }

  // Round loop: issue one sampler batch, run its fresh members on the pool,
  // then record the whole round back into the sampler (in entry order) before
  // asking for the next one. The barrier is what keeps the executed-run set
  // independent of the pool and its size: batch composition only ever
  // depends on fully-recorded earlier rounds. A sweep is one round.
  ThreadPool threads(options_);
  RunPool& pool = pool_ != nullptr ? *pool_ : threads;
  const auto elide = [&](std::size_t i) {
    if (!skip_uncalled || !proofs.proven_before(plan.entries[i].fault.fn, i)) return false;
    sink.skipped();
    return true;
  };
  bool ran = false;
  for (;;) {
    const std::vector<std::size_t> batch = sampler.next_batch();
    if (batch.empty()) break;
    std::vector<std::size_t> fresh;
    for (std::size_t i : batch) {
      if (!slots[slot_index(i)].executed) fresh.push_back(i);
    }
    if (!fresh.empty()) {
      pool.run({base, campaign_seed, campaign_digest, plan.entries, fresh, elide, complete});
      ran = true;
    }
    for (std::size_t i : batch) {
      const CompletedRun& s = slots[slot_index(i)];
      sampler.record(i, s.executed && s.result.activated,
                     s.executed && s.result.outcome == core::Outcome::kFailure);
    }
  }
  pool.finish();
  // Nothing fresh ran (fully resumed, synthesized or pruned): no run
  // reported the final state.
  if (!ran) sink.report();
  out.executed = sink.executed();
  if (planned) out.strata = sampler.progress();

  // Assembly, in entry order: executed results as-is; for sweeps, the
  // paper-§4 rule replayed serially — once a function proves uncalled, its
  // later faults read "skipped" however they were scheduled above;
  // duplicates attributed to their representative's run; pruned entries
  // synthesized as non-activated records (what executing them would have
  // classified as). A representative precedes its duplicates, which copy its
  // emitted record.
  constexpr std::size_t kNone = static_cast<std::size_t>(-1);
  std::vector<std::size_t> emitted(slots.size(), kNone);  // slot -> position in runs
  std::set<nt::Fn> uncalled;
  out.runs.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const plan::PlanEntry& e = plan.entries[i];
    switch (e.disposition) {
      case plan::Disposition::kExecute: {
        if (skip_uncalled && uncalled.contains(e.fault.fn)) {
          out.runs.push_back(skipped_result(e.fault));
          ++out.skipped;
          break;
        }
        const std::size_t k = slot_index(i);
        CompletedRun& s = slots[k];
        if (!s.executed) {
          ++out.unsampled;
          break;
        }
        if (!s.result.activated && !s.fn_called) uncalled.insert(e.fault.fn);
        emitted[k] = out.runs.size();
        out.runs.push_back(std::move(s.result));
        break;
      }
      case plan::Disposition::kDuplicate: {
        const std::size_t at = emitted[slot_index(e.duplicate_of)];
        if (at == kNone) {
          ++out.unsampled;
          break;
        }
        core::RunResult r = out.runs[at];
        r.fault = e.fault;
        r.detail = "deduplicated: same corrupted word as " +
                   plan.entries[e.duplicate_of].fault.id();
        out.runs.push_back(std::move(r));
        ++out.deduped;
        break;
      }
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

  obs::MetricsRegistry* metrics = options_.metrics;
  if (!planned || metrics == nullptr) return out;
  const obs::Labels set_labels = {{"workload", base.workload.name},
                                  {"middleware", middleware_label(base)}};
  for (const auto& [reason, count] : plan.prune_histogram()) {
    obs::Labels labels = set_labels;
    labels.emplace_back("reason", std::string(plan::to_string(reason)));
    metrics->counter("dts_plan_pruned_total", labels, "faults pruned from the sweep, by proof")
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
    metrics->gauge("dts_plan_stratum_trials", labels, "activated runs recorded in the stratum")
        .set(static_cast<double>(s.trials));
  }
  return out;
}

}  // namespace dts::exec
