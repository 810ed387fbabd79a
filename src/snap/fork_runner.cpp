#include "snap/fork_runner.h"

#include <algorithm>
#include <chrono>
#include <cstdio>

#if defined(__unix__) || defined(__APPLE__)
#define DTS_SNAP_POSIX 1
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>
#else
#define DTS_SNAP_POSIX 0
#endif

#include "exec/sink.h"
#include "plan/checkpoints.h"
#include "sim/rng.h"

namespace dts::snap {

namespace {

std::int64_t steady_now_us() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

bool snapshots_supported() { return DTS_SNAP_POSIX != 0; }

std::string unsupported_reason(const core::RunConfig& base, bool tracing) {
  if (!snapshots_supported()) return "platform has no fork()";
  if (base.target_jitter > 0.0) {
    return "target_jitter draws from the run RNG in the prefix, so the "
           "prefix trajectory is not seed-invariant";
  }
  if (tracing || base.trace_limit > 0) {
    return "syscall tracing would be missing the skipped golden prefix";
  }
  if (base.golden_capture > 0) return "golden-capture runs are not fault runs";
  if (base.checkpoints != nullptr) return "a checkpoint plan is already installed";
  if (!base.topo.empty()) {
    // The multi-tier path builds its machines inside execute_topology, after
    // the checkpoint plan would have to be armed; full runs keep topology
    // campaigns byte-identical under --snapshots=on.
    return "multi-tier topology runs execute in full";
  }
  return "";
}

void ForkRunner::mark_fallback(std::size_t index) {
  fallback_->push_back(index);
  ++stats_.fallback_runs;
}

#if DTS_SNAP_POSIX

std::vector<std::size_t> ForkRunner::run(
    const std::vector<ForkItem>& items,
    const std::function<void(const ChildOutcome&)>& on_result) {
  std::vector<std::size_t> fallback;
  fallback_ = &fallback;
  on_result_ = &on_result;
  if (items.empty()) return fallback;

  // --- checkpoint placement ---------------------------------------------------
  std::vector<std::uint64_t> sites;
  for (const ForkItem& item : items) {
    if (item.mode == ForkItem::Mode::kAtSite) sites.push_back(item.site);
  }
  if (opts_.tail_site > 0) sites.push_back(opts_.tail_site);
  checkpoints_ = plan::place_checkpoints(std::move(sites), opts_.max_checkpoints);
  if (checkpoints_.empty()) {
    for (const ForkItem& item : items) mark_fallback(item.index);
    return fallback;
  }
  stats_.checkpoints_planned = checkpoints_.size();

  // --- group items by their checkpoint ----------------------------------------
  groups_.clear();
  tail_items_.clear();
  for (const ForkItem& item : items) {
    if (item.mode == ForkItem::Mode::kGoldenTail) {
      // No injection point exists past the golden tail: the run's whole
      // trajectory is the golden run. Synthesize from the host's end state
      // (below) instead of forking a child to re-execute an identical tail.
      tail_items_.push_back(item);
      continue;
    }
    // Greatest checkpoint <= injection site; the fault then fires naturally
    // while replaying the suffix. A checkpoint *after* the site would have
    // already passed the injection point — useless.
    auto it = std::upper_bound(checkpoints_.begin(), checkpoints_.end(), item.site);
    if (it == checkpoints_.begin()) {
      mark_fallback(item.index);
      continue;
    }
    groups_[*std::prev(it)].push_back(item);
  }

  // --- host golden run ---------------------------------------------------------
  // Seeded exactly like the planner's profiler (and the campaign's profiling
  // pass), so golden call sites align with the profile seq-for-seq.
  core::RunConfig cfg = base_;
  cfg.seed = sim::Rng::mix(opts_.campaign_seed, sim::Rng::hash("profile"));
  inject::Interceptor::CheckpointPlan plan;
  plan.sites = checkpoints_;
  plan.on_checkpoint = [this](std::uint64_t site) { return on_checkpoint(site); };
  cfg.checkpoints = &plan;

  run_.emplace(std::move(cfg));
  core::RunResult end_result;
  bool host_ok = false;
  try {
    end_result = run_->execute(std::nullopt);
    host_ok = true;
  } catch (...) {
    if (in_child_) _exit(2);
    // Host failure: nothing forked after this point; unfired groups fall
    // back below. Children already forked are reaped normally.
  }
  if (in_child_) {
    end_result.fault = child_item_.fault;
    finish_child(std::move(end_result));  // never returns
  }

  // --- parent: drain children, self-check, collect fallbacks -------------------
  while (!active_.empty()) reap_oldest();

  // Golden-tail synthesis: valid only when the host run completed and made
  // zero semantic RNG draws end to end — then every serialized field of a
  // full run under any seed equals the host's (target_jitter == 0 is an
  // applicability precondition), and a run whose fault provably never fires
  // serializes exactly as the host did.
  if (!tail_items_.empty()) {
    if (host_ok && run_->simulation().semantic_rng_draws() == 0) {
      const std::uint64_t run_sim_us =
          static_cast<std::uint64_t>(end_result.sim_elapsed.count_micros());
      for (const ForkItem& item : tail_items_) {
        ChildOutcome out;
        out.index = item.index;
        out.result = end_result;
        out.result.fault = item.fault;
        // The run's trajectory IS the host trajectory (seed-invariance gate
        // above), so the host's end-state digest and spans are the run's. The
        // fault never fires, so there is no injection context; the host ran
        // unarmed, so whether the fault's function was called comes from the
        // profile.
        out.record = exec::finish_run(*run_, out.result,
                                      {opts_.campaign_digest, 0, item.index},
                                      /*wall_us=*/0);
        out.record.fn_called = item.fn_called;
        out.skipped_sim_us = run_sim_us;
        stats_.skipped_sim_us += run_sim_us;
        ++stats_.synthesized_runs;
        (*on_result_)(out);
      }
    } else {
      for (const ForkItem& item : tail_items_) mark_fallback(item.index);
    }
  }

  if (first_snapshot_) {
    // COW-violation self-check: the first snapshot structure-shares payloads
    // with a world that has since run to completion. If any shared payload
    // was mutated in place (a missing clone-on-write), the stored snapshot's
    // recomputed digest no longer matches the one taken at capture.
    ++stats_.identity_checks;
    if (world_digest(*first_snapshot_) != first_snapshot_->digest) {
      ++stats_.cow_violations;
    }
  }

  for (const auto& [site, group] : groups_) {
    if (std::find(fired_.begin(), fired_.end(), site) != fired_.end()) continue;
    for (const ForkItem& item : group) mark_fallback(item.index);
  }
  std::sort(fallback.begin(), fallback.end());
  run_.reset();
  return fallback;
}

bool ForkRunner::on_checkpoint(std::uint64_t site) {
  if (in_child_) return false;  // children never checkpoint

  // Alignment guard: the callback fires at the first call with seq >= site;
  // strict equality is the golden-trajectory guarantee. On divergence every
  // remaining checkpoint is unreliable — cancel, let those items fall back.
  if (run_->target().syscalls_made != site) return false;

  // A semantic RNG draw in the prefix (e.g. GetTempFileName's suffix) means
  // the prefix state depends on the run seed — a fork under a *different*
  // seed would resume from a prefix its own full run could not produce.
  if (run_->simulation().semantic_rng_draws() > 0) return false;

  fired_.push_back(site);
  ++stats_.snapshots_taken;
  WorldSnapshot snap = capture_world(*run_, site);
  stats_.shared_blocks += snap.cow.shared_blocks;
  stats_.copied_blocks += snap.cow.copied_blocks;
  stats_.shared_bytes += snap.cow.shared_bytes;
  stats_.copied_bytes += snap.cow.copied_bytes;
  const std::uint64_t identity =
      plan::snapshot_identity(opts_.campaign_digest, site, snap.digest);
  if (!first_snapshot_) first_snapshot_ = snap;

  auto it = groups_.find(site);
  if (it != groups_.end()) {
    for (const ForkItem& item : it->second) {
      spawn_child(item, snap, identity);
      if (in_child_) return false;  // resume the run as this item's fault run
    }
  }
  return true;
}

void ForkRunner::spawn_child(const ForkItem& item, const WorldSnapshot& snap,
                             std::uint64_t identity) {
  const int jobs = opts_.jobs < 1 ? 1 : opts_.jobs;
  while (static_cast<int>(active_.size()) >= jobs) reap_oldest();

  int fds[2];
  if (::pipe(fds) != 0) {
    mark_fallback(item.index);
    return;
  }
  // The child inherits stdio buffers; flush now so nothing is emitted twice.
  std::fflush(stdout);
  std::fflush(stderr);
  ++stats_.identity_checks;  // the child validates; account here (its memory is its own)
  const pid_t pid = ::fork();
  if (pid < 0) {
    ::close(fds[0]);
    ::close(fds[1]);
    mark_fallback(item.index);
    return;
  }
  if (pid == 0) {
    ::close(fds[0]);
    in_child_ = true;
    child_fd_ = fds[1];
    child_item_ = item;
    child_start_us_ = steady_now_us();
    // Snapshot identity: campaign digest x site x world digest. The child
    // re-derives it from the inherited snapshot's stored fields plus its own
    // live sim state — a mismatch means it was handed another campaign's (or
    // another site's) world, or a world whose trajectory already diverged
    // from the snapshot. Deliberately NOT a full world re-hash: that would
    // cost a per-fork scan of every memory payload, and in-place payload
    // corruption is what the parent's post-run COW self-check covers.
    if (plan::snapshot_identity(opts_.campaign_digest, snap.site, snap.digest) !=
            identity ||
        run_->target().syscalls_made != snap.site) {
      _exit(3);
    }
    run_->interceptor().arm(item.fault);
    // Reseed the root RNG to what a full run under item.seed would hold at
    // this point: same raw-draw count (the prefix trajectory is
    // seed-invariant — checked via semantic_rng_draws), fresh seed.
    sim::Rng& rng = run_->simulation().rng();
    rng.reseed(item.seed, rng.cursor());
    return;  // unwinds into on_checkpoint -> false -> the run continues
  }
  ::close(fds[1]);
  Child c;
  c.pid = pid;
  c.fd = fds[0];
  c.index = item.index;
  c.skipped_us = static_cast<std::uint64_t>(
      (snap.sim.now - sim::TimePoint{}).count_micros());
  active_.push_back(c);
  ++stats_.forked_runs;
}

void ForkRunner::reap_oldest() {
  const Child c = active_.front();
  active_.erase(active_.begin());

  // Read to EOF before waitpid: a child writing more than the pipe buffer
  // must not deadlock against a parent waiting for its exit.
  std::string buf;
  char tmp[4096];
  ssize_t n;
  while ((n = ::read(c.fd, tmp, sizeof tmp)) > 0) buf.append(tmp, static_cast<std::size_t>(n));
  ::close(c.fd);
  int status = 0;
  ::waitpid(static_cast<pid_t>(c.pid), &status, 0);

  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    mark_fallback(c.index);
    return;
  }
  ChildOutcome out;
  out.index = c.index;
  if (!exec::read_record_fields(buf, &out.record) || out.record.index != c.index ||
      !exec::result_from_record(out.record, base_.workload.target_image, &out.result)) {
    mark_fallback(c.index);
    return;
  }
  out.skipped_sim_us = c.skipped_us;
  stats_.skipped_sim_us += c.skipped_us;
  (*on_result_)(out);
}

void ForkRunner::finish_child(core::RunResult result) {
  // In the forked child after its run completed. Send the record over the
  // pipe with raw write() and leave via _exit(): no atexit handlers, no
  // flushing of inherited journal/metrics/stdio buffers.
  const exec::JournalRecord rec = exec::finish_run(
      *run_, result, {opts_.campaign_digest, 0, child_item_.index},
      static_cast<std::uint64_t>(steady_now_us() - child_start_us_));
  std::string line = "{";
  exec::write_record_fields(&line, rec, /*wire=*/true);
  line += '}';
  const char* p = line.data();
  std::size_t left = line.size();
  while (left > 0) {
    const ssize_t w = ::write(child_fd_, p, left);
    if (w <= 0) _exit(4);
    p += w;
    left -= static_cast<std::size_t>(w);
  }
  _exit(0);
}

#else  // !DTS_SNAP_POSIX

std::vector<std::size_t> ForkRunner::run(
    const std::vector<ForkItem>& items,
    const std::function<void(const ChildOutcome&)>& on_result) {
  (void)on_result;
  std::vector<std::size_t> fallback;
  fallback_ = &fallback;
  for (const ForkItem& item : items) mark_fallback(item.index);
  return fallback;
}

bool ForkRunner::on_checkpoint(std::uint64_t) { return false; }
void ForkRunner::spawn_child(const ForkItem&, const WorldSnapshot&, std::uint64_t) {}
void ForkRunner::reap_oldest() {}
void ForkRunner::finish_child(core::RunResult) { std::abort(); }

#endif  // DTS_SNAP_POSIX

}  // namespace dts::snap
