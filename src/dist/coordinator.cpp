#include "dist/coordinator.h"

#include <poll.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>

#include <algorithm>
#include <chrono>
#include <deque>
#include <memory>
#include <set>
#include <stdexcept>
#include <utility>
#include <vector>

#include "core/config.h"
#include "dist/protocol.h"
#include "dist/socket.h"
#include "dist/wire.h"
#include "exec/sink.h"
#include "obs/fleet/events.h"
#include "obs/fleet/status.h"
#include "obs/fleet/telemetry.h"
#include "plan/plan.h"

namespace dts::dist {

namespace {

using Clock = std::chrono::steady_clock;

int ms_between(Clock::time_point from, Clock::time_point to) {
  return static_cast<int>(
      std::chrono::duration_cast<std::chrono::milliseconds>(to - from).count());
}

struct ActiveLease {
  std::uint64_t id = 0;
  std::set<std::size_t> outstanding;  // leased indices with no result yet
};

struct Conn {
  Socket sock;
  FrameDecoder decoder;
  enum class State : std::uint8_t { kAwaitHello, kAwaitReady, kIdle, kLeased };
  State state = State::kAwaitHello;
  int worker_id = 0;
  std::optional<ActiveLease> lease;
  Clock::time_point first_seen;
  Clock::time_point last_seen;
  std::uint64_t runs = 0;
  bool dead = false;  // marked mid-iteration, swept afterwards

  // Latest telemetry summary (protocol v2; zero/empty until a frame lands).
  std::uint64_t telemetry_seq = 0;
  std::uint64_t failures = 0;
  std::string recent_failures;
};

}  // namespace

struct Coordinator::Impl {
  core::RunConfig base;
  inject::FaultList list;
  const core::CampaignOptions* campaign = nullptr;
  DistOptions options;
  bool skip_uncalled = true;

  Listener listener;
  std::uint64_t digest = 0;
  std::string welcome_line;  // identical for every worker; rendered once
  std::string config_text;   // serialize_config text, journal v4 header
  // The campaign's options minus the registry: per-run metrics arrive with
  // the workers' telemetry, labelled by worker, so the coordinator's sink
  // journals, writes forensics files, feeds stall detector and status board,
  // and reports progress.
  exec::ExecOptions sink_options;

  std::vector<exec::CompletedRun> slots;
  std::vector<std::string> fault_ids;  // pre-rendered, reused everywhere
  std::deque<std::size_t> pending;     // ascending fault indices awaiting a lease
  exec::UncalledProofs proofs;
  std::unique_ptr<exec::RunSink> sink;

  std::vector<std::unique_ptr<Conn>> conns;
  std::uint64_t next_lease_id = 0;
  int next_worker_id = 0;
  std::size_t outstanding_total = 0;  // leased indices with no result yet
  std::size_t reused = 0;

  std::vector<pid_t> children;  // spawned local workers not yet reaped
  int respawns_left = 0;

  // dts_dist_* handles (null registry => all null).
  obs::Gauge* workers_live = nullptr;
  obs::Counter* leases_issued = nullptr;
  obs::Counter* leases_expired = nullptr;
  obs::Counter* leases_reassigned = nullptr;
  obs::Counter* bytes_sent = nullptr;
  obs::Counter* bytes_received = nullptr;
  obs::Counter* telemetry_frames = nullptr;

  // --- small helpers ------------------------------------------------------

  bool complete() const { return pending.empty() && outstanding_total == 0; }

  void event(obs::fleet::FleetEventKind kind, int worker_id, std::uint64_t lease_id,
             std::string detail) {
    if (options.events != nullptr) {
      options.events->record(kind, worker_id, lease_id, std::move(detail));
    }
  }

  void update_status_workers(Clock::time_point now) {
    if (campaign->status == nullptr) return;
    std::vector<obs::fleet::WorkerRow> rows;
    rows.reserve(conns.size());
    for (const auto& c : conns) {
      if (c->dead) continue;
      obs::fleet::WorkerRow row;
      row.worker_id = c->worker_id;
      row.runs = c->runs;
      const double secs = ms_between(c->first_seen, now) / 1e3;
      row.runs_per_sec = secs > 0 ? static_cast<double>(c->runs) / secs : 0.0;
      row.lease_id = c->lease ? c->lease->id : 0;
      row.outstanding = c->lease ? c->lease->outstanding.size() : 0;
      row.failures = c->failures;
      row.recent_failures = c->recent_failures;
      rows.push_back(std::move(row));
    }
    campaign->status->update_workers(std::move(rows));
  }

  void update_live() {
    if (workers_live != nullptr) {
      workers_live->set(static_cast<double>(conns.size()));
    }
  }

  bool send_msg(Conn& c, const std::string& payload) {
    const std::string frame = encode_frame(payload);
    if (!send_all(c.sock.fd(), frame, options.io_timeout_ms)) {
      c.dead = true;
      return false;
    }
    if (bytes_sent != nullptr) bytes_sent->inc(frame.size());
    return true;
  }

  void finish_worker_rate(const Conn& c, Clock::time_point now) {
    if (campaign->metrics == nullptr) return;
    const double secs = ms_between(c.first_seen, now) / 1e3;
    campaign->metrics
        ->gauge("dts_dist_worker_runs_per_sec",
                {{"worker", std::to_string(c.worker_id)}},
                "observed fresh-run throughput per distributed worker")
        .set(secs > 0 ? static_cast<double>(c.runs) / secs : 0.0);
  }

  /// Returns a lost lease's unfinished indices to the queue. Leases are cut
  /// from the front of the ascending queue, so the remainder sorts before
  /// everything still pending — push_front keeps the queue ascending.
  void reassign_lease(Conn& c, bool expired) {
    if (!c.lease || c.lease->outstanding.empty()) {
      c.lease.reset();
      return;
    }
    const std::uint64_t lease_id = c.lease->id;
    const std::size_t returned = c.lease->outstanding.size();
    for (auto it = c.lease->outstanding.rbegin(); it != c.lease->outstanding.rend();
         ++it) {
      pending.push_front(*it);
    }
    outstanding_total -= returned;
    c.lease.reset();
    if (leases_reassigned != nullptr) leases_reassigned->inc();
    if (expired && leases_expired != nullptr) leases_expired->inc();
    event(expired ? obs::fleet::FleetEventKind::kLeaseExpired
                  : obs::fleet::FleetEventKind::kLeaseReassigned,
          c.worker_id, lease_id,
          std::to_string(returned) + " unfinished faults returned to the queue");
  }

  /// Leases the next contiguous shard to an idle worker. Faults already
  /// proven uncalled are elided here (the serial sweep would skip them), so
  /// wire time is only spent on faults that need a simulation.
  void try_assign(Conn& c) {
    if (c.state != Conn::State::kIdle || pending.empty()) return;
    const std::size_t shard = options.lease_size > 0
                                  ? options.lease_size
                                  : std::clamp<std::size_t>(slots.size() / 16, 1, 64);
    Lease lease;
    lease.digest = digest;
    ActiveLease active;
    while (!pending.empty() && lease.indices.size() < shard) {
      const std::size_t i = pending.front();
      pending.pop_front();
      if (skip_uncalled && proofs.proven_before(list.faults[i].fn, i)) {
        sink->skipped();
        continue;
      }
      lease.indices.push_back(i);
      lease.fault_ids.push_back(fault_ids[i]);
      active.outstanding.insert(i);
    }
    if (lease.indices.empty()) return;  // everything up front elided
    lease.lease_id = active.id = ++next_lease_id;
    c.lease = std::move(active);
    c.state = Conn::State::kLeased;
    outstanding_total += c.lease->outstanding.size();
    if (send_msg(c, encode_lease(lease))) {
      if (leases_issued != nullptr) leases_issued->inc();
      event(obs::fleet::FleetEventKind::kLeaseIssued, c.worker_id, lease.lease_id,
            std::to_string(lease.indices.size()) + " faults");
    }
    // On send failure the conn is marked dead; the sweep reassigns the lease.
  }

  void record_result(Conn& c, const WireResult& r) {
    if (!c.lease || r.lease_id != c.lease->id) return;  // stale, ignore
    if (r.index >= slots.size() || fault_ids[r.index] != r.fault_id) {
      c.dead = true;
      return;
    }
    if (c.lease->outstanding.erase(r.index) == 0) return;  // duplicate
    --outstanding_total;
    ++c.runs;
    if (campaign->metrics != nullptr) {
      campaign->metrics
          ->counter("dts_dist_worker_runs_total",
                    {{"worker", std::to_string(c.worker_id)}},
                    "fresh runs streamed back per distributed worker")
          .inc();
    }

    exec::CompletedRun& slot = slots[r.index];
    if (slot.executed) return;  // at-most-once: first wins
    if (!exec::result_from_record(r, base.workload.target_image, &slot.result)) {
      c.dead = true;
      return;
    }
    slot.fn_called = r.fn_called;
    slot.executed = true;
    if (!slot.result.activated && !slot.fn_called) {
      proofs.record(list.faults[r.index].fn, r.index);
    }
    // The record carries the run's causal name (campaign, lease, fault) as
    // the worker minted it; it reaches the sink unchanged.
    sink->record(r, slot.result, c.worker_id, r.lease_id);
  }

  void record_telemetry(Conn& c, const std::string& line) {
    const auto t = decode_telemetry(line);
    if (!t) {
      c.dead = true;
      return;
    }
    // Frames arrive in order on the connection, but a conn that died and was
    // respawned restarts at seq 1 against an already-advanced worker id —
    // never the case today (worker ids are never reused), so the seq check is
    // pure belt-and-braces against a future transport that reorders.
    if (t->seq <= c.telemetry_seq) return;
    c.telemetry_seq = t->seq;
    c.failures = t->failures;
    c.recent_failures = t->recent_failures;
    if (campaign->metrics != nullptr) {
      obs::fleet::merge_samples(*campaign->metrics, c.worker_id,
                                obs::fleet::decode_samples(t->metrics));
    }
    if (telemetry_frames != nullptr) telemetry_frames->inc();
  }

  /// Handles one decoded message; marks the conn dead on protocol violations.
  void handle(Conn& c, const std::string& line) {
    c.last_seen = Clock::now();
    const auto type = message_type(line);
    if (!type) {
      c.dead = true;
      return;
    }
    switch (*type) {
      case MsgType::kHello: {
        const auto hello = decode_hello(line);
        if (c.state != Conn::State::kAwaitHello || !hello ||
            hello->proto != kProtocolVersion) {
          send_msg(c, encode_error("protocol version mismatch"));
          c.dead = true;
          return;
        }
        if (send_msg(c, welcome_line)) c.state = Conn::State::kAwaitReady;
        return;
      }
      case MsgType::kReady: {
        const auto ready = decode_ready(line);
        if (!ready || ready->digest != digest) {
          // The worker validated against a different campaign; none of its
          // results would be trustworthy.
          send_msg(c, encode_error("campaign digest mismatch"));
          c.dead = true;
          return;
        }
        if (c.state == Conn::State::kLeased) {
          if (!c.lease->outstanding.empty()) {
            c.dead = true;  // READY with results still owed: protocol violation
            return;
          }
          c.lease.reset();
        } else if (c.state != Conn::State::kAwaitReady &&
                   c.state != Conn::State::kIdle) {
          c.dead = true;
          return;
        }
        c.state = Conn::State::kIdle;
        try_assign(c);
        return;
      }
      case MsgType::kResult:
        if (const auto r = decode_result(line)) {
          record_result(c, *r);
        } else {
          c.dead = true;
        }
        return;
      case MsgType::kHeartbeat:
        return;  // last_seen already refreshed
      case MsgType::kTelemetry:
        record_telemetry(c, line);
        return;
      case MsgType::kError:
      default:
        c.dead = true;  // worker gave up, or speaks something else entirely
        return;
    }
  }

  void pump_conn(Conn& c) {
    std::string chunk;
    switch (recv_some(c.sock.fd(), &chunk, 64 * 1024, /*timeout_ms=*/0)) {
      case RecvStatus::kData:
        if (bytes_received != nullptr) bytes_received->inc(chunk.size());
        c.decoder.feed(chunk);
        break;
      case RecvStatus::kTimeout:
        return;  // spurious wakeup
      case RecvStatus::kClosed:
      case RecvStatus::kError:
        c.dead = true;
        return;
    }
    while (!c.dead) {
      const auto frame = c.decoder.next();
      if (!frame) break;
      handle(c, *frame);
    }
    if (!c.decoder.error().empty()) c.dead = true;
  }

  /// Removes dead connections, reassigning whatever they still owed.
  void sweep_dead(Clock::time_point now) {
    for (auto& c : conns) {
      if (!c->dead) continue;
      reassign_lease(*c, /*expired=*/false);
      finish_worker_rate(*c, now);
      event(obs::fleet::FleetEventKind::kWorkerDisconnect, c->worker_id, 0,
            std::to_string(c->runs) + " runs streamed");
    }
    std::erase_if(conns, [](const auto& c) { return c->dead; });
    update_live();
  }

  void expire_leases(Clock::time_point now) {
    for (auto& c : conns) {
      if (c->dead || c->state != Conn::State::kLeased) continue;
      if (ms_between(c->last_seen, now) <= options.lease_timeout_ms) continue;
      reassign_lease(*c, /*expired=*/true);
      finish_worker_rate(*c, now);
      c->dead = true;  // the socket may still be open; the worker is not
      event(obs::fleet::FleetEventKind::kWorkerDisconnect, c->worker_id, 0,
            "lease timeout");
    }
    std::erase_if(conns, [](const auto& c) { return c->dead; });
    update_live();
  }

  void spawn_one() {
    WorkerOptions w = options.worker;
    w.host = "127.0.0.1";
    w.port = listener.port();
    const pid_t pid = spawn_worker_process(w, listener.fd());
    if (pid > 0) children.push_back(pid);
  }

  void reap_children() {
    std::erase_if(children, [](pid_t pid) {
      int status = 0;
      return ::waitpid(pid, &status, WNOHANG) == pid;
    });
  }

  /// Keeps local fleets alive: when every spawned worker died with work still
  /// outstanding, spawn a replacement (bounded). Throws once the campaign
  /// provably cannot finish. Listen-only campaigns (spawn_workers == 0) wait
  /// for external workers indefinitely instead.
  void ensure_workers() {
    if (options.spawn_workers <= 0 || complete()) return;
    reap_children();
    if (!children.empty() || !conns.empty()) return;
    if (respawns_left <= 0) {
      throw std::runtime_error(
          "distributed campaign stalled: every worker exited and the respawn "
          "budget is exhausted");
    }
    --respawns_left;
    spawn_one();
  }

  void accept_new(Clock::time_point now) {
    for (;;) {
      Socket s = listener.accept(/*timeout_ms=*/0);
      if (!s.valid()) break;
      auto c = std::make_unique<Conn>();
      c->sock = std::move(s);
      c->worker_id = next_worker_id++;
      c->first_seen = c->last_seen = now;
      event(obs::fleet::FleetEventKind::kWorkerConnect, c->worker_id, 0, "");
      conns.push_back(std::move(c));
    }
    update_live();
  }

  void serve() {
    while (!complete()) {
      ensure_workers();

      std::vector<pollfd> fds;
      fds.reserve(conns.size() + 1);
      fds.push_back({listener.fd(), POLLIN, 0});
      for (const auto& c : conns) fds.push_back({c->sock.fd(), POLLIN, 0});
      const int rc = ::poll(fds.data(), fds.size(), /*timeout_ms=*/50);
      if (rc < 0 && errno != EINTR) {
        throw std::runtime_error("coordinator poll() failed");
      }

      const auto now = Clock::now();
      if (rc > 0) {
        // conns may grow via accept below; iterate the polled prefix only.
        for (std::size_t k = 1; k < fds.size(); ++k) {
          Conn& c = *conns[k - 1];
          if (fds[k].revents & (POLLIN | POLLHUP | POLLERR)) pump_conn(c);
        }
        if (fds[0].revents & POLLIN) accept_new(now);
      }
      sweep_dead(now);
      expire_leases(now);
      // A reassignment may have refilled the queue while workers sit idle.
      for (auto& c : conns) {
        if (pending.empty()) break;
        try_assign(*c);
      }
      sweep_dead(now);
      update_status_workers(now);
    }
  }

  /// Drains each connection until EOF or the deadline, merging telemetry
  /// frames and ignoring everything else. A worker answers DONE with one
  /// final snapshot and then closes the socket, and TCP ordering delivers
  /// that snapshot ahead of the FIN — so reaching every EOF here makes the
  /// fleet-wide totals exact, not merely latest-known.
  void drain_final_telemetry() {
    const auto deadline = Clock::now() + std::chrono::milliseconds(2000);
    for (;;) {
      std::size_t open = 0;
      for (auto& c : conns) {
        if (c->dead) continue;
        ++open;
        std::string chunk;
        switch (recv_some(c->sock.fd(), &chunk, 64 * 1024, /*timeout_ms=*/10)) {
          case RecvStatus::kData:
            if (bytes_received != nullptr) bytes_received->inc(chunk.size());
            c->decoder.feed(chunk);
            break;
          case RecvStatus::kTimeout:
            break;
          case RecvStatus::kClosed:
          case RecvStatus::kError:
            c->dead = true;
            break;
        }
        for (;;) {
          const auto frame = c->decoder.next();
          if (!frame) break;
          if (message_type(*frame) == MsgType::kTelemetry) {
            record_telemetry(*c, *frame);
          }
          // READY/heartbeat frames racing the DONE are expected; drop them.
        }
        if (!c->decoder.error().empty()) c->dead = true;
      }
      if (open == 0 || Clock::now() >= deadline) return;
    }
  }

  void shutdown() {
    for (auto& c : conns) send_msg(*c, encode_done());
    if (options.telemetry_ms > 0) drain_final_telemetry();
    const auto now = Clock::now();
    update_status_workers(now);
    for (auto& c : conns) finish_worker_rate(*c, now);
    conns.clear();
    update_live();
    for (pid_t pid : children) {
      int status = 0;
      ::waitpid(pid, &status, 0);
    }
    children.clear();
  }
};

Coordinator::Coordinator(core::RunConfig base, inject::FaultList list,
                         const core::CampaignOptions& campaign, DistOptions options)
    : impl_(std::make_unique<Impl>()) {
  impl_->base = std::move(base);
  impl_->list = std::move(list);
  impl_->campaign = &campaign;
  impl_->options = std::move(options);
  impl_->sink_options = campaign;
  impl_->sink_options.metrics = nullptr;
  // No registry means nowhere to merge worker snapshots into — don't ask
  // workers to ship any.
  if (campaign.metrics == nullptr) impl_->options.telemetry_ms = 0;

  std::string error;
  impl_->listener =
      Listener::open(impl_->options.listen_host, impl_->options.listen_port, &error);
  if (!impl_->listener.valid()) {
    throw std::runtime_error("cannot listen on " + impl_->options.listen_host + ":" +
                             std::to_string(impl_->options.listen_port) + ": " + error);
  }

  impl_->digest = plan::sweep_digest(impl_->list);
  impl_->fault_ids.reserve(impl_->list.faults.size());
  for (const auto& f : impl_->list.faults) impl_->fault_ids.push_back(f.id());

  // The same configuration text an in-process campaign journals.
  impl_->config_text = core::serialize_config({impl_->base, campaign, {}});
  Welcome welcome;
  welcome.workload = impl_->base.workload.name;
  welcome.middleware = static_cast<int>(impl_->base.middleware);
  welcome.watchd_version = static_cast<int>(impl_->base.watchd_version);
  welcome.seed = campaign.seed;
  welcome.fault_count = impl_->list.faults.size();
  welcome.digest = impl_->digest;
  welcome.telemetry_ms = impl_->options.telemetry_ms;
  welcome.config = impl_->config_text;
  welcome.trace = campaign.trace;
  welcome.forensics_depth = campaign.forensics_depth;
  impl_->welcome_line = encode_welcome(welcome);

  if (campaign.metrics != nullptr) {
    obs::MetricsRegistry& m = *campaign.metrics;
    impl_->workers_live =
        &m.gauge("dts_dist_workers_live", {}, "connected distributed workers");
    impl_->leases_issued =
        &m.counter("dts_dist_leases_issued_total", {}, "shard leases handed to workers");
    impl_->leases_expired = &m.counter(
        "dts_dist_leases_expired_total", {},
        "leases whose worker went silent past the lease timeout");
    impl_->leases_reassigned = &m.counter(
        "dts_dist_leases_reassigned_total", {},
        "lost leases whose unfinished remainder went back to the queue");
    impl_->bytes_sent =
        &m.counter("dts_dist_bytes_sent_total", {}, "protocol bytes sent to workers");
    impl_->bytes_received = &m.counter("dts_dist_bytes_received_total", {},
                                       "protocol bytes received from workers");
    impl_->telemetry_frames =
        &m.counter("dts_fleet_telemetry_frames_total", {},
                   "worker telemetry snapshots merged by the coordinator");
  }
}

Coordinator::~Coordinator() {
  if (impl_ == nullptr) return;
  impl_->conns.clear();
  for (pid_t pid : impl_->children) {
    ::kill(pid, SIGKILL);
    int status = 0;
    ::waitpid(pid, &status, 0);
  }
}

std::uint16_t Coordinator::port() const { return impl_->listener.port(); }

exec::CampaignResult Coordinator::run(bool skip_uncalled) {
  Impl& im = *impl_;
  const std::uint64_t seed = im.campaign->seed;
  const std::size_t n = im.list.faults.size();
  im.slots.assign(n, exec::CompletedRun{});
  im.skip_uncalled = skip_uncalled;

  auto resumed = exec::load_resumed_runs(
      *im.campaign, im.base, seed, im.digest, n,
      [&im](std::size_t i, const std::string& id) { return im.fault_ids[i] == id; });
  im.reused = resumed.size();
  for (auto& [i, run] : resumed) im.slots[i] = std::move(run);
  for (std::size_t i = 0; i < n; ++i) {
    const exec::CompletedRun& slot = im.slots[i];
    if (!slot.executed) {
      im.pending.push_back(i);
    } else if (!slot.result.activated && !slot.fn_called) {
      im.proofs.record(im.list.faults[i].fn, i);
    }
  }
  im.sink = std::make_unique<exec::RunSink>(im.base, im.sink_options, seed, n,
                                            im.config_text);
  im.sink->start(n, im.reused);

  if (im.pending.empty()) {
    // Fully resumed (or an empty sweep): nothing to distribute.
    im.sink->report();
  } else {
    im.respawns_left = im.options.spawn_workers;
    for (int w = 0; w < im.options.spawn_workers; ++w) im.spawn_one();
    im.serve();
  }
  im.shutdown();

  // Same merge as the in-process executor: replay the skip rule serially so
  // the distributed output is byte-identical to --jobs=1.
  exec::CampaignResult out = exec::merge_completed_runs(im.base, im.list, seed,
                                                       skip_uncalled, std::move(im.slots));
  out.executed += im.sink->executed();
  out.reused = im.reused;
  return out;
}

pid_t spawn_worker_process(const WorkerOptions& options, int close_fd) {
  const pid_t pid = ::fork();
  if (pid != 0) return pid;
  if (close_fd >= 0) ::close(close_fd);
  std::string error;
  _exit(run_worker(options, &error));
}

core::WorkloadSetResult run_workload_set_distributed(
    const core::RunConfig& base, const core::CampaignOptions& options,
    const DistOptions& dist, const std::optional<inject::FaultList>& explicit_faults) {
  core::WorkloadSetResult result;
  result.base_config = base;
  result.activated_functions = core::profile_workload(base, options.seed);
  // The same sweep as the in-process path, so a distributed campaign's merged
  // output stays byte-identical to --jobs=1. Explicit lists execute in full,
  // as in-process campaigns do.
  inject::FaultList list = explicit_faults
                               ? *explicit_faults
                               : core::campaign_sweep(base, options,
                                                      &result.activated_functions);
  Coordinator coordinator(base, std::move(list), options, dist);
  if (dist.on_listen) dist.on_listen(coordinator.port());
  exec::CampaignResult campaign = coordinator.run(/*skip_uncalled=*/!explicit_faults);
  result.executed_runs = campaign.executed;
  result.runs = std::move(campaign.runs);
  return result;
}

}  // namespace dts::dist
