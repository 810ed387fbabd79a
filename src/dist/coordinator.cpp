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
  std::uint64_t failures = 0;                // accepted results that failed
  std::deque<std::string> recent_failures;  // their newest 8 fault ids
  bool dead = false;  // marked mid-iteration, swept afterwards
};

}  // namespace

struct Coordinator::Impl {
  const core::CampaignOptions* campaign = nullptr;
  DistOptions options;

  Listener listener;
  std::string welcome_line;  // identical for every worker; rendered once

  // The round being served. Leases and results are handled only while one
  // is: serve() runs inside Coordinator::run.
  const exec::Round* round = nullptr;
  std::deque<std::size_t> pending;     // its ascending entry indices awaiting a lease

  std::vector<std::unique_ptr<Conn>> conns;
  // /status rows of swept connections: a departed worker's runs still add
  // up to the journal.
  std::vector<obs::fleet::WorkerRow> departed;
  std::uint64_t next_lease_id = 0;
  int next_worker_id = 0;
  std::size_t outstanding_total = 0;  // leased indices with no result yet

  std::vector<pid_t> children;  // spawned local workers not yet reaped
  int respawns_left = 0;

  // dts_dist_* handles (null registry => all null).
  obs::Gauge* workers_live = nullptr;
  obs::Counter* leases_issued = nullptr;
  obs::Counter* leases_expired = nullptr;
  obs::Counter* leases_reassigned = nullptr;
  obs::Counter* bytes_sent = nullptr;
  obs::Counter* bytes_received = nullptr;

  // --- small helpers ------------------------------------------------------

  bool complete() const { return pending.empty() && outstanding_total == 0; }

  void event(obs::fleet::FleetEventKind kind, int worker_id, std::uint64_t lease_id,
             std::string detail) {
    if (options.events != nullptr) {
      options.events->record(kind, worker_id, lease_id, std::move(detail));
    }
  }

  static obs::fleet::WorkerRow status_row(const Conn& c, Clock::time_point now) {
    obs::fleet::WorkerRow row;
    row.worker_id = c.worker_id;
    row.runs = c.runs;
    const double secs = ms_between(c.first_seen, now) / 1e3;
    row.runs_per_sec = secs > 0 ? static_cast<double>(c.runs) / secs : 0.0;
    // A lease with every result in reads as idle: the worker's closing READY
    // can arrive after the campaign ends, or never.
    row.outstanding = c.lease ? c.lease->outstanding.size() : 0;
    row.lease_id = row.outstanding != 0 ? c.lease->id : 0;
    row.failures = c.failures;
    for (const std::string& id : c.recent_failures) {
      if (!row.recent_failures.empty()) row.recent_failures += ' ';
      row.recent_failures += id;
    }
    row.gone = c.dead;
    return row;
  }

  void update_status_workers(Clock::time_point now) {
    if (campaign->status == nullptr) return;
    std::vector<obs::fleet::WorkerRow> rows = departed;
    for (const auto& c : conns) rows.push_back(status_row(*c, now));
    std::sort(rows.begin(), rows.end(),
              [](const auto& a, const auto& b) { return a.worker_id < b.worker_id; });
    campaign->status->update_workers(std::move(rows));
  }

  /// Keeps a dead connection's final row, its lease already reassigned.
  void depart(const Conn& c, Clock::time_point now) {
    if (campaign->status != nullptr) departed.push_back(status_row(c, now));
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

  /// Leases the next slice of the round to an idle worker. Entries the loop
  /// elides by then (the serial sweep would skip them) are not leased, so
  /// wire time is only spent on entries that need a simulation.
  void try_assign(Conn& c) {
    if (c.state != Conn::State::kIdle || pending.empty()) return;
    const std::size_t shard =
        options.lease_size > 0 ? options.lease_size
                               : std::clamp<std::size_t>(round->fresh.size() / 16, 1, 64);
    Lease lease;
    lease.digest = round->digest;
    ActiveLease active;
    while (!pending.empty() && lease.indices.size() < shard) {
      const std::size_t i = pending.front();
      pending.pop_front();
      if (round->elide(i)) continue;
      lease.indices.push_back(i);
      lease.fault_ids.push_back(round->entries[i].fault.id());
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

  void record_result(Conn& c, WireResult r) {
    if (!c.lease || r.lease_id != c.lease->id) return;  // stale, ignore
    if (r.index >= round->entries.size() ||
        round->entries[r.index].fault.id() != r.fault_id) {
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
    core::RunResult result;
    if (!exec::result_from_record(r, round->base.workload.target_image, &result)) {
      c.dead = true;
      return;
    }
    if (result.outcome == core::Outcome::kFailure) {
      ++c.failures;
      c.recent_failures.push_back(r.fault_id);
      if (c.recent_failures.size() > 8) c.recent_failures.pop_front();
    }
    // The record carries the run's causal name (campaign, lease, entry) as
    // the worker minted it; it reaches the loop unchanged.
    const std::uint64_t lease_id = r.lease_id;
    round->done(r.index, std::move(result), std::move(r), c.worker_id, lease_id);
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
        if (!ready || ready->digest != round->digest) {
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
        if (auto r = decode_result(line)) {
          record_result(c, std::move(*r));
        } else {
          c.dead = true;
        }
        return;
      case MsgType::kHeartbeat:
        return;  // last_seen already refreshed
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
      depart(*c, now);
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
      depart(*c, now);
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
      if (campaign->metrics != nullptr) {
        campaign->metrics->set_thread_name(c->worker_id,
                                           "fleet-worker-" + std::to_string(c->worker_id));
      }
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

  void shutdown() {
    for (auto& c : conns) send_msg(*c, encode_done());
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

Coordinator::Coordinator(const core::CampaignOptions& campaign, DistOptions options)
    : impl_(std::make_unique<Impl>()) {
  impl_->campaign = &campaign;
  impl_->options = std::move(options);

  std::string error;
  impl_->listener =
      Listener::open(impl_->options.listen_host, impl_->options.listen_port, &error);
  if (!impl_->listener.valid()) {
    throw std::runtime_error("cannot listen on " + impl_->options.listen_host + ":" +
                             std::to_string(impl_->options.listen_port) + ": " + error);
  }

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
  }
  if (impl_->options.on_listen) impl_->options.on_listen(port());
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

void Coordinator::run(const exec::Round& round) {
  Impl& im = *impl_;
  if (im.welcome_line.empty()) {
    // The first round with work: every worker of the campaign receives the
    // configuration text the campaign journals.
    Welcome welcome;
    welcome.workload = round.base.workload.name;
    welcome.middleware = static_cast<int>(round.base.middleware);
    welcome.watchd_version = static_cast<int>(round.base.watchd_version);
    welcome.seed = round.seed;
    welcome.fault_count = round.entries.size();
    welcome.digest = round.digest;
    welcome.config = core::serialize_config({round.base, *im.campaign, {}});
    welcome.trace = im.campaign->trace;
    welcome.forensics_depth = im.campaign->forensics_depth;
    im.welcome_line = encode_welcome(welcome);
    im.respawns_left = im.options.spawn_workers;
    for (int w = 0; w < im.options.spawn_workers; ++w) im.spawn_one();
  }
  im.round = &round;
  im.pending.assign(round.fresh.begin(), round.fresh.end());
  // Workers idle since the previous round take their leases at once.
  for (auto& c : im.conns) im.try_assign(*c);
  im.serve();
  im.round = nullptr;
}

void Coordinator::finish() { impl_->shutdown(); }

pid_t spawn_worker_process(const WorkerOptions& options, int close_fd) {
  const pid_t pid = ::fork();
  if (pid != 0) return pid;
  if (close_fd >= 0) ::close(close_fd);
  std::string error;
  _exit(run_worker(options, &error));
}

}  // namespace dts::dist
