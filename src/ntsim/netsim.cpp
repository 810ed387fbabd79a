#include "ntsim/netsim.h"

#include <algorithm>

#include "ntsim/kernel.h"  // Machine::name(), for per-link config resolution

namespace dts::nt::net {

namespace {

/// Appends `bytes` to `to`, taking the buffer itself when `to` is empty.
void append_or_adopt(std::string& to, std::string&& bytes) {
  if (to.empty()) {
    to = std::move(bytes);
  } else {
    to += bytes;
  }
}

}  // namespace

// ---------------------------------------------------------------- Socket

void Socket::send(std::string data) {
  if (closed_ || data.empty()) return;
  sim::Simulation& sim = net_->sim();
  const NetworkConfig& cfg = cfg_;  // the link this connection was made over
  const auto transfer = sim::Duration::micros(
      static_cast<std::int64_t>(data.size()) * 1'000'000 /
      static_cast<std::int64_t>(cfg.bytes_per_second));
  sim::TimePoint deliver_at = sim.now() + cfg.latency + transfer;
  // Preserve FIFO ordering with earlier in-flight sends on this stream.
  if (deliver_at < tx_->earliest_delivery) deliver_at = tx_->earliest_delivery;
  tx_->earliest_delivery = deliver_at;

  std::shared_ptr<Stream> tx = tx_;
  sim.schedule_at(deliver_at, [&sim, tx, payload = std::move(data)]() mutable {
    if (tx->eof) return;  // connection already reset
    append_or_adopt(tx->buffer, std::move(payload));
    tx->wake_readers(sim);
  });
}

sim::CoTask<std::optional<std::string>> Socket::recv(Ctx c, std::size_t max,
                                                     std::optional<sim::Duration> timeout) {
  sim::Simulation& sim = net_->sim();
  const sim::TimePoint deadline = sim.now() + timeout.value_or(sim::Duration{});
  for (;;) {
    if (!rx_->buffer.empty()) {
      std::string& buffer = rx_->buffer;
      std::string out;
      if (max >= buffer.size()) {
        out = std::move(buffer);
        buffer.clear();
      } else {
        out = buffer.substr(0, max);
        buffer.erase(0, max);
      }
      co_return out;
    }
    if (rx_->eof) co_return std::string{};  // orderly EOF / reset
    if (timeout && sim.now() >= deadline) co_return std::nullopt;

    auto tok = make_wait(c);
    rx_->read_waiters.push_back(tok);
    std::optional<sim::Duration> remaining;
    if (timeout) remaining = deadline - sim.now();
    const sim::WakeReason reason = co_await await_token(c, tok, remaining);
    if (reason == sim::WakeReason::kTimeout) co_return std::nullopt;
  }
}

sim::CoTask<std::optional<std::string>> Socket::recv_until(
    Ctx c, std::string delim, std::size_t max, std::optional<sim::Duration> timeout) {
  sim::Simulation& sim = net_->sim();
  const sim::TimePoint deadline = sim.now() + timeout.value_or(sim::Duration{});
  for (;;) {
    const auto pos = rx_->buffer.find(delim);
    if (pos != std::string::npos) {
      std::string out = rx_->buffer.substr(0, pos + delim.size());
      rx_->buffer.erase(0, pos + delim.size());
      co_return out;
    }
    if (rx_->buffer.size() > max) co_return std::nullopt;  // oversized
    if (rx_->eof) co_return std::nullopt;
    if (timeout && sim.now() >= deadline) co_return std::nullopt;

    auto tok = make_wait(c);
    rx_->read_waiters.push_back(tok);
    std::optional<sim::Duration> remaining;
    if (timeout) remaining = deadline - sim.now();
    const sim::WakeReason reason = co_await await_token(c, tok, remaining);
    if (reason == sim::WakeReason::kTimeout) co_return std::nullopt;
  }
}

sim::CoTask<std::optional<std::string>> Socket::recv_exactly(
    Ctx c, std::size_t n, std::optional<sim::Duration> timeout) {
  sim::Simulation& sim = net_->sim();
  const sim::TimePoint deadline = sim.now() + timeout.value_or(sim::Duration{});
  std::string out;
  while (out.size() < n) {
    std::optional<sim::Duration> remaining;
    if (timeout) {
      if (sim.now() >= deadline) co_return std::nullopt;
      remaining = deadline - sim.now();
    }
    auto chunk = co_await recv(c, n - out.size(), remaining);
    if (!chunk || chunk->empty()) co_return std::nullopt;  // timeout or EOF
    append_or_adopt(out, std::move(*chunk));
  }
  co_return out;
}

sim::CoTask<bool> Socket::recv_to_eof(Ctx c, sim::TimePoint deadline, std::string& out) {
  sim::Simulation& sim = net_->sim();
  for (;;) {
    const sim::Duration remaining = deadline - sim.now();
    if (remaining <= sim::Duration{}) co_return false;
    // Take everything delivered so far: a read that finds data never
    // suspends, so the read size is invisible to the simulation, and a
    // whole-buffer read moves instead of copying.
    auto chunk = co_await recv(c, std::string::npos, remaining);
    if (!chunk) co_return false;         // timeout
    if (chunk->empty()) co_return true;  // EOF: reply complete (or connection reset)
    append_or_adopt(out, std::move(*chunk));
  }
}

void Socket::close() {
  if (closed_) return;
  closed_ = true;
  sim::Simulation& sim = net_->sim();
  std::shared_ptr<Stream> tx = tx_;
  // The FIN travels with the usual latency but must not overtake in-flight
  // data on this stream (TCP ordering).
  sim::TimePoint at = sim.now() + cfg_.latency;
  if (at < tx->earliest_delivery) at = tx->earliest_delivery;
  tx->earliest_delivery = at;
  sim.schedule_at(at, [&sim, tx] {
    tx->eof = true;
    tx->wake_readers(sim);
  });
  // Our own receive side stops waiting immediately.
  rx_->eof = true;
  rx_->wake_readers(sim);
}

// ---------------------------------------------------------------- Listener

Listener::~Listener() {
  net_->unbind(machine_, port_, this);
  for (auto& sock : pending_) sock->close();  // reset un-accepted connections
  auto pending = std::move(accept_waiters_);
  for (auto& tok : pending) sim::wake(net_->sim(), tok, sim::WakeReason::kAbandoned);
}

sim::CoTask<std::shared_ptr<Socket>> Listener::accept(Ctx c,
                                                      std::optional<sim::Duration> timeout) {
  sim::Simulation& sim = net_->sim();
  const sim::TimePoint deadline = sim.now() + timeout.value_or(sim::Duration{});
  for (;;) {
    if (!pending_.empty()) {
      auto sock = std::move(pending_.front());
      pending_.pop_front();
      co_return sock;
    }
    if (timeout && sim.now() >= deadline) co_return nullptr;

    auto tok = make_wait(c);
    accept_waiters_.push_back(tok);
    std::optional<sim::Duration> remaining;
    if (timeout) remaining = deadline - sim.now();
    const sim::WakeReason reason = co_await await_token(c, tok, remaining);
    if (reason == sim::WakeReason::kTimeout) co_return nullptr;
  }
}

// ---------------------------------------------------------------- Network

std::shared_ptr<Listener> Network::listen(const std::string& machine, std::uint16_t port) {
  const auto key = std::make_pair(machine, port);
  if (listeners_.contains(key)) return nullptr;  // address in use
  auto listener = std::make_shared<Listener>(*this, machine, port);
  listeners_[key] = listener.get();
  return listener;
}

void Network::unbind(const std::string& machine, std::uint16_t port, const Listener* who) {
  const auto key = std::make_pair(machine, port);
  auto it = listeners_.find(key);
  if (it != listeners_.end() && it->second == who) listeners_.erase(it);
}

bool Network::port_open(const std::string& machine, std::uint16_t port) const {
  return listeners_.contains(std::make_pair(machine, port));
}

void Network::set_link(const std::string& a, const std::string& b, NetworkConfig cfg) {
  links_[a <= b ? std::make_pair(a, b) : std::make_pair(b, a)] = cfg;
}

const NetworkConfig& Network::link_config(const std::string& a, const std::string& b) const {
  const auto it = links_.find(a <= b ? std::make_pair(a, b) : std::make_pair(b, a));
  return it == links_.end() ? cfg_ : it->second;
}

sim::CoTask<std::shared_ptr<Socket>> Network::connect(Ctx c, const std::string& machine,
                                                      std::uint16_t port,
                                                      std::optional<sim::Duration> timeout) {
  (void)timeout;  // refusal is immediate in this model; see below
  const NetworkConfig link = link_config(c.m().name(), machine);
  // SYN round trip.
  co_await sleep_in_sim(c, link.latency * 2);

  auto it = listeners_.find(std::make_pair(machine, port));
  if (it == listeners_.end()) {
    // No listener: RST — immediate connection refused.
    co_return nullptr;
  }
  Listener* listener = it->second;

  auto client_to_server = std::make_shared<Stream>();
  auto server_to_client = std::make_shared<Stream>();
  auto client_sock = std::make_shared<Socket>(*this, server_to_client, client_to_server, link);
  auto server_sock = std::make_shared<Socket>(*this, client_to_server, server_to_client, link);
  ++connections_;

  listener->pending_.push_back(std::move(server_sock));
  auto waiters = std::move(listener->accept_waiters_);
  listener->accept_waiters_.clear();
  for (auto& tok : waiters) sim::wake(*sim_, tok, sim::WakeReason::kSignaled);
  co_return client_sock;
}

Network::Snapshot Network::capture() const {
  Snapshot s;
  s.connections = connections_;
  for (const auto& [key, listener] : listeners_) s.bound_ports.push_back(key);
  return s;  // listeners_ is an ordered map, so bound_ports comes out sorted
}

bool Network::restore(const Snapshot& s) {
  connections_ = s.connections;
  std::vector<std::pair<std::string, std::uint16_t>> now;
  now.reserve(listeners_.size());
  for (const auto& [key, listener] : listeners_) now.push_back(key);
  return now == s.bound_ports;
}

}  // namespace dts::nt::net
