#include "dist/socket.h"

#include <arpa/inet.h>
#include <errno.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <string.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <thread>

namespace dts::dist {

namespace {

/// Resolves a numeric IPv4 address ("localhost" included — workers usually
/// target the loopback). getaddrinfo is deliberately avoided: the campaign
/// protocol only ever names explicit endpoints, and numeric parsing cannot
/// block on a resolver.
bool resolve_ipv4(const std::string& host, in_addr* out) {
  if (host.empty() || host == "localhost") {
    return inet_pton(AF_INET, "127.0.0.1", out) == 1;
  }
  return inet_pton(AF_INET, host.c_str(), out) == 1;
}

bool set_nonblocking(int fd, bool on) {
  const int flags = fcntl(fd, F_GETFL, 0);
  if (flags < 0) return false;
  return fcntl(fd, F_SETFL, on ? (flags | O_NONBLOCK) : (flags & ~O_NONBLOCK)) >= 0;
}

/// poll() for one event with EINTR retry against an absolute deadline.
int poll_one(int fd, short events, int timeout_ms) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(timeout_ms);
  for (;;) {
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
                          deadline - std::chrono::steady_clock::now())
                          .count();
    pollfd p{fd, events, 0};
    const int rc = ::poll(&p, 1, left < 0 ? 0 : static_cast<int>(left));
    if (rc < 0 && errno == EINTR) continue;
    if (rc <= 0) return rc;  // timeout or error
    return 1;
  }
}

}  // namespace

Socket::~Socket() { close(); }

Socket::Socket(Socket&& other) noexcept : fd_(other.fd_) { other.fd_ = -1; }

Socket& Socket::operator=(Socket&& other) noexcept {
  if (this != &other) {
    close();
    fd_ = other.fd_;
    other.fd_ = -1;
  }
  return *this;
}

void Socket::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

std::optional<std::pair<std::string, std::uint16_t>> parse_host_port(
    const std::string& addr, bool allow_port_zero) {
  const std::size_t colon = addr.rfind(':');
  if (colon == std::string::npos || colon + 1 >= addr.size()) return std::nullopt;
  const std::string host = addr.substr(0, colon);
  const std::string port_s = addr.substr(colon + 1);
  std::uint32_t port = 0;
  for (char c : port_s) {
    if (c < '0' || c > '9') return std::nullopt;
    port = port * 10 + static_cast<std::uint32_t>(c - '0');
    if (port > 65535) return std::nullopt;
  }
  if (port == 0 && !allow_port_zero) return std::nullopt;
  return std::make_pair(host, static_cast<std::uint16_t>(port));
}

Socket tcp_connect(const std::string& host, std::uint16_t port, int timeout_ms,
                   int retries, std::string* error) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (!resolve_ipv4(host, &addr.sin_addr)) {
    if (error != nullptr) *error = "bad IPv4 address: " + host;
    return Socket();
  }

  std::string last_error = "no attempt made";
  for (int attempt = 0; attempt <= retries; ++attempt) {
    if (attempt > 0) {
      // Linear backoff: the common failure is the worker starting before the
      // coordinator listens; tens of milliseconds cover it.
      std::this_thread::sleep_for(std::chrono::milliseconds(20 * attempt));
    }
    Socket sock(::socket(AF_INET, SOCK_STREAM, 0));
    if (!sock.valid()) {
      last_error = std::string("socket(): ") + strerror(errno);
      continue;
    }
    set_nonblocking(sock.fd(), true);
    const int rc =
        ::connect(sock.fd(), reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
    if (rc < 0 && errno != EINPROGRESS) {
      last_error = std::string("connect(): ") + strerror(errno);
      continue;
    }
    if (rc < 0) {
      if (poll_one(sock.fd(), POLLOUT, timeout_ms) <= 0) {
        last_error = "connect timeout";
        continue;
      }
      int so_error = 0;
      socklen_t len = sizeof(so_error);
      if (getsockopt(sock.fd(), SOL_SOCKET, SO_ERROR, &so_error, &len) < 0 ||
          so_error != 0) {
        last_error = std::string("connect(): ") + strerror(so_error);
        continue;
      }
    }
    set_nonblocking(sock.fd(), false);
    const int one = 1;
    setsockopt(sock.fd(), IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    return sock;
  }
  if (error != nullptr) {
    *error = "cannot connect to " + host + ":" + std::to_string(port) + " after " +
             std::to_string(retries + 1) + " attempts: " + last_error;
  }
  return Socket();
}

Listener Listener::open(const std::string& host, std::uint16_t port,
                        std::string* error) {
  Listener l;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (!resolve_ipv4(host, &addr.sin_addr)) {
    if (error != nullptr) *error = "bad IPv4 address: " + host;
    return l;
  }
  Socket sock(::socket(AF_INET, SOCK_STREAM, 0));
  if (!sock.valid()) {
    if (error != nullptr) *error = std::string("socket(): ") + strerror(errno);
    return l;
  }
  const int one = 1;
  setsockopt(sock.fd(), SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  if (::bind(sock.fd(), reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    if (error != nullptr) {
      *error = "bind " + host + ":" + std::to_string(port) + ": " + strerror(errno);
    }
    return l;
  }
  if (::listen(sock.fd(), 64) < 0) {
    if (error != nullptr) *error = std::string("listen(): ") + strerror(errno);
    return l;
  }
  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  if (getsockname(sock.fd(), reinterpret_cast<sockaddr*>(&bound), &len) < 0) {
    if (error != nullptr) *error = std::string("getsockname(): ") + strerror(errno);
    return l;
  }
  l.sock_ = std::move(sock);
  l.port_ = ntohs(bound.sin_port);
  return l;
}

Socket Listener::accept(int timeout_ms) {
  if (!sock_.valid()) return Socket();
  if (poll_one(sock_.fd(), POLLIN, timeout_ms) <= 0) return Socket();
  const int fd = ::accept(sock_.fd(), nullptr, nullptr);
  if (fd < 0) return Socket();
  const int one = 1;
  setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return Socket(fd);
}

bool send_all(int fd, std::string_view data, int timeout_ms) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(timeout_ms);
  std::size_t off = 0;
  while (off < data.size()) {
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
                          deadline - std::chrono::steady_clock::now())
                          .count();
    if (left <= 0) return false;
    if (poll_one(fd, POLLOUT, static_cast<int>(left)) <= 0) return false;
    const ssize_t n =
        ::send(fd, data.data() + off, data.size() - off, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK) continue;
      return false;
    }
    off += static_cast<std::size_t>(n);
  }
  return true;
}

RecvStatus recv_some(int fd, std::string* out, std::size_t cap, int timeout_ms) {
  const int rc = poll_one(fd, POLLIN, timeout_ms);
  if (rc < 0) return RecvStatus::kError;
  if (rc == 0) return RecvStatus::kTimeout;
  std::string buf(cap, '\0');
  const ssize_t n = ::recv(fd, buf.data(), buf.size(), 0);
  if (n == 0) return RecvStatus::kClosed;
  if (n < 0) {
    if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK) {
      return RecvStatus::kTimeout;
    }
    return RecvStatus::kError;
  }
  out->append(buf.data(), static_cast<std::size_t>(n));
  return RecvStatus::kData;
}

}  // namespace dts::dist
