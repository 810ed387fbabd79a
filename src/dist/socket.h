// POSIX TCP plumbing for distributed campaigns: a move-only fd wrapper,
// connect with timeout and bounded retry, a listener, and timed
// whole-buffer writes / single reads.
//
// Everything here is loopback-friendly and test-driven: ports default to
// ephemeral (bind port 0, ask the kernel), reads and writes carry explicit
// millisecond deadlines, and no call ever raises SIGPIPE.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

namespace dts::dist {

/// Move-only owner of a socket file descriptor.
class Socket {
 public:
  Socket() = default;
  explicit Socket(int fd) : fd_(fd) {}
  ~Socket();

  Socket(Socket&& other) noexcept;
  Socket& operator=(Socket&& other) noexcept;
  Socket(const Socket&) = delete;
  Socket& operator=(const Socket&) = delete;

  int fd() const { return fd_; }
  bool valid() const { return fd_ >= 0; }
  void close();

 private:
  int fd_ = -1;
};

/// "host:port" → (host, port). Returns nullopt on a missing/invalid port.
/// Port 0 is invalid for connect targets; listeners pass allow_port_zero to
/// accept it as "bind an ephemeral port".
std::optional<std::pair<std::string, std::uint16_t>> parse_host_port(
    const std::string& addr, bool allow_port_zero = false);

/// Connects to host:port, waiting at most `timeout_ms` per attempt and
/// retrying a refused/timed-out connection up to `retries` further times
/// (with a short linear backoff — the worker typically races the
/// coordinator's listen()). Returns an invalid Socket with *error set when
/// every attempt fails.
Socket tcp_connect(const std::string& host, std::uint16_t port, int timeout_ms,
                   int retries, std::string* error);

/// Listening TCP socket. Binds immediately; port 0 picks an ephemeral port
/// (read it back via port()).
class Listener {
 public:
  /// Returns an unbound Listener with *error set on failure.
  static Listener open(const std::string& host, std::uint16_t port,
                       std::string* error);

  bool valid() const { return sock_.valid(); }
  int fd() const { return sock_.fd(); }
  std::uint16_t port() const { return port_; }

  /// Accepts one pending connection, waiting at most timeout_ms (0 = just
  /// poll). Invalid Socket when nothing arrived.
  Socket accept(int timeout_ms);

 private:
  Socket sock_;
  std::uint16_t port_ = 0;
};

/// Writes all of `data`, tolerating short writes, within timeout_ms overall.
bool send_all(int fd, std::string_view data, int timeout_ms);

/// One read of up to `cap` bytes into `out` (appended), waiting at most
/// timeout_ms for readability.
enum class RecvStatus { kData, kClosed, kTimeout, kError };
RecvStatus recv_some(int fd, std::string* out, std::size_t cap, int timeout_ms);

}  // namespace dts::dist
