#include "dist/worker.h"

#include <unistd.h>

#include <chrono>
#include <optional>

#include "core/config.h"
#include "dist/protocol.h"
#include "dist/socket.h"
#include "dist/wire.h"
#include "exec/sink.h"
#include "inject/fault.h"

namespace dts::dist {

namespace {

/// Blocking framed connection: one frame out, one frame in, each under the
/// worker's io deadline.
struct FramedConn {
  Socket sock;
  FrameDecoder decoder;
  int io_timeout_ms = 60000;

  bool write_msg(const std::string& payload) {
    return send_all(sock.fd(), encode_frame(payload), io_timeout_ms);
  }

  /// nullopt on timeout/close/protocol violation, with *why set.
  std::optional<std::string> read_msg(std::string* why) {
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::milliseconds(io_timeout_ms);
    for (;;) {
      if (auto frame = decoder.next()) return frame;
      if (!decoder.error().empty()) {
        *why = "protocol violation: " + decoder.error();
        return std::nullopt;
      }
      const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
                            deadline - std::chrono::steady_clock::now())
                            .count();
      if (left <= 0) {
        *why = "timed out waiting for the coordinator";
        return std::nullopt;
      }
      std::string chunk;
      switch (recv_some(sock.fd(), &chunk, 64 * 1024, static_cast<int>(left))) {
        case RecvStatus::kData:
          decoder.feed(chunk);
          break;
        case RecvStatus::kClosed:
          *why = "coordinator closed the connection";
          return std::nullopt;
        case RecvStatus::kTimeout:
          *why = "timed out waiting for the coordinator";
          return std::nullopt;
        case RecvStatus::kError:
          *why = "read error";
          return std::nullopt;
      }
    }
  }
};

int fail(std::string* error, int code, const std::string& why) {
  if (error != nullptr) *error = why;
  return code;
}

}  // namespace

int run_worker(const WorkerOptions& options, std::string* error) {
  std::string why;
  FramedConn conn;
  conn.io_timeout_ms = options.io_timeout_ms;
  conn.sock = tcp_connect(options.host, options.port, options.connect_timeout_ms,
                          options.connect_retries, &why);
  if (!conn.sock.valid()) return fail(error, 1, why);

  if (!conn.write_msg(encode_hello(Hello{}))) {
    return fail(error, 1, "cannot send hello");
  }
  const auto welcome_line = conn.read_msg(&why);
  if (!welcome_line) return fail(error, 1, why);
  const auto welcome = decode_welcome(*welcome_line);
  if (!welcome) return fail(error, 2, "bad welcome from coordinator");
  if (welcome->proto != kProtocolVersion) {
    conn.write_msg(encode_error("protocol version mismatch"));
    return fail(error, 2,
                "coordinator speaks protocol v" + std::to_string(welcome->proto));
  }

  // Campaign identity validation: reconstruct the exact run configuration
  // from the shipped config text and cross-check it against the explicit
  // identity fields. A worker that cannot reproduce the campaign's
  // configuration must not execute any of its leases.
  auto cfg = core::parse_config(welcome->config, &why);
  if (!cfg) {
    conn.write_msg(encode_error("bad campaign config: " + why));
    return fail(error, 2, "bad campaign config: " + why);
  }
  if (cfg->run.workload.name != welcome->workload ||
      static_cast<int>(cfg->run.middleware) != welcome->middleware ||
      static_cast<int>(cfg->run.watchd_version) != welcome->watchd_version ||
      cfg->campaign.seed != welcome->seed) {
    conn.write_msg(encode_error("campaign identity mismatch"));
    return fail(error, 2, "campaign identity mismatch between config and welcome");
  }

  if (!conn.write_msg(encode_ready(Ready{welcome->digest}))) {
    return fail(error, 1, "cannot send ready");
  }

  int runs_streamed = 0;
  auto last_send = std::chrono::steady_clock::now();
  for (;;) {
    const auto line = conn.read_msg(&why);
    if (!line) return fail(error, 1, why);
    const auto type = message_type(*line);
    if (type == MsgType::kDone) return 0;
    if (type == MsgType::kError) {
      const auto e = decode_error(*line);
      return fail(error, 2, "coordinator error: " + (e ? e->detail : *line));
    }
    if (type != MsgType::kLease) {
      conn.write_msg(encode_error("unexpected message"));
      return fail(error, 2, "unexpected message from coordinator: " + *line);
    }
    const auto lease = decode_lease(*line);
    if (!lease) return fail(error, 2, "bad lease from coordinator");
    if (lease->digest != welcome->digest) {
      // The lease belongs to a different campaign than the one this worker
      // accepted — refuse it rather than corrupt either campaign's results.
      conn.write_msg(encode_error("lease digest does not match accepted campaign"));
      return fail(error, 2, "lease digest mismatch");
    }

    for (std::size_t k = 0; k < lease->indices.size(); ++k) {
      const std::string& fault_id = lease->fault_ids[k];
      const auto spec =
          inject::parse_fault_id(cfg->run.workload.target_image, fault_id);
      if (!spec) {
        conn.write_msg(encode_error("unparseable fault id: " + fault_id));
        return fail(error, 2, "unparseable fault id: " + fault_id);
      }

      const auto now = std::chrono::steady_clock::now();
      if (std::chrono::duration_cast<std::chrono::milliseconds>(now - last_send)
              .count() >= options.heartbeat_ms) {
        if (!conn.write_msg(encode_heartbeat(Heartbeat{lease->lease_id}))) {
          return fail(error, 1, "cannot send heartbeat");
        }
        last_send = now;
      }

      // Seed derivation and syscall tracing identical to the in-process
      // executor: the record, forensics dump included, is what a serial sweep
      // computes for this fault, bit for bit apart from the lease in its
      // execution index.
      WireResult res;
      res.lease_id = lease->lease_id;
      exec::ExecutedRun run = exec::execute_fault(
          cfg->run, welcome->seed, *spec,
          {welcome->digest, lease->lease_id, lease->indices[k]}, welcome->trace,
          welcome->forensics_depth);
      static_cast<exec::JournalRecord&>(res) = std::move(run.record);
      if (!conn.write_msg(encode_result(res))) {
        return fail(error, 1, "cannot stream result");
      }
      last_send = std::chrono::steady_clock::now();

      ++runs_streamed;
      if (options.crash_after_runs >= 0 && runs_streamed >= options.crash_after_runs) {
        // Crash simulation for the reassignment tests: no goodbye, no flush —
        // the coordinator sees a mid-shard disconnect.
        _exit(3);
      }
    }

    if (!conn.write_msg(encode_ready(Ready{welcome->digest}))) {
      return fail(error, 1, "cannot send ready");
    }
  }
}

}  // namespace dts::dist
