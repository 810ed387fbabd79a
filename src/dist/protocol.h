// Message vocabulary of the distributed campaign protocol. Every message is
// one flat JSON object (the obs/jsonl.h subset, same grammar as the run
// journal) carried in one wire frame (dist/wire.h).
//
// Flow — worker connects, then strictly alternates with the coordinator:
//
//   worker                        coordinator
//   HELLO {proto}            ->
//                            <-   WELCOME {campaign identity + digest}
//   READY {digest}           ->        (worker accepted the campaign)
//                            <-   LEASE {lease, indices, fault ids, digest}
//   RESULT {lease, record}   ->        (one per executed fault, streamed)
//   HEARTBEAT {lease}        ->        (liveness while a lease is open)
//   READY {digest}           ->        (lease complete, next please)
//                            <-   DONE            (campaign complete)
//
// The RESULT record is the only thing a worker reports about a run. The
// coordinator hands each accepted record to the campaign's one run sink,
// which derives every per-run metric, trace event and status row from it,
// exactly as for a run executed in-process; a worker keeps no metrics.
//
// Campaign identity validation: WELCOME carries the sweep digest
// (plan::sweep_digest — an order-sensitive fingerprint of every fault id).
// The worker echoes it in READY, and every LEASE repeats it; either side
// drops the connection on a mismatch, so a worker can never execute leases
// from a campaign other than the one it accepted, and a coordinator never
// accepts results from a worker that mis-validated.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "exec/journal.h"
#include "exec/sink.h"
#include "obs/trace.h"

namespace dts::dist {

/// Protocol revision; bumped on any incompatible message change. v2 adds
/// the TELEMETRY message and Welcome.telemetry_ms; v3 makes RESULT carry the
/// whole run record (a v2 worker's results lack tier, rt, fm and spans); v4
/// adds Welcome.trace and Welcome.forensics_depth (a v3 worker would run
/// untraced and return records without forensics dumps); v5 drops TELEMETRY
/// and Welcome.telemetry_ms again (the coordinator counts each run from its
/// RESULT record).
constexpr std::uint64_t kProtocolVersion = 5;

enum class MsgType {
  kHello,
  kWelcome,
  kReady,
  kLease,
  kResult,
  kHeartbeat,
  kDone,
  kError,
};

/// The "type" field of a message, or nullopt for anything unrecognized.
std::optional<MsgType> message_type(const std::string& line);

// --- handshake -----------------------------------------------------------

struct Hello {
  std::uint64_t proto = kProtocolVersion;
};
std::string encode_hello(const Hello& m);
std::optional<Hello> decode_hello(const std::string& line);

/// Campaign identity, shipped coordinator -> worker. `config` is the full
/// serialized DTS configuration (core::serialize_config round-trips through
/// parse_config), so the worker reconstructs the coordinator's exact
/// RunConfig — client timeouts, machine scale, middleware tuning — not just
/// the workload name; the explicit identity fields exist for validation and
/// must match what the config parses to.
struct Welcome {
  std::uint64_t proto = kProtocolVersion;
  std::string workload;      // core::workload_by_name key
  int middleware = 0;        // mw::MiddlewareKind as int
  int watchd_version = 0;    // mw::WatchdVersion as int
  std::uint64_t seed = 0;    // campaign seed (per-run seeds derive from it)
  std::uint64_t fault_count = 0;
  std::uint64_t digest = 0;  // plan::sweep_digest of the fault list
  std::string config;        // core::serialize_config of the campaign config
  obs::TraceMode trace = obs::TraceMode::kOff;  // per-run syscall tracing
  std::uint64_t forensics_depth = 0;            // trace ring depth
};
std::string encode_welcome(const Welcome& m);
std::optional<Welcome> decode_welcome(const std::string& line);

struct Ready {
  std::uint64_t digest = 0;  // echo of Welcome.digest
};
std::string encode_ready(const Ready& m);
std::optional<Ready> decode_ready(const std::string& line);

// --- work ----------------------------------------------------------------

/// A shard lease: a contiguous slice of the remaining fault list. Indices
/// and ids travel together so the worker can sanity-check each fault parses
/// for the campaign's target image before executing anything.
struct Lease {
  std::uint64_t lease_id = 0;
  std::uint64_t digest = 0;
  std::vector<std::uint64_t> indices;   // positions in the fault list
  std::vector<std::string> fault_ids;   // same length as indices
};
std::string encode_lease(const Lease& m);
std::optional<Lease> decode_lease(const std::string& line);

/// One executed run, streamed back as it completes: the worker's run record
/// (exec::finish_run) unchanged, in the journal's field codec, wire-only
/// fields included — so the coordinator journals exactly what an in-process
/// run journals, and results.csv renders the per-request results and detail
/// the journal elides.
struct WireResult : exec::JournalRecord {
  std::uint64_t lease_id = 0;
};
std::string encode_result(const WireResult& m);
std::optional<WireResult> decode_result(const std::string& line);

using exec::decode_requests;
using exec::encode_requests;

struct Heartbeat {
  std::uint64_t lease_id = 0;
};
std::string encode_heartbeat(const Heartbeat& m);
std::optional<Heartbeat> decode_heartbeat(const std::string& line);

// --- control -------------------------------------------------------------

std::string encode_done();

struct ProtocolError {
  std::string detail;
};
std::string encode_error(const std::string& detail);
std::optional<ProtocolError> decode_error(const std::string& line);

}  // namespace dts::dist
