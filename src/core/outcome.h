// Run outcomes — the paper's five-way classification (§3), plus the Fig. 4
// refinement splitting failures into wrong-response and no-response.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "inject/fault.h"
#include "obs/rtrace/rtrace.h"
#include "sim/time.h"

namespace dts::core {

enum class Outcome {
  kNormalSuccess,        // correct responses, no restart, no retries
  kRestartSuccess,       // middleware restarted the server; no retries needed
  kRestartRetrySuccess,  // restart + at least one client retry
  kRetrySuccess,         // at least one client retry, no restart
  kFailure,              // some request never got a correct response
};

constexpr Outcome kAllOutcomes[] = {
    Outcome::kNormalSuccess, Outcome::kRestartSuccess, Outcome::kRestartRetrySuccess,
    Outcome::kRetrySuccess, Outcome::kFailure,
};

std::string_view to_string(Outcome o);
std::string_view short_label(Outcome o);  // for table columns

/// The machine-readable outcome code, one vocabulary for run lines, metric
/// labels, /status, forensics dumps and failure signatures: "normal",
/// "restart", "restart_retry", "retry", "failure".
std::string_view outcome_code(Outcome o);
/// Parses an outcome_code(); nullopt for anything else.
std::optional<Outcome> outcome_from_code(std::string_view code);

/// One client request's fate across its (up to three) attempts.
struct RequestResult {
  bool ok = false;
  int attempts = 0;
  bool any_response = false;  // something came back, even if wrong
  sim::Duration elapsed{};
  std::string detail;
};

/// What the client program observed (most DTS results are client-oriented,
/// paper §3).
struct ClientReport {
  std::vector<RequestResult> requests;
  bool finished = false;
  sim::TimePoint started_at{};
  sim::TimePoint finished_at{};

  bool all_ok() const;
  int total_retries() const;
  bool any_response() const;
};

/// User-visible outcome of a multi-tier run, as the propagation matrix
/// classifies it (src/topo/): in severity order.
constexpr std::string_view kTopoOutcomes[] = {
    "masked",    // every request correct, latency within the threshold
    "degraded",  // every request correct, but p95 latency over the threshold
    "partial",   // some requests failed, some succeeded (partial outage)
    "outage",    // no request succeeded (full outage)
};

/// Per-run statistics of the open-loop topology workload (absent for classic
/// single-machine runs). Latency percentiles are over successful requests.
struct TopoRunStats {
  std::string tier;          // the tier the fault targeted
  std::string user_outcome;  // one of kTopoOutcomes
  int requests_total = 0;    // offered requests
  int requests_ok = 0;       // correct replies
  std::int64_t p50_us = 0;
  std::int64_t p95_us = 0;
  std::int64_t p99_us = 0;
  std::int64_t offered_rps_milli = 0;  // the run's offered load

  friend bool operator==(const TopoRunStats&, const TopoRunStats&) = default;
};

/// Result of one fault-injection run.
struct RunResult {
  inject::FaultSpec fault;
  bool activated = false;  // the armed fault actually fired

  Outcome outcome = Outcome::kFailure;
  bool response_received = false;  // failures: wrong response vs none (Fig. 4)
  sim::Duration response_time{};   // workload start -> client completion
  int restarts = 0;                // middleware-initiated restarts observed
  int retries = 0;
  bool client_finished = false;
  std::string detail;  // e.g. the target's crash reason

  /// Total simulated time the run consumed (start to settle). Observability
  /// only — never serialized into campaign files, so outputs stay
  /// byte-identical whether or not anyone reads it.
  sim::Duration sim_elapsed{};

  /// Per-request detail (paper §3: "the specific response to each individual
  /// request") — one entry per workload request, in order.
  std::vector<RequestResult> requests;

  /// Multi-tier workload statistics; engaged only for topology campaigns.
  std::optional<TopoRunStats> topo;

  /// Causal request trace (obs/rtrace/); engaged only for topology runs
  /// whose trace the journal keeps (every run under rtrace = all, the failed
  /// or unmasked ones under failures). Never part of run-line serialization —
  /// the journal carries it as the optional v7 "rt" trailer instead.
  std::optional<obs::rtrace::RunTrace> rtrace;

  /// One-line log form.
  std::string summary() const;
};

}  // namespace dts::core
