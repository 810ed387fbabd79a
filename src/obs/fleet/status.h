// Live campaign status for the coordinator's HTTP endpoint: a small
// mutex-guarded board the campaign loop updates (cheap copies, no I/O) and
// the endpoint thread renders as JSON on demand. The two sides never share
// anything but this board, which is what keeps a slow or hostile scraper
// from ever blocking the coordinator poll loop.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "obs/fleet/events.h"

namespace dts::obs::fleet {

struct CampaignStatus {
  std::uint64_t done = 0;
  std::uint64_t total = 0;
  std::uint64_t executed = 0;
  std::uint64_t reused = 0;
  double elapsed_s = 0.0;
  double runs_per_sec = 0.0;
  double eta_s = 0.0;
};

struct WorkerRow {
  int worker_id = 0;
  std::uint64_t runs = 0;
  double runs_per_sec = 0.0;
  std::uint64_t lease_id = 0;       // 0 = idle
  std::uint64_t outstanding = 0;    // leased faults with no result yet
  std::uint64_t failures = 0;       // its accepted results that failed
  std::string recent_failures;      // space-joined fault ids, newest last
  bool gone = false;                // disconnected; the row keeps its totals
};

struct RunEntry {
  std::uint64_t index = 0;
  std::string fault_id;
  std::string outcome;  // executor outcome label ("normal", "failure", ...)
  std::uint64_t wall_us = 0;
  int worker_id = -1;  // -1 = in-process
  std::uint64_t lease_id = 0;
  std::string exec_index;
};

/// One failure signature observed on a completed run (see
/// forensics/signature.h — the board stores rendered strings only, so the
/// HTTP layer stays free of forensics types).
struct SignatureEntry {
  std::string id;  // 16-hex signature digest
  std::string fault_class;
  std::string call_context;
  std::string outcome;
  std::string span;
  std::string example_fault;
  std::string example_xi;
};

/// One traced multi-tier run (see obs/rtrace/) — again rendered strings and
/// counts only, so the HTTP layer stays free of rtrace types.
struct TraceEntry {
  std::string fault_id;
  std::string tier;          // tier the fault targeted
  std::string user_outcome;  // "masked".."outage"
  std::string digest;        // 16-hex propagation-path digest
  std::size_t spans = 0;
  std::size_t requests = 0;
  bool injected = false;  // the firing was attributed to a span
};

class StatusBoard {
 public:
  /// Keeps the last `run_capacity` completed runs for /runs.
  explicit StatusBoard(std::size_t run_capacity = 512);

  void update_campaign(const CampaignStatus& s);
  void update_workers(std::vector<WorkerRow> rows);
  void record_run(RunEntry e);

  /// Accumulates one run's failure signature into the live cluster table.
  void record_signature(const SignatureEntry& e);

  /// Accumulates one multi-tier run's user-visible propagation outcome
  /// ("masked".."outage") against the tier its fault targeted. Classic runs
  /// never call this; /topology then reports an empty matrix.
  void record_topology(const std::string& tier, const std::string& outcome);

  /// /topology payload: the live per-tier propagation matrix plus a "total"
  /// that reconciles against the number of record_topology() calls.
  std::string topology_json() const;

  /// /status payload. When `events` is non-null its tail is embedded.
  std::string status_json(const FleetEventLog* events = nullptr) const;

  /// /runs payload: the retained journal tail, newest last, optionally
  /// filtered by worker id (as decimal text) and/or outcome label.
  std::string runs_json(const std::string& worker_filter,
                        const std::string& outcome_filter,
                        std::size_t limit = 100) const;

  /// Aggregate outcome counts over every record_run() so far.
  std::map<std::string, std::uint64_t> outcome_counts() const;

  /// /signatures payload: ranked clusters (failures first, then by count)
  /// with per-cluster counts and a "total" that reconciles against the
  /// number of record_signature() calls.
  std::string signatures_json(std::size_t limit = 64) const;

  /// Retains one traced run for /traces (same bounded tail policy as /runs).
  void record_trace(TraceEntry e);

  /// /traces payload: the retained traced-run tail, newest last, plus a
  /// "total" that reconciles against the number of record_trace() calls.
  std::string traces_json(std::size_t limit = 64) const;

 private:
  struct SignatureRow {
    SignatureEntry entry;
    std::uint64_t count = 0;
  };

  const std::size_t run_capacity_;
  mutable std::mutex mu_;
  CampaignStatus campaign_;
  std::vector<WorkerRow> workers_;
  std::deque<RunEntry> runs_;
  std::map<std::string, std::uint64_t> outcomes_;
  std::map<std::string, SignatureRow> signatures_;  // id -> row
  std::uint64_t signature_total_ = 0;
  std::map<std::string, std::map<std::string, std::uint64_t>> tier_outcomes_;
  std::uint64_t topo_total_ = 0;
  std::deque<TraceEntry> traces_;
  std::uint64_t trace_total_ = 0;
};

}  // namespace dts::obs::fleet
