// One-command failure replay from a journal record. Every campaign run is
// deterministic given (campaign seed, fault id) — the property the whole
// executor stack is built on — so a journal record plus the campaign
// configuration is a complete recipe for re-executing the run. Replay
// rebuilds the RunConfig (from the v4 header's embedded config when present,
// else from the JournalKey identity fields and defaults), pins the tracer on
// at maximum depth, re-executes, and compares outcome, run line, trace
// digest and corrupted-call context against the journaled values.
//
// A mismatch is the interesting result: the journaled run and the replayed
// run were fed identical inputs, so divergence means ntsim itself was
// nondeterministic (or the journal was produced by a different build) —
// replay doubles as the simulator's nondeterminism detector. This holds
// regardless of how the journal was produced: --jobs=N, --snapshots=on and
// distributed runs all journal results proven byte-identical to in-process
// serial execution, so replay always re-executes as a plain full run (a
// synthesized record replays as the full run it stands for).
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "core/run.h"
#include "exec/journal.h"

namespace dts::forensics {

struct ReplayOptions {
  /// Trace-ring depth for the replayed run (the forensics dump tail).
  std::size_t trace_depth = 512;
};

struct ReplayResult {
  core::RunResult run;          // the replayed run's result
  std::string run_line;         // serialize_run_line(run)
  std::uint64_t trace_digest = 0;
  std::string call_context;     // corrupted-call context (empty: never fired)
  std::string forensics;        // full forensics dump of the replayed run
  std::string config_source;    // "journal header (v4)" / "journal key defaults"
  std::uint64_t rtrace_digest = 0;  // replayed propagation-path digest (v7)

  // Comparisons against the journal record. Digest/context comparisons are
  // vacuously true when the record predates v4 (no "td"/"cc" fields); the
  // rtrace comparison is vacuously true when the record carries no "rt" (v7).
  bool outcome_match = false;
  bool run_line_match = false;
  bool trace_digest_match = false;
  bool call_context_match = false;
  bool rtrace_digest_match = false;
  std::string journal_outcome;  // the record's outcome label, for display

  bool matches() const {
    return outcome_match && run_line_match && trace_digest_match &&
           call_context_match && rtrace_digest_match;
  }
};

/// Finds the record `selector` names: a full execution index ("digest/lease/
/// index"), a bare fault index ("17"), or a fault id. First match wins (the
/// executor's first-record-wins dedup rule). Nullptr with *error when absent.
const exec::JournalRecord* find_record(const exec::JournalFile& file,
                                       const std::string& selector,
                                       std::string* error);

/// Rebuilds the run configuration a journal's campaign used. Prefers the v4
/// embedded config; falls back to the JournalKey identity fields over
/// defaults. *source names which path was taken. Nullopt with *error when
/// the workload is unknown or the embedded config fails to parse.
std::optional<core::RunConfig> config_from_journal(const exec::JournalFile& file,
                                                   std::string* source,
                                                   std::string* error);

/// Re-executes `rec` and compares. Nullopt with *error when the record's
/// fault id or run line cannot be parsed (nothing to compare against).
std::optional<ReplayResult> replay_record(const exec::JournalFile& file,
                                          const exec::JournalRecord& rec,
                                          const ReplayOptions& opts,
                                          std::string* error);

}  // namespace dts::forensics
