// Resumable run journal: an append-only JSONL file with one record per
// completed fault-injection run, written as a campaign progresses. An
// interrupted campaign restarts from where it stopped by reloading the
// journal and executing only the missing faults — sound because every run is
// deterministic given the campaign seed and fault id (per-run seeds never
// depend on worker id or schedule).
//
// Format (one JSON object per line), schema version 5:
//   {"dts_journal":5,"workload":"Apache1","middleware":2,"watchd_version":3,
//    "seed":7,"faults":423,"config":"[test]\nworkload = Apache1\n..."}
//   {"i":17,"fault":"ReadFile.hFile#1:zero","called":1,
//    "run":"ReadFile.hFile#1:zero 1 failure 0 123456 0 0 1",
//    "wall_us":1832,"sim_us":414000000,"xi":"a3f1c0de9b24e871/4/17",
//    "td":"9b24e871a3f1c0de","cc":"ReadFile@417#1/89abcdef01234567",
//    "fx":"=== DTS forensics: ...\n..."}
//
// The "run" payload reuses the campaign-file run serialization
// (core::serialize_run_line); "called" records whether the target image
// called the injected function at all, which the executor needs to replay
// the paper-§4 skip-uncalled rule on resume.
//
// v2 adds per-run timings — "wall_us" (host wall clock; nondeterministic,
// observability only) and "sim_us" (simulated time consumed) — plus an
// optional "fx" forensics dump (the syscall-trace tail) on runs the trace
// mode selects. Planned campaigns (src/plan/) additionally tag each record
// with its sampling stratum as "st":"fn/type". v3 adds the causal execution
// index "xi":"campaign_digest/lease_id/fault_index" (obs/fleet/span.h) so
// every record names which campaign, which shard lease, and which fault
// produced it — the same identifier stamped into forensics dumps and trace
// events. v4 adds forensic replay fields (src/forensics/): the header gains
// an optional "config" carrying the full serialized campaign configuration
// (core::serialize_config) so `ntdts replay` can rebuild the exact RunConfig
// from the journal alone, and each record gains "td" (the interceptor's
// rolling trace digest, 16-hex — the run's trajectory fingerprint) and "cc"
// (the dynamic call context of the corrupted call, present only when the
// fault fired). v5 adds the fault-model axis (src/fault/): each record gains
// an optional "fm" carrying the model annotation
// "<operator-family>:<temporal>" (e.g. "oserror:transient", "paper:every2"),
// ELIDED for the default axis (paper operator, transient) so default-model
// journals differ from v4 only in the header version. `ntdts replay` uses it
// to refuse silently-transient replays of records whose fault id names a
// temporal mode but whose record predates the field. v6 adds the multi-tier
// topology axis (src/topo/): each record gains an optional "tier" naming the
// tier the fault targeted, ELIDED when empty — and the v6 header version is
// written only for topology campaigns, so single-tier journals stay
// byte-identical to v5. v7 adds causal request tracing (src/obs/rtrace/):
// each record gains an optional "rt" carrying the run's serialized request
// trace (propagation-path digest + per-hop spans, RunTrace::serialize), and
// the v7 header version is written only for topology campaigns with a
// non-off rtrace mode — classic journals stay v5 and untraced topology
// journals stay v6, both byte-identical to before. The reader is field-based
// and accepts versions 1–7: older files resume cleanly (missing fields stay
// zero/empty), and newer records with fields an older reader never knew
// about parse the same way.
//
// Every version may also carry "req" (per-request results, encode_requests),
// "detail" (the run's detail text) and "sp" (middleware spans, encode_spans),
// each elided when empty like every other optional field. The field-based
// reader has always parsed them, so they need no version of their own.
//
// The record is the one run record every execution path produces
// (exec/sink.h finish_run), the payload of the dist RESULT frame, which
// encodes it with the same field codec (write_record_fields), and the one
// source of a campaign's results: result_from_record rebuilds the RunResult
// of a fresh, synthesized, fleet or resumed run alike, and `ntdts report`
// reads records the same way.
#pragma once

#include <cstdint>
#include <fstream>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/outcome.h"
#include "obs/span.h"

namespace dts::exec {

/// "o1|x3" — ok/fail flag + attempt count per workload request, the two
/// per-request fields results.csv renders.
std::string encode_requests(const std::vector<core::RequestResult>& requests);
std::vector<core::RequestResult> decode_requests(const std::string& text);

/// "mscs.detection:1000:2500 mscs.recovery:2500:9000" — name and sim-time
/// bounds (microseconds) of each middleware span.
std::string encode_spans(const std::vector<obs::Span>& spans);
std::vector<obs::Span> decode_spans(const std::string& text);

/// Identity of the campaign a journal belongs to. Resuming is refused when
/// the on-disk header does not match: replaying another campaign's records
/// would silently corrupt results.
struct JournalKey {
  std::string workload;
  int middleware = 0;
  int watchd_version = 0;
  std::uint64_t seed = 0;
  std::size_t fault_count = 0;

  friend bool operator==(const JournalKey&, const JournalKey&) = default;
};

struct JournalRecord {
  std::size_t index = 0;   // position in the fault list
  std::string fault_id;    // sanity-checked against the list on resume
  bool fn_called = false;  // the target image called the injected function
  std::string run_line;    // core::serialize_run_line payload

  // v2 fields; zero/empty when reading a v1 journal.
  std::uint64_t wall_us = 0;  // host wall-clock time of the run (0 for a
                              // synthesized run, which does no work of its own)
  std::uint64_t sim_us = 0;   // simulated time the run consumed
  std::string forensics;      // syscall-trace dump (empty = not captured)
  std::string stratum;        // plan sampling stratum, "fn/type" (empty =
                              // not a planned campaign)

  // v3 field; empty when reading a v1/v2 journal.
  std::string exec_index;  // "campaign_digest/lease_id/fault_index"

  // v4 fields; zero/empty when reading an older journal.
  std::uint64_t trace_digest = 0;  // interceptor trajectory fingerprint
  std::string call_context;        // corrupted call's dynamic context
                                   // (empty = fault never fired)

  // v5 field; empty when reading an older journal AND for default-axis
  // faults (paper operator, transient) — fault::model_annotation form.
  std::string model;

  // v6 field; empty when reading an older journal AND for classic
  // single-tier campaigns — the topology tier the fault targeted.
  std::string tier;

  // v7 field; empty when reading an older journal, for untraced campaigns,
  // and for runs the rtrace mode elides — the serialized request trace
  // (obs::rtrace::RunTrace::serialize / ::parse).
  std::string rtrace;

  // Empty when the run has none, and in journals written before the fields
  // were journaled.
  std::string requests;  // encode_requests of the per-request results
  std::string detail;    // core::RunResult::detail
  std::string spans;     // encode_spans of the middleware spans
};

/// The record field codec the journal and the dist RESULT frame share:
/// appends `"i":..,"fault":..,...` (no braces) to *out, eliding empty
/// optional fields.
void write_record_fields(std::string* out, const JournalRecord& rec);

/// Parses what write_record_fields wrote (any mix of optional fields, so
/// older records and frames parse too). False when a required field is
/// missing.
bool read_record_fields(std::string_view line, JournalRecord* rec);

/// Rebuilds the RunResult a record describes: the run line plus sim time,
/// per-request results, detail and request trace. False when the run line
/// does not parse for `target_image`.
bool result_from_record(const JournalRecord& rec, const std::string& target_image,
                        core::RunResult* out);

/// Reads the records of an existing journal. A missing file yields an empty
/// vector (fresh start); a present file whose header does not match `key`
/// yields nullopt with *error set. Malformed trailing lines (the campaign
/// was killed mid-write) are skipped.
std::optional<std::vector<JournalRecord>> read_journal(const std::string& path,
                                                       const JournalKey& key,
                                                       std::string* error);

/// A journal read without a key to check against: the header as found on
/// disk plus every well-formed record. Used by `ntdts report`, which merges
/// journals from whatever campaigns the operator hands it.
struct JournalFile {
  JournalKey key;
  std::uint64_t version = 0;
  std::string config_text;  // v4 header "config" (serialized campaign
                            // configuration; empty in older journals)
  std::vector<JournalRecord> records;
};

/// Reads `path` as a journal of any supported version. Unlike read_journal a
/// missing file is an error here (nullopt with *error set) — the caller
/// named the file explicitly.
std::optional<JournalFile> read_journal_file(const std::string& path,
                                             std::string* error);

/// Append-only JSONL writer. Thread-safe; every record is flushed so a
/// killed campaign loses at most the in-flight line.
class RunJournal {
 public:
  /// Opens `path`. With append=false the file is truncated and a fresh
  /// header written; with append=true new records accumulate after the
  /// existing content (resume). `config_text`, when non-empty, is embedded
  /// in the v4 header so `ntdts replay` can rebuild the exact run
  /// configuration; it is informational and not part of the resume identity
  /// check (JournalKey). `version` is the schema version stamped into the
  /// header: 5 (the default, classic campaigns), 6 (topology campaigns) or
  /// 7 (topology campaigns with request tracing). Returns false with *error
  /// on I/O failure.
  bool open(const std::string& path, const JournalKey& key, bool append,
            std::string* error, const std::string& config_text = "",
            std::uint64_t version = 5);

  bool is_open() const { return out_.is_open(); }

  void append(const JournalRecord& rec);

 private:
  std::mutex mu_;
  std::ofstream out_;
};

}  // namespace dts::exec
