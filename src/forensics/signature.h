// Failure signatures: the stable identity of a failure MODE, as opposed to
// the identity of a single run. Two runs — possibly from different campaigns,
// fault models, or fleet topologies — share a signature when the same KIND of
// corruption (fault class, not function name), injected at the same dynamic
// call context, produced the same outcome through the same detection span.
// Clustering a million-run journal by signature collapses it into the handful
// of distinct failure modes a human actually debugs ("Can My Microservice
// Tolerate an Unreliable Database?" makes the case that resilience results
// only become actionable in this collapsed form).
//
// The signature digest is FNV-1a over the four key strings, so it is stable
// across processes, campaigns and journal versions — the property `ntdts
// report` needs to merge clusters across files. Every merged journal record
// maps to exactly one signature (records whose run line cannot be parsed get
// the reserved "unparsed" signature), so cluster counts reconcile exactly
// against journal record totals.
#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "core/outcome.h"

namespace dts::forensics {

/// The four axes of a failure signature. All strings — the digest and the
/// report tables render them verbatim.
struct SignatureKey {
  std::string fault_class;   // "file-handle:zero" — WHAT was corrupted, how
  std::string call_context;  // "ReadFile@417#1/89ab..." — WHERE it landed
                             // ("-" when the fault never fired)
  std::string outcome;       // five-outcome label ("normal".."failure")
  std::string span;          // detection span: which recovery layers engaged
                             // ("none", "restart", "retry", "restart+retry")
  std::string tier;          // topology tier the fault targeted; "" for
                             // classic runs (folded into the digest only when
                             // non-empty, so classic digests never change)
  std::string path;          // propagation-path digest (16-hex) of the run's
                             // request trace; "" for untraced runs (folded
                             // only when non-empty, same guarantee as tier) —
                             // splits "db fault masked by app failover" from
                             // "db fault surfaced as outage" clusters

  friend bool operator==(const SignatureKey&, const SignatureKey&) = default;
};

/// FNV-1a over the key strings; `signature_id` is its 16-hex rendering (the
/// form journals, status boards and report tables share).
std::uint64_t signature_digest(const SignatureKey& key);
std::string signature_id(const SignatureKey& key);

/// Which recovery layers engaged before the outcome settled.
std::string detection_span(const core::RunResult& run);

/// Builds the signature key of one completed run. `call_context` is the
/// interceptor's corrupted-call context when known (journal "cc" / a live
/// interceptor); when empty but the fault activated, a coarser context is
/// synthesized from the fault spec so pre-v4 journals still cluster. The
/// path axis is the digest of `run.rtrace`, which exec::result_from_record
/// rebuilds from the record's "rt" payload.
SignatureKey signature_of(const core::RunResult& run,
                          const std::string& call_context);

/// The reserved signature for journal records whose run line cannot be
/// parsed — kept so cluster totals still reconcile with record counts.
SignatureKey unparsed_signature();

/// One cluster: a signature plus everything needed to rank and exemplify it.
struct SignatureCluster {
  SignatureKey key;
  std::string id;            // signature_id(key)
  std::uint64_t count = 0;   // runs carrying this signature
  std::uint64_t campaigns = 0;  // distinct campaigns it appeared in
  std::string example_fault;    // first fault id seen with this signature
  std::string example_xi;       // its execution index (may be empty)
};

/// Accumulates runs into clusters. Deterministic: ranking is failures first,
/// then count descending, then id — independent of insertion order.
class SignatureIndex {
 public:
  void add(const SignatureKey& key, const std::string& fault_id,
           const std::string& exec_index, const std::string& campaign);

  /// Ranked clusters (see above). Σ count == total().
  std::vector<SignatureCluster> ranked() const;

  /// Total runs accumulated — the reconciliation figure.
  std::uint64_t total() const { return total_; }

  std::size_t distinct() const { return clusters_.size(); }

 private:
  struct Entry {
    SignatureCluster cluster;
    std::set<std::string> campaigns;
  };
  std::map<std::string, Entry> clusters_;  // id -> entry
  std::uint64_t total_ = 0;
};

}  // namespace dts::forensics
