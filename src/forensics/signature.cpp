#include "forensics/signature.h"

#include <algorithm>
#include <cstdio>

#include "inject/fault_class.h"

namespace dts::forensics {

namespace {

std::uint64_t fold(std::uint64_t digest, const std::string& s) {
  for (unsigned char c : s) {
    digest = (digest ^ c) * 1099511628211ull;
  }
  // Fold the terminator too, so ("ab","c") and ("a","bc") differ.
  return (digest ^ 0xffu) * 1099511628211ull;
}

}  // namespace

std::uint64_t signature_digest(const SignatureKey& key) {
  std::uint64_t d = 14695981039346656037ull;
  d = fold(d, key.fault_class);
  d = fold(d, key.call_context);
  d = fold(d, key.outcome);
  d = fold(d, key.span);
  // The tier axis appeared with multi-tier topologies, the path axis with
  // request tracing; folding each only when set keeps every digest minted
  // before its axis existed byte-identical to before.
  if (!key.tier.empty()) d = fold(d, key.tier);
  if (!key.path.empty()) d = fold(d, key.path);
  return d;
}

std::string signature_id(const SignatureKey& key) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(signature_digest(key)));
  return buf;
}

std::string detection_span(const core::RunResult& run) {
  if (run.restarts > 0 && run.retries > 0) return "restart+retry";
  if (run.restarts > 0) return "restart";
  if (run.retries > 0) return "retry";
  return "none";
}

SignatureKey signature_of(const core::RunResult& run,
                          const std::string& call_context) {
  SignatureKey key;
  // The operator+temporal axis rides in the id tail ("zero@every2", "drop"),
  // so intermittent and single-shot corruptions of the same site cluster
  // separately. Result-side faults (param_index -1) have no parameter class;
  // "result" names the axis they corrupt instead of "unclassified".
  const auto cls = inject::classify(run.fault.fn, run.fault.param_index);
  const std::string id = run.fault.id();
  const std::size_t colon = id.rfind(':');
  const std::string op_tail = colon == std::string::npos
                                  ? std::string(inject::to_string(run.fault.type))
                                  : id.substr(colon + 1);
  key.fault_class =
      std::string(cls ? inject::to_string(*cls)
                      : (run.fault.param_index < 0 ? "result" : "unclassified")) +
      ":" + op_tail;
  if (!call_context.empty()) {
    key.call_context = call_context;
  } else if (run.activated) {
    // Pre-v4 record of a fired fault: the static injection point is the best
    // context available — "ReadFile.hFile#1" (the fault id minus its type).
    key.call_context = colon == std::string::npos ? id : id.substr(0, colon);
  } else {
    key.call_context = "-";  // never fired: there is no corrupted call
  }
  key.outcome = std::string(core::outcome_code(run.outcome));
  key.span = detection_span(run);
  key.tier = run.fault.tier;
  if (run.rtrace && run.rtrace->digest != 0) {
    key.path = obs::rtrace::digest_hex(run.rtrace->digest);
  }
  return key;
}

SignatureKey unparsed_signature() {
  SignatureKey key;
  key.fault_class = "unparsed";
  key.call_context = "-";
  key.outcome = "unparsed";
  key.span = "-";
  return key;
}

void SignatureIndex::add(const SignatureKey& key, const std::string& fault_id,
                         const std::string& exec_index,
                         const std::string& campaign) {
  const std::string id = signature_id(key);
  Entry& e = clusters_[id];
  if (e.cluster.count == 0) {
    e.cluster.key = key;
    e.cluster.id = id;
    e.cluster.example_fault = fault_id;
    e.cluster.example_xi = exec_index;
  }
  ++e.cluster.count;
  ++total_;
  if (!campaign.empty()) e.campaigns.insert(campaign);
}

std::vector<SignatureCluster> SignatureIndex::ranked() const {
  std::vector<SignatureCluster> out;
  out.reserve(clusters_.size());
  for (const auto& [id, e] : clusters_) {
    SignatureCluster c = e.cluster;
    c.campaigns = e.campaigns.size();
    out.push_back(std::move(c));
  }
  std::sort(out.begin(), out.end(),
            [](const SignatureCluster& a, const SignatureCluster& b) {
              const bool af = a.key.outcome == "failure";
              const bool bf = b.key.outcome == "failure";
              if (af != bf) return af;  // failures first: they get debugged
              if (a.count != b.count) return a.count > b.count;
              return a.id < b.id;
            });
  return out;
}

}  // namespace dts::forensics
