#include "plan/plan.h"

#include <charconv>
#include <sstream>

#include "ntsim/kernel32_registry.h"
#include "obs/jsonl.h"

namespace dts::plan {

namespace {

// Plan files parse with inject::parse_fault_id_any — unlike the run-facing
// parser it accepts catalogue-only (unimplemented) functions: the raw sweep —
// and therefore every plan file — contains them as function_uncalled prunes,
// while run-facing fault lists rightly reject them as non-injectable.
std::optional<inject::FaultSpec> parse_plan_fault_id(std::string_view target_image,
                                                     std::string_view id) {
  return inject::parse_fault_id_any(target_image, id);
}

}  // namespace

std::string_view to_string(PruneReason r) {
  switch (r) {
    case PruneReason::kFunctionUncalled: return "function_uncalled";
    case PruneReason::kInvocationNotReached: return "invocation_not_reached";
    case PruneReason::kInertCorruption: return "inert_corruption";
  }
  return "?";
}

std::optional<PruneReason> prune_reason_from_string(std::string_view s) {
  for (PruneReason r : kAllPruneReasons) {
    if (s == to_string(r)) return r;
  }
  return std::nullopt;
}

std::string to_string(const StratumKey& key) {
  std::string out{nt::to_string(key.fn)};
  out += '/';
  out += inject::to_string(key.type);
  return out;
}

std::size_t Plan::executable_count() const {
  std::size_t n = 0;
  for (const auto& e : entries) n += e.disposition == Disposition::kExecute ? 1 : 0;
  return n;
}

std::size_t Plan::duplicate_count() const {
  std::size_t n = 0;
  for (const auto& e : entries) n += e.disposition == Disposition::kDuplicate ? 1 : 0;
  return n;
}

std::size_t Plan::pruned_count() const {
  std::size_t n = 0;
  for (const auto& e : entries) n += e.disposition == Disposition::kPruned ? 1 : 0;
  return n;
}

std::map<PruneReason, std::size_t> Plan::prune_histogram() const {
  std::map<PruneReason, std::size_t> hist;
  for (const auto& e : entries) {
    if (e.disposition == Disposition::kPruned) ++hist[e.reason];
  }
  return hist;
}

std::size_t Plan::reachable_count() const {
  std::size_t n = 0;
  for (const auto& e : entries) {
    if (e.disposition == Disposition::kPruned && e.reason == PruneReason::kFunctionUncalled) {
      continue;
    }
    ++n;
  }
  return n;
}

double Plan::predicted_savings() const {
  const std::size_t reachable = reachable_count();
  if (reachable == 0) return 0.0;
  return static_cast<double>(reachable - executable_count()) /
         static_cast<double>(reachable);
}

std::vector<Stratum> Plan::strata() const {
  std::map<StratumKey, std::vector<std::size_t>> grouped;
  for (std::size_t i = 0; i < entries.size(); ++i) {
    const PlanEntry& e = entries[i];
    if (e.disposition != Disposition::kExecute) continue;
    grouped[StratumKey{e.fault.fn, e.fault.type}].push_back(i);
  }
  std::vector<Stratum> out;
  out.reserve(grouped.size());
  for (auto& [key, members] : grouped) out.push_back({key, std::move(members)});
  return out;
}

std::string Plan::serialize() const {
  std::ostringstream out;
  out << "{\"dts_plan\":1,\"workload\":\"" << obs::json_escape(workload)
      << "\",\"image\":\"" << obs::json_escape(target_image)
      << "\",\"middleware\":" << middleware << ",\"watchd_version\":" << watchd_version
      << ",\"seed\":" << seed << ",\"iterations\":" << iterations
      << ",\"entries\":" << entries.size() << "}\n";
  for (const auto& e : entries) {
    out << "{\"fault\":\"" << obs::json_escape(e.fault.id()) << "\"";
    switch (e.disposition) {
      case Disposition::kExecute:
        out << ",\"d\":\"x\"";
        break;
      case Disposition::kDuplicate:
        out << ",\"d\":\"dup\",\"of\":" << e.duplicate_of;
        break;
      case Disposition::kPruned:
        out << ",\"d\":\"prune\",\"why\":\"" << to_string(e.reason) << "\"";
        break;
    }
    if (e.golden_known) {
      out << ",\"site\":" << e.call_site << ",\"golden\":" << e.golden_value;
    }
    out << "}\n";
  }
  return out.str();
}

std::optional<Plan> Plan::parse(const std::string& text, std::string* error) {
  auto fail = [&](const std::string& msg) {
    if (error != nullptr) *error = msg;
    return std::nullopt;
  };
  std::istringstream in(text);
  std::string line;
  if (!std::getline(in, line)) return fail("empty plan file");

  std::uint64_t version = 0;
  if (!obs::json_uint_field(line, "dts_plan", &version) || version != 1) {
    return fail("not a DTS plan-cache file");
  }
  Plan plan;
  std::uint64_t mw = 0, wv = 0, iters = 0, count = 0;
  if (!obs::json_string_field(line, "workload", &plan.workload) ||
      !obs::json_string_field(line, "image", &plan.target_image) ||
      !obs::json_uint_field(line, "middleware", &mw) ||
      !obs::json_uint_field(line, "watchd_version", &wv) ||
      !obs::json_uint_field(line, "seed", &plan.seed) ||
      !obs::json_uint_field(line, "iterations", &iters) ||
      !obs::json_uint_field(line, "entries", &count)) {
    return fail("malformed plan header");
  }
  plan.middleware = static_cast<int>(mw);
  plan.watchd_version = static_cast<int>(wv);
  plan.iterations = static_cast<int>(iters);
  plan.entries.reserve(count);

  int line_no = 1;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty()) continue;
    auto fail_line = [&](const std::string& msg) {
      if (error != nullptr) {
        *error = "line " + std::to_string(line_no) + ": " + msg;
      }
      return std::nullopt;
    };
    PlanEntry e;
    std::string fault_id, d;
    if (!obs::json_string_field(line, "fault", &fault_id) ||
        !obs::json_string_field(line, "d", &d)) {
      return fail_line("malformed plan entry");
    }
    auto spec = parse_plan_fault_id(plan.target_image, fault_id);
    if (!spec) return fail_line("bad fault id '" + fault_id + "'");
    e.fault = *spec;
    if (d == "x") {
      e.disposition = Disposition::kExecute;
    } else if (d == "dup") {
      e.disposition = Disposition::kDuplicate;
      std::uint64_t of = 0;
      if (!obs::json_uint_field(line, "of", &of) || of >= plan.entries.size() ||
          plan.entries[of].disposition != Disposition::kExecute) {
        return fail_line("duplicate entry without a valid earlier representative");
      }
      e.duplicate_of = static_cast<std::size_t>(of);
    } else if (d == "prune") {
      e.disposition = Disposition::kPruned;
      std::string why;
      if (!obs::json_string_field(line, "why", &why)) {
        return fail_line("pruned entry without a reason");
      }
      auto reason = prune_reason_from_string(why);
      if (!reason) return fail_line("unknown prune reason '" + why + "'");
      e.reason = *reason;
    } else {
      return fail_line("unknown disposition '" + d + "'");
    }
    std::uint64_t golden = 0;
    if (obs::json_uint_field(line, "site", &e.call_site)) {
      if (!obs::json_uint_field(line, "golden", &golden)) {
        return fail_line("call site without a golden value");
      }
      e.golden_known = true;
      e.golden_value = static_cast<nt::Word>(golden);
    }
    plan.entries.push_back(std::move(e));
  }
  if (plan.entries.size() != count) {
    return fail("truncated plan: header promises " + std::to_string(count) +
                " entries, file has " + std::to_string(plan.entries.size()));
  }
  return plan;
}

namespace {

constexpr std::uint64_t kFnvOffset = 1469598103934665603ull;
constexpr std::uint64_t kFnvPrime = 1099511628211ull;

void fnv_mix(std::uint64_t* h, std::string_view bytes) {
  for (unsigned char c : bytes) {
    *h ^= c;
    *h *= kFnvPrime;
  }
  // Separator between fields, so concatenation cannot alias across ids.
  *h ^= 0xff;
  *h *= kFnvPrime;
}

}  // namespace

// Both digests write every id through one buffer, which stops growing after
// the longest id.
std::uint64_t sweep_digest(const inject::FaultList& list) {
  std::uint64_t h = kFnvOffset;
  std::string id;
  for (const inject::FaultSpec& f : list.faults) {
    f.write_id(&id);
    fnv_mix(&h, id);
  }
  return h;
}

std::uint64_t sweep_digest(const Plan& plan) {
  std::uint64_t h = kFnvOffset;
  std::string id;
  for (const PlanEntry& e : plan.entries) {
    e.fault.write_id(&id);
    fnv_mix(&h, id);
    const char d = static_cast<char>('0' + static_cast<int>(e.disposition));
    fnv_mix(&h, std::string_view(&d, 1));
  }
  return h;
}

}  // namespace dts::plan
