#include "core/campaign.h"

#include <charconv>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "core/config.h"
#include "exec/executor.h"
#include "fault/model.h"
#include "plan/profiler.h"
#include "plan/pruner.h"

namespace dts::core {

std::size_t WorkloadSetResult::activated_faults() const {
  std::size_t n = 0;
  for (const auto& r : runs) n += r.activated ? 1 : 0;
  return n;
}

std::map<Outcome, std::size_t> WorkloadSetResult::outcome_counts() const {
  std::map<Outcome, std::size_t> counts;
  for (const auto& r : runs) {
    if (r.activated) ++counts[r.outcome];
  }
  return counts;
}

double WorkloadSetResult::percent(Outcome o) const {
  const std::size_t total = activated_faults();
  if (total == 0) return 0.0;
  const auto counts = outcome_counts();
  auto it = counts.find(o);
  const std::size_t n = it == counts.end() ? 0 : it->second;
  return 100.0 * static_cast<double>(n) / static_cast<double>(total);
}

std::size_t WorkloadSetResult::failures_with_response() const {
  std::size_t n = 0;
  for (const auto& r : runs) {
    if (r.activated && r.outcome == Outcome::kFailure && r.response_received) ++n;
  }
  return n;
}

std::size_t WorkloadSetResult::failures_without_response() const {
  std::size_t n = 0;
  for (const auto& r : runs) {
    if (r.activated && r.outcome == Outcome::kFailure && !r.response_received) ++n;
  }
  return n;
}

std::string WorkloadSetResult::label() const {
  std::string out = base_config.workload.name;
  out += "/";
  if (base_config.middleware == mw::MiddlewareKind::kWatchd) {
    out += to_string(base_config.watchd_version);
  } else {
    out += to_string(base_config.middleware);
  }
  return out;
}

std::set<nt::Fn> profile_workload(const RunConfig& base, std::uint64_t seed) {
  RunConfig cfg = base;
  cfg.seed = sim::Rng::mix(seed, sim::Rng::hash("profile"));
  FaultInjectionRun run(cfg);
  (void)run.execute(std::nullopt);
  return run.activated_functions();
}

namespace {

/// Parses the campaign's model selection (empty = paper default); unknown
/// model names are a configuration error.
fault::ModelSet model_set_from(const CampaignOptions& options) {
  std::string error;
  auto set = fault::ModelSet::parse(options.models, &error);
  if (!set) throw std::runtime_error(error);
  return *set;
}

/// Activated-function set recovered from a plan: every function whose faults
/// were not pruned as uncalled (the pruner consulted the golden profile, so
/// this is the same set profile_workload produces for the same seed).
std::set<nt::Fn> activated_from_plan(const plan::Plan& p) {
  std::set<nt::Fn> out;
  for (const auto& e : p.entries) {
    if (e.disposition == plan::Disposition::kPruned &&
        e.reason == plan::PruneReason::kFunctionUncalled) {
      continue;
    }
    out.insert(e.fault.fn);
  }
  return out;
}

}  // namespace

inject::FaultList campaign_sweep(const RunConfig& base, const CampaignOptions& options,
                                 const std::set<nt::Fn>* functions) {
  // Capped lists sample evenly across the whole sweep rather than truncating:
  // a prefix slice would cover only the catalogue's first functions and badly
  // skew the outcome mix. The fault-model registry enumerates the sweep; the
  // paper default is byte-identical to the classic for_functions/full_sweep.
  inject::FaultList list = fault::build_sweep(base.workload.target_image,
                                              model_set_from(options), functions,
                                              options.iterations)
                               .sampled(options.max_faults);
  // Fault ids in topology campaigns carry the tier prefix ("db/ReadFile...")
  // so journals, plans and dist leases name the faulted tier explicitly.
  if (!base.topo.empty()) {
    const inject::Name tier = inject::Name::intern(base.topo.fault_tier);
    for (auto& f : list.faults) f.tier = tier;
  }
  return list;
}

plan::Plan build_campaign_plan(const RunConfig& base, const CampaignOptions& options) {
  if (options.plan.mode == plan::PlanOptions::Mode::kFromFile) {
    std::ifstream in(options.plan.plan_file);
    if (!in) {
      throw std::runtime_error("cannot open plan file: " + options.plan.plan_file);
    }
    std::stringstream buf;
    buf << in.rdbuf();
    std::string error;
    auto loaded = plan::Plan::parse(buf.str(), &error);
    if (!loaded) {
      throw std::runtime_error("bad plan file " + options.plan.plan_file + ": " + error);
    }
    const std::string mismatch =
        plan::validate_plan(*loaded, base, options.seed, options.iterations);
    if (!mismatch.empty()) {
      throw std::runtime_error(options.plan.plan_file + ": " + mismatch);
    }
    return *loaded;
  }
  // The plan covers the *raw* sweep, so functions the golden run never
  // touched are logged as pruned rather than silently absent from the file.
  return plan::build_plan(base, campaign_sweep(base, options, /*functions=*/nullptr),
                          plan::golden_profile(base, options.seed, options.iterations),
                          options.seed, options.iterations);
}

WorkloadSetResult run_workload_set(const RunConfig& base, const CampaignOptions& options,
                                   const std::optional<inject::FaultList>& explicit_faults,
                                   exec::RunPool* pool) {
  const bool planned = options.plan.mode != plan::PlanOptions::Mode::kExhaustive;
  if (planned && explicit_faults) {
    throw std::runtime_error(
        "an explicit fault list cannot run under a campaign plan (the plan "
        "decides what executes)");
  }
  WorkloadSetResult result;
  result.base_config = base;

  std::optional<plan::Plan> p;
  std::optional<plan::GoldenProfile> profile;
  inject::FaultList sweep;
  if (planned) {
    p = build_campaign_plan(base, options);
    result.activated_functions = activated_from_plan(*p);
    if (!options.plan.plan_out.empty()) {
      std::ofstream out(options.plan.plan_out);
      if (!out) {
        throw std::runtime_error("cannot write plan file: " + options.plan.plan_out);
      }
      out << p->serialize();
    }
  } else {
    // Profiling pass: which functions does this workload activate at all?
    // With snapshots on, the full golden profile doubles as the profiling
    // pass (same seed derivation, so `activated` is the same set) and
    // additionally counts every function's golden invocations, which prove
    // the faults golden-tail synthesis serves can never fire.
    if (options.snapshots) {
      profile = plan::golden_profile(base, options.seed, options.iterations);
      result.activated_functions = profile->activated;
    } else {
      result.activated_functions = profile_workload(base, options.seed);
    }
    if (!explicit_faults) sweep = campaign_sweep(base, options, &result.activated_functions);
  }

  // Journal headers embed the serialized campaign, so `ntdts replay
  // <journal> <xi>` reconstructs the exact run from the journal alone. The
  // loop applies the skip-uncalled rule (paper §4) to sweeps: once a
  // function proves uncalled, the rest of its faults are skipped. With
  // profiling this rarely triggers, but nondeterminism can still starve a
  // function of calls. An explicit list runs every listed fault.
  exec::CampaignExecutor executor(options, serialize_config({base, options, {}}),
                                  profile ? &*profile : nullptr, pool);
  exec::CampaignResult campaign =
      planned ? executor.run_plan(base, *p, options.seed,
                                  {.ci_half_width = options.plan.ci_half_width,
                                   .min_stratum_trials = options.plan.min_stratum_trials,
                                   .batch = options.plan.batch,
                                   .seed = options.seed})
              : executor.run(base, explicit_faults ? *explicit_faults : sweep, options.seed,
                             /*skip_uncalled=*/!explicit_faults);
  if (planned) {
    PlanDigest digest;
    digest.entries = p->entries.size();
    digest.executable = p->executable_count();
    digest.pruned = campaign.pruned;
    digest.deduped = campaign.deduped;
    digest.executed = campaign.executed;
    digest.reused = campaign.reused;
    digest.unsampled = campaign.unsampled;
    digest.prune_histogram = p->prune_histogram();
    digest.strata = std::move(campaign.strata);
    result.plan_digest = std::move(digest);
  }
  result.executed_runs = campaign.executed;
  result.runs = std::move(campaign.runs);
  return result;
}

namespace {

std::string_view mw_code(mw::MiddlewareKind k) {
  switch (k) {
    case mw::MiddlewareKind::kNone: return "none";
    case mw::MiddlewareKind::kMscs: return "mscs";
    case mw::MiddlewareKind::kWatchd: return "watchd";
  }
  return "?";
}

std::optional<mw::MiddlewareKind> mw_from_code(std::string_view s) {
  if (s == "none") return mw::MiddlewareKind::kNone;
  if (s == "mscs") return mw::MiddlewareKind::kMscs;
  if (s == "watchd") return mw::MiddlewareKind::kWatchd;
  return std::nullopt;
}

template <typename Int>
void append_int(std::string* out, Int v) {
  char buf[24];
  out->append(buf, std::to_chars(buf, buf + sizeof buf, v).ptr);
}

/// Appends the fields a run line carries after its fault id.
void append_run_fields(std::string* out, const RunResult& r) {
  const auto field = [out](auto v) {
    out->push_back(' ');
    append_int(out, v);
  };
  field(r.activated ? 1 : 0);
  out->push_back(' ');
  out->append(outcome_code(r.outcome));
  field(r.response_received ? 1 : 0);
  field(r.response_time.count_micros());
  field(r.restarts);
  field(r.retries);
  field(r.client_finished ? 1 : 0);
  // Topology extras ride after the classic eight fields; pre-topology parsers
  // read exactly eight via >> and ignore trailing tokens, so old readers stay
  // compatible and classic lines stay byte-identical.
  if (r.topo) {
    const TopoRunStats& t = *r.topo;
    out->append(" topo ");
    out->append(t.tier);
    out->push_back(' ');
    out->append(t.user_outcome);
    field(t.requests_total);
    field(t.requests_ok);
    field(t.p50_us);
    field(t.p95_us);
    field(t.p99_us);
    field(t.offered_rps_milli);
  }
}

}  // namespace

std::string serialize_run_line(const RunResult& r) {
  std::string line;
  r.fault.write_id(&line);
  append_run_fields(&line, r);
  return line;
}

bool parse_run_line(const std::string& target_image, const std::string& line,
                    RunResult* out, std::string* error) {
  auto fail = [&](const std::string& msg) {
    if (error != nullptr) *error = msg;
    return false;
  };
  std::istringstream ls(line);
  std::string fault_id, outcome_s;
  int activated = 0, resp = 0, restarts = 0, retries = 0, finished = 0;
  std::int64_t time_us = 0;
  ls >> fault_id >> activated >> outcome_s >> resp >> time_us >> restarts >> retries >>
      finished;
  if (!ls) return fail("bad run line: " + line);
  // A planned campaign records a pruned run for every catalogue function,
  // including the ones the simulator does not implement.
  auto spec = inject::parse_fault_id_any(target_image, fault_id);
  if (!spec) return fail("bad fault id: " + fault_id);
  auto outcome = outcome_from_code(outcome_s);
  if (!outcome) return fail("bad outcome: " + outcome_s);
  out->fault = *spec;
  out->activated = activated != 0;
  out->outcome = *outcome;
  out->response_received = resp != 0;
  out->response_time = sim::Duration::micros(time_us);
  out->restarts = restarts;
  out->retries = retries;
  out->client_finished = finished != 0;
  out->topo.reset();
  std::string tag;
  if (ls >> tag) {
    if (tag != "topo") return fail("bad run line trailer: " + tag);
    TopoRunStats t;
    ls >> t.tier >> t.user_outcome >> t.requests_total >> t.requests_ok >> t.p50_us >>
        t.p95_us >> t.p99_us >> t.offered_rps_milli;
    if (!ls) return fail("bad topo run line: " + line);
    bool known_outcome = false;
    for (std::string_view o : kTopoOutcomes) known_outcome |= t.user_outcome == o;
    if (!known_outcome) return fail("bad topo outcome: " + t.user_outcome);
    std::string rest;
    if (ls >> rest) return fail("bad run line trailer: " + rest);
    out->topo = std::make_shared<const TopoRunStats>(std::move(t));
  }
  return true;
}

std::string serialize_workload_set(const WorkloadSetResult& set) {
  std::string out = "DTSCAMPAIGN v1\n";
  const auto line = [&out](std::string_view tag, std::string_view value) {
    out.append(tag);
    out.push_back(' ');
    out.append(value);
    out.push_back('\n');
  };
  const auto int_line = [&out](std::string_view tag, auto value) {
    out.append(tag);
    out.push_back(' ');
    append_int(&out, value);
    out.push_back('\n');
  };
  line("workload", set.base_config.workload.name);
  line("middleware", mw_code(set.base_config.middleware));
  int_line("watchd_version", static_cast<int>(set.base_config.watchd_version));
  int_line("seed", set.base_config.seed);
  // Topology identity (absent for classic campaigns, keeping their files
  // byte-identical). The canonical topology string never contains newlines.
  if (!set.base_config.topo.empty()) {
    const auto& t = set.base_config.topo;
    line("topology", t.to_string());
    line("topology_tier", t.fault_tier);
    int_line("topology_rps_milli", t.offered_rps_milli);
    int_line("topology_requests", t.requests);
    if (t.degraded_p95_ms > 0) int_line("topology_degraded_p95_ms", t.degraded_p95_ms);
  }
  out.append("functions");
  for (nt::Fn fn : set.activated_functions) {
    out.push_back(' ');
    out.append(nt::to_string(fn));
  }
  out.push_back('\n');

  // Measure the run lines first, so the text is built in one allocation of
  // exactly its size: a planned sweep's text runs to megabytes.
  std::string id;
  std::string fields;
  std::size_t size = out.size();
  for (const auto& r : set.runs) {
    r.fault.write_id(&id);
    fields.clear();
    append_run_fields(&fields, r);
    size += 5 + id.size() + fields.size();  // "run " ... "\n"
  }
  out.reserve(size);
  for (const auto& r : set.runs) {
    r.fault.write_id(&id);
    out.append("run ");
    out.append(id);
    append_run_fields(&out, r);
    out.push_back('\n');
  }
  return out;
}

std::optional<WorkloadSetResult> deserialize_workload_set(const std::string& text,
                                                          std::string* error) {
  auto fail = [&](const std::string& msg) {
    if (error != nullptr) *error = msg;
    return std::nullopt;
  };
  std::istringstream in(text);
  std::string line;
  if (!std::getline(in, line) || line != "DTSCAMPAIGN v1") return fail("bad header");

  WorkloadSetResult set;
  const auto& reg = nt::Kernel32Registry::instance();
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    std::istringstream ls(line);
    std::string tag;
    ls >> tag;
    if (tag == "workload") {
      std::string name;
      ls >> name;
      try {
        set.base_config.workload = workload_by_name(name);
      } catch (const std::exception& e) {
        return fail(e.what());
      }
    } else if (tag == "middleware") {
      std::string code;
      ls >> code;
      auto m = mw_from_code(code);
      if (!m) return fail("bad middleware code");
      set.base_config.middleware = *m;
    } else if (tag == "watchd_version") {
      int v = 0;
      ls >> v;
      if (v < 1 || v > 3) return fail("bad watchd version");
      set.base_config.watchd_version = static_cast<mw::WatchdVersion>(v);
    } else if (tag == "seed") {
      ls >> set.base_config.seed;
    } else if (tag == "topology") {
      std::string rest;
      std::getline(ls, rest);
      std::string topo_error;
      const auto spec = topo::parse_topology(rest, &topo_error);
      if (!spec) return fail(topo_error);
      set.base_config.topo.tiers = spec->tiers;
      set.base_config.topo.fault_tier = spec->fault_tier;
    } else if (tag == "topology_tier") {
      ls >> set.base_config.topo.fault_tier;
    } else if (tag == "topology_rps_milli") {
      ls >> set.base_config.topo.offered_rps_milli;
    } else if (tag == "topology_requests") {
      ls >> set.base_config.topo.requests;
    } else if (tag == "topology_degraded_p95_ms") {
      ls >> set.base_config.topo.degraded_p95_ms;
    } else if (tag == "functions") {
      std::string fn_name;
      while (ls >> fn_name) {
        const nt::FunctionInfo* info = reg.by_name(fn_name);
        if (info == nullptr) return fail("unknown function " + fn_name);
        set.activated_functions.insert(static_cast<nt::Fn>(info->id));
      }
    } else if (tag == "run") {
      std::string rest;
      std::getline(ls, rest);
      RunResult r;
      std::string run_error;
      if (!parse_run_line(set.base_config.workload.target_image, rest, &r, &run_error)) {
        return fail(run_error);
      }
      set.runs.push_back(std::move(r));
    } else {
      return fail("unknown tag: " + tag);
    }
  }
  return set;
}

}  // namespace dts::core
