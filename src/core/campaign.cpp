#include "core/campaign.h"

#include <filesystem>
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
    for (auto& f : list.faults) f.tier = base.topo.fault_tier;
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

std::string_view outcome_code(Outcome o) {
  switch (o) {
    case Outcome::kNormalSuccess: return "normal";
    case Outcome::kRestartSuccess: return "restart";
    case Outcome::kRestartRetrySuccess: return "restart_retry";
    case Outcome::kRetrySuccess: return "retry";
    case Outcome::kFailure: return "failure";
  }
  return "?";
}

std::optional<Outcome> outcome_from(std::string_view s) {
  if (s == "normal") return Outcome::kNormalSuccess;
  if (s == "restart") return Outcome::kRestartSuccess;
  if (s == "restart_retry") return Outcome::kRestartRetrySuccess;
  if (s == "retry") return Outcome::kRetrySuccess;
  if (s == "failure") return Outcome::kFailure;
  return std::nullopt;
}

}  // namespace

std::string serialize_run_line(const RunResult& r) {
  std::ostringstream out;
  out << r.fault.id() << ' ' << (r.activated ? 1 : 0) << ' ' << outcome_code(r.outcome)
      << ' ' << (r.response_received ? 1 : 0) << ' ' << r.response_time.count_micros()
      << ' ' << r.restarts << ' ' << r.retries << ' ' << (r.client_finished ? 1 : 0);
  // Topology extras ride after the classic eight fields; pre-topology parsers
  // read exactly eight via >> and ignore trailing tokens, so old readers stay
  // compatible and classic lines stay byte-identical.
  if (r.topo) {
    out << " topo " << r.topo->tier << ' ' << r.topo->user_outcome << ' '
        << r.topo->requests_total << ' ' << r.topo->requests_ok << ' ' << r.topo->p50_us
        << ' ' << r.topo->p95_us << ' ' << r.topo->p99_us << ' '
        << r.topo->offered_rps_milli;
  }
  return out.str();
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
  auto outcome = outcome_from(outcome_s);
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
    out->topo = std::move(t);
  }
  return true;
}

std::string serialize_workload_set(const WorkloadSetResult& set) {
  std::ostringstream out;
  out << "DTSCAMPAIGN v1\n";
  out << "workload " << set.base_config.workload.name << "\n";
  out << "middleware " << mw_code(set.base_config.middleware) << "\n";
  out << "watchd_version " << static_cast<int>(set.base_config.watchd_version) << "\n";
  out << "seed " << set.base_config.seed << "\n";
  // Topology identity (absent for classic campaigns, keeping their files
  // byte-identical). The canonical topology string never contains newlines.
  if (!set.base_config.topo.empty()) {
    const auto& t = set.base_config.topo;
    out << "topology " << t.to_string() << "\n";
    out << "topology_tier " << t.fault_tier << "\n";
    out << "topology_rps_milli " << t.offered_rps_milli << "\n";
    out << "topology_requests " << t.requests << "\n";
    if (t.degraded_p95_ms > 0) out << "topology_degraded_p95_ms " << t.degraded_p95_ms << "\n";
  }
  out << "functions";
  for (nt::Fn fn : set.activated_functions) out << ' ' << nt::to_string(fn);
  out << "\n";
  for (const auto& r : set.runs) {
    out << "run " << serialize_run_line(r) << "\n";
  }
  return out.str();
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

WorkloadSetResult load_or_run_workload_set(const RunConfig& base,
                                           const CampaignOptions& options,
                                           const std::string& cache_dir) {
  std::string path;
  if (!cache_dir.empty()) {
    // Planned campaigns hash to distinct cache slots: with adaptive sampling
    // on, the run set (hence the cached result) depends on the plan knobs.
    const std::uint64_t plan_key =
        sim::Rng::mix(static_cast<std::uint64_t>(options.plan.mode),
                      static_cast<std::uint64_t>(options.plan.ci_half_width * 1e9));
    const std::uint64_t key = sim::Rng::mix(
        sim::Rng::hash(base.workload.name),
        sim::Rng::mix(static_cast<std::uint64_t>(base.middleware) * 131 +
                          static_cast<std::uint64_t>(base.watchd_version),
                      sim::Rng::mix(options.seed,
                                    sim::Rng::mix(plan_key,
                                                  static_cast<std::uint64_t>(
                                                      options.iterations) * 1000003 +
                                                      options.max_faults))));
    // Non-default model sets are different campaigns; the default leaves the
    // key untouched so pre-existing caches stay valid.
    std::uint64_t model_aware_key = key;
    const fault::ModelSet models = model_set_from(options);
    if (!models.is_paper_default()) {
      model_aware_key = sim::Rng::mix(key, sim::Rng::hash(models.to_string()));
    }
    // Topology campaigns likewise get their own slots; classic campaigns keep
    // the exact pre-topology key (and their existing caches).
    if (!base.topo.empty()) {
      const auto& t = base.topo;
      model_aware_key = sim::Rng::mix(
          model_aware_key,
          sim::Rng::hash(t.to_string() + "|" + t.fault_tier + "|" +
                         std::to_string(t.offered_rps_milli) + "|" +
                         std::to_string(t.requests) + "|" +
                         std::to_string(t.degraded_p95_ms)));
      // Request tracing changes the wire bytes (the rt= token), so traced and
      // untraced campaigns must never share a cache slot. Off-mode keeps the
      // pre-rtrace key exactly.
      if (base.rtrace != obs::rtrace::RtraceMode::kOff) {
        model_aware_key = sim::Rng::mix(
            model_aware_key,
            sim::Rng::hash("rtrace=" +
                           std::string(obs::rtrace::to_string(base.rtrace))));
      }
    }
    char name[64];
    std::snprintf(name, sizeof name, "dts_%016llx.campaign",
                  static_cast<unsigned long long>(model_aware_key));
    std::filesystem::create_directories(cache_dir);
    path = cache_dir + "/" + name;
    std::ifstream in(path);
    if (in) {
      std::stringstream buf;
      buf << in.rdbuf();
      if (auto cached = deserialize_workload_set(buf.str())) return *cached;
    }
  }
  WorkloadSetResult result = run_workload_set(base, options);
  if (!path.empty()) {
    std::ofstream out(path);
    out << serialize_workload_set(result);
  }
  return result;
}

}  // namespace dts::core
