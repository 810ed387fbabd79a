#include "exec/synthesis.h"

#include <optional>

#include "exec/sink.h"
#include "sim/rng.h"

namespace dts::exec {

std::string unsupported_reason(const core::RunConfig& base, bool tracing) {
  if (base.target_jitter > 0.0) {
    return "target_jitter draws from the run RNG, so the golden trajectory is "
           "not seed-invariant";
  }
  if (tracing || base.trace_limit > 0) {
    return "a synthesized run has no syscall trace of its own";
  }
  if (base.golden_capture > 0) return "golden-capture runs are not fault runs";
  if (!base.topo.empty()) {
    // The byte-identity tests cover synthesis of classic runs only; full runs
    // keep topology campaigns byte-identical under --snapshots=on.
    return "multi-tier topology runs execute in full";
  }
  return "";
}

std::vector<JournalRecord> synthesize_golden_tail(const core::RunConfig& base,
                                                  std::uint64_t campaign_seed,
                                                  std::uint64_t campaign_digest,
                                                  const std::vector<TailItem>& items) {
  if (items.empty()) return {};
  // Seeded exactly like the planner's profiler (and the campaign's profiling
  // pass), so the host run makes the calls the profile counted.
  core::RunConfig cfg = base;
  cfg.seed = sim::Rng::mix(campaign_seed, sim::Rng::hash("profile"));
  core::FaultInjectionRun run(cfg);
  core::RunResult result;
  try {
    result = run.execute(std::nullopt);
  } catch (...) {
    return {};
  }
  // Zero semantic RNG draws end to end: every serialized field of a full run
  // under any seed equals the host's (target_jitter == 0 is an applicability
  // precondition), so a run whose fault never fires serializes as the host's.
  if (run.simulation().semantic_rng_draws() > 0) return {};
  const inject::Interceptor& icpt = run.interceptor();
  for (const TailItem& item : items) {
    if (item.fault.invocation <= icpt.invocations(item.fault.target_image, item.fault.fn)) {
      return {};
    }
  }

  std::vector<JournalRecord> out;
  out.reserve(items.size());
  for (const TailItem& item : items) {
    result.fault = item.fault;
    // The host trajectory is the run's, so its digest and spans are the
    // run's too. The fault never fires, so there is no injection context;
    // the host ran unarmed, so whether the fault's function was called is
    // read from its invocation count.
    JournalRecord rec = finish_run(run, result, {campaign_digest, 0, item.index}, /*wall_us=*/0);
    rec.fn_called = icpt.invocations(item.fault.target_image, item.fault.fn) > 0;
    out.push_back(std::move(rec));
  }
  return out;
}

}  // namespace dts::exec
