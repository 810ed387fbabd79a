#include "forensics/minimize.h"

#include <algorithm>
#include <functional>

#include "sim/rng.h"

namespace dts::forensics {

namespace {

struct Axis {
  // Applies one reduction step; returns a description, or "" when the knob
  // is already at its floor.
  std::function<std::string(core::RunConfig&)> reduce;
};

std::string halve_seconds(sim::Duration& d, const char* name,
                          std::int64_t floor_s) {
  const std::int64_t s = d.count_micros() / 1000000;
  if (s <= floor_s) return "";
  const std::int64_t next = std::max(floor_s, s / 2);
  d = sim::Duration::seconds(next);
  return std::string(name) + " " + std::to_string(s) + "s -> " +
         std::to_string(next) + "s";
}

std::vector<Axis> reduction_axes() {
  return {
      {[](core::RunConfig& cfg) -> std::string {
        if (cfg.client.max_attempts <= 1) return "";
        const int from = cfg.client.max_attempts;
        cfg.client.max_attempts = from - 1;
        return "max_attempts " + std::to_string(from) + " -> " +
               std::to_string(from - 1);
      }},
      {[](core::RunConfig& cfg) {
        return halve_seconds(cfg.client.retry_wait, "retry_wait", 1);
      }},
      {[](core::RunConfig& cfg) {
        return halve_seconds(cfg.client.response_timeout, "response_timeout", 1);
      }},
      {[](core::RunConfig& cfg) {
        return halve_seconds(cfg.client.server_up_timeout, "server_up_timeout", 1);
      }},
      {[](core::RunConfig& cfg) {
        return halve_seconds(cfg.run_timeout, "run_timeout", 1);
      }},
  };
}

}  // namespace

MinimizeResult minimize_repro(const core::RunConfig& base,
                              std::uint64_t campaign_seed,
                              const inject::FaultSpec& fault,
                              core::Outcome target,
                              const MinimizeOptions& opts) {
  MinimizeResult out;
  const std::uint64_t run_seed =
      sim::Rng::mix(campaign_seed, sim::Rng::hash(fault.id()));

  auto execute = [&](const core::RunConfig& cfg) {
    core::RunConfig c = cfg;
    c.seed = run_seed;
    c.trace_limit = 0;  // minimisation runs need speed, not traces
    c.golden_capture = 0;
    ++out.runs_tried;
    return core::execute_run(c, fault);
  };

  core::RunConfig current = base;

  // Baseline: the unreduced config must reproduce the target outcome at all,
  // or there is nothing sound to minimise.
  const core::RunResult baseline = execute(current);
  out.outcome = baseline.outcome;
  out.sim_us_before = static_cast<std::uint64_t>(baseline.sim_elapsed.count_micros());
  out.sim_us_after = out.sim_us_before;
  if (baseline.outcome != target) {
    out.minimal = core::DtsConfig{};
    out.minimal.run = current;
    out.minimal.campaign.seed = campaign_seed;
    return out;  // reduced=false, steps empty: caller reports the mismatch
  }

  // Greedy ddmin to a fixpoint: keep sweeping the axes while any reduction
  // sticks. Each candidate is verified by re-execution; a step is reverted
  // (recorded as kept=false) when it flips the outcome OR changes whether
  // the fault fires — a config whose run times out before the injection
  // point can carry the right outcome label for the wrong reason, and such
  // a "repro" would reproduce nothing.
  const std::vector<Axis> axes = reduction_axes();
  bool changed = true;
  while (changed && out.runs_tried < opts.max_runs) {
    changed = false;
    for (const Axis& axis : axes) {
      if (out.runs_tried >= opts.max_runs) break;
      core::RunConfig candidate = current;
      std::string desc = axis.reduce(candidate);
      if (desc.empty()) continue;  // already at the floor
      const core::RunResult r = execute(candidate);
      MinimizeStep step;
      step.description = std::move(desc);
      step.kept = r.outcome == target && r.activated == baseline.activated;
      if (step.kept) {
        current = candidate;
        out.sim_us_after = static_cast<std::uint64_t>(r.sim_elapsed.count_micros());
        out.reduced = true;
        changed = true;
      }
      out.steps.push_back(std::move(step));
    }
  }

  out.minimal = core::DtsConfig{};
  out.minimal.run = current;
  out.minimal.campaign.seed = campaign_seed;
  out.minimal.campaign.iterations = fault.invocation;  // cover the injection
  out.minimal.campaign.jobs = 1;
  return out;
}

}  // namespace dts::forensics
