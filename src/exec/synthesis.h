// Golden-tail synthesis: records for campaign runs whose fault can never fire.
//
// A fault whose invocation lies beyond the golden call count of its function
// never fires: no injection point exists anywhere in its run, so the run's
// whole trajectory IS the golden run. Snapshot execution (--snapshots=on)
// executes that golden run ONCE on the host — seeded exactly like the
// planner's profiler, so it makes the profile's calls — and synthesizes every
// such fault's record from the host run's end state instead of re-running it.
//
// Synthesis is valid only while the trajectory is seed-invariant (a full run
// of the fault uses its own seed, the host run the profile seed): no target
// jitter and zero semantic RNG draws over the whole host run. Configurations
// it cannot serve (see unsupported_reason) and host runs that fail a gate
// leave every fault to a full run, so campaign output is byte-identical
// either way. Every fault that can fire always takes a full run.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "core/run.h"
#include "exec/journal.h"

namespace dts::exec {

/// Human-readable reason golden-tail synthesis cannot serve this
/// configuration (empty = it can). `tracing` = the executor wants per-run
/// syscall traces, which a run that never executes does not have.
std::string unsupported_reason(const core::RunConfig& base, bool tracing);

/// One never-firing fault: entry `index` of the caller's fault list.
struct TailItem {
  std::size_t index = 0;
  inject::FaultSpec fault;
};

/// Executes one host golden run of `base` and synthesizes a record for every
/// item, in item order, stamping execution indices with `campaign_digest`:
/// the record a full run of the fault would have produced, apart from
/// wall_us (0: the run did no work of its own). Returns nothing when the
/// host run fails a gate (it threw, drew a semantic RNG value, or reached an
/// item's invocation after all): then every item needs a full run.
std::vector<JournalRecord> synthesize_golden_tail(const core::RunConfig& base,
                                                  std::uint64_t campaign_seed,
                                                  std::uint64_t campaign_digest,
                                                  const std::vector<TailItem>& items);

}  // namespace dts::exec
