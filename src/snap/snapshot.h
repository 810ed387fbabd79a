// World snapshots: copy-on-write capture/restore of a complete run world.
//
// A WorldSnapshot is the value state of one FaultInjectionRun — simulation
// kernel (clock, event queue, RNG state + cursor), both machines (processes
// with address spaces and handle tables, filesystem, registry, SCM, event
// log) and the network. Memory pages and file contents are structure-shared
// with the live world (see VirtualMemory / Filesystem): repeated captures
// cost map copies, not deep copies, and the first post-capture write to any
// shared payload clones it.
//
// restore_world() puts the captured value state back into the world that
// captured it (tests, single-world rewind). Live coroutine frames cannot be
// value-copied, so a snapshot never moves a run into another process or
// world; it is the building block for cloning a template world per run.
#pragma once

#include <cstdint>

#include "core/run.h"
#include "ntsim/kernel.h"
#include "ntsim/netsim.h"
#include "sim/simulation.h"

namespace dts::snap {

struct WorldSnapshot {
  std::uint64_t site = 0;  // caller's label, e.g. the syscall seq at capture
  sim::Simulation::Snapshot sim;
  nt::Machine::Snapshot target;
  nt::Machine::Snapshot control;
  nt::net::Network::Snapshot network;
  nt::CowStats cow;          // shared-vs-copied payload accounting at capture
  std::uint64_t digest = 0;  // world_digest() at capture time
};

/// Captures the live world of `run`. Fills `cow` and `digest`.
WorldSnapshot capture_world(core::FaultInjectionRun& run, std::uint64_t site);

/// Restores a snapshot into the world that captured it. Returns false
/// (leaving the world partially untouched only in the network counter) if the
/// world structurally diverged — live process set or bound ports changed.
bool restore_world(core::FaultInjectionRun& run, const WorldSnapshot& snap);

/// Order-stable FNV-1a digest over the snapshot's full value state — file
/// and memory *contents* included, so a shared COW payload mutated in place
/// after capture changes the digest. Recomputing a stored snapshot's digest
/// after the world ran on is therefore a COW-violation self-check.
std::uint64_t world_digest(const WorldSnapshot& snap);

}  // namespace dts::snap
