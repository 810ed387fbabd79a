// Deterministic pseudo-random number generation for the simulator.
//
// xoshiro256** by Blackman & Vigna: fast, high quality, and trivially
// seedable — we need bit-for-bit reproducible runs across platforms, so we
// do not use std::mt19937 whose distributions are not portable.
//
// Snapshot support (src/snap/): the generator's complete state is the four
// state words plus the draw cursor — there is no hidden global state (no
// static engines, no thread-local caches; hash()/mix() are pure functions).
// cursor()/reseed() let a run resumed from a snapshot swap in its own seed
// and fast-forward to the exact draw position the snapshot had reached.
#pragma once

#include <array>
#include <cstdint>
#include <string_view>

namespace dts::sim {

class Rng {
 public:
  /// Seeds the generator via splitmix64 expansion of `seed`.
  explicit Rng(std::uint64_t seed = 0);

  /// Next raw 64-bit value.
  std::uint64_t next();

  /// Uniform integer in [lo, hi] (inclusive). Requires lo <= hi.
  std::int64_t uniform(std::int64_t lo, std::int64_t hi);

  /// Uniform double in [0, 1).
  double uniform01();

  /// Bernoulli trial with probability p of returning true.
  bool chance(double p);

  /// Creates an independent generator derived from this one's stream and a
  /// caller-supplied label, so subsystems cannot perturb each other's draws.
  Rng split(std::uint64_t label);

  /// Number of raw next() calls made since construction or the last
  /// reseed(). Counts *raw* draws, not API calls: uniform() uses rejection
  /// sampling and may burn several next() values per call, and replaying the
  /// cursor must replay exactly those.
  std::uint64_t cursor() const { return draws_; }

  /// Re-initializes from `seed` and replays `replay_draws` raw next() calls,
  /// leaving the generator exactly where a fresh Rng{seed} would be after
  /// that many draws. Snapshot restore for a different seed stream.
  void reseed(std::uint64_t seed, std::uint64_t replay_draws = 0);

  /// The raw state words (with the cursor, the generator's entire state) —
  /// what snapshot digests fold in.
  const std::array<std::uint64_t, 4>& state() const { return s_; }

  /// Stable 64-bit hash of a string, usable as a seed label.
  static std::uint64_t hash(std::string_view s);

  /// Mixes two seed values into one.
  static std::uint64_t mix(std::uint64_t a, std::uint64_t b);

 private:
  std::array<std::uint64_t, 4> s_{};
  std::uint64_t draws_ = 0;
};

}  // namespace dts::sim
