// Deterministic pseudo-random number generation for the simulator.
//
// xoshiro256** by Blackman & Vigna: fast, high quality, and trivially
// seedable — we need bit-for-bit reproducible runs across platforms, so we
// do not use std::mt19937 whose distributions are not portable.
//
// The generator's complete state is its four state words: there is no hidden
// global state (no static engines, no thread-local caches; hash()/mix() are
// pure functions), so one seed reproduces one stream.
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

  /// Stable 64-bit hash of a string, usable as a seed label.
  static std::uint64_t hash(std::string_view s);

  /// Mixes two seed values into one.
  static std::uint64_t mix(std::uint64_t a, std::uint64_t b);

 private:
  std::array<std::uint64_t, 4> s_{};
};

}  // namespace dts::sim
