// rsf::sim — deterministic random streams.
//
// Every stochastic component takes its own named RandomStream, derived
// from a single experiment seed. Streams are independent (splitmix64
// seeding of xoshiro256**), so adding a new component never perturbs
// the draw sequence of existing ones — a property the regression tests
// rely on.
#pragma once

#include <cstdint>
#include <string_view>

namespace rsf::sim {

/// xoshiro256** engine. Satisfies UniformRandomBitGenerator so it can
/// be used with <random> distributions, but the common distributions
/// needed by the fabric models are provided as members with stable,
/// implementation-defined-free semantics across platforms.
class RandomStream {
 public:
  using result_type = std::uint64_t;

  /// Stream seeded from an experiment seed and a component name. Equal
  /// (seed, name) pairs always produce identical streams.
  RandomStream(std::uint64_t seed, std::string_view component_name);

  explicit RandomStream(std::uint64_t seed);

  [[nodiscard]] static constexpr result_type min() { return 0; }
  [[nodiscard]] static constexpr result_type max() { return ~0ULL; }

  result_type operator()() { return next(); }

  /// Uniform in [0, 1).
  double uniform();
  /// Uniform in [lo, hi).
  double uniform(double lo, double hi);
  /// Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi);
  /// Exponential with the given mean (> 0).
  double exponential(double mean);
  /// True with probability p (clamped to [0,1]).
  bool bernoulli(double p);
  /// Standard normal via Box–Muller (cached pair).
  double normal(double mean, double stddev);
  /// Bounded Pareto on [lo, hi] with shape alpha — heavy-tailed flow
  /// sizes use this.
  double bounded_pareto(double alpha, double lo, double hi);

 private:
  std::uint64_t next();

  std::uint64_t s_[4];
  double cached_normal_ = 0.0;
  bool has_cached_normal_ = false;
};

/// FNV-1a of a string; used to mix component names into seeds and to
/// give tests a stable cross-platform hash.
[[nodiscard]] std::uint64_t fnv1a(std::string_view s);

}  // namespace rsf::sim
