#include "sim/random.hpp"

#include <cmath>
#include <numbers>
#include <stdexcept>

namespace rsf::sim {

namespace {

std::uint64_t splitmix64(std::uint64_t& x) {
  x += 0x9E3779B97F4A7C15ULL;
  std::uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

constexpr std::uint64_t rotl(std::uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

}  // namespace

std::uint64_t fnv1a(std::string_view s) {
  std::uint64_t h = 0xCBF29CE484222325ULL;
  for (unsigned char c : s) {
    h ^= c;
    h *= 0x100000001B3ULL;
  }
  return h;
}

RandomStream::RandomStream(std::uint64_t seed) : RandomStream(seed, "") {}

RandomStream::RandomStream(std::uint64_t seed, std::string_view component_name) {
  origin_seed_ = seed ^ fnv1a(component_name);
  std::uint64_t sm = origin_seed_;
  for (auto& w : s_) w = splitmix64(sm);
  // xoshiro requires a nonzero state; splitmix64 output of any seed is
  // astronomically unlikely to be all-zero, but guard anyway.
  if ((s_[0] | s_[1] | s_[2] | s_[3]) == 0) s_[0] = 1;
}

std::uint64_t RandomStream::next() {
  const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
  const std::uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = rotl(s_[3], 45);
  return result;
}

double RandomStream::uniform() {
  // 53 random bits into [0,1).
  return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

double RandomStream::uniform(double lo, double hi) { return lo + (hi - lo) * uniform(); }

std::int64_t RandomStream::uniform_int(std::int64_t lo, std::int64_t hi) {
  if (lo > hi) throw std::invalid_argument("uniform_int: lo > hi");
  const std::uint64_t span = static_cast<std::uint64_t>(hi - lo) + 1;
  if (span == 0) {  // full 64-bit range
    return static_cast<std::int64_t>(next());
  }
  // Rejection sampling to avoid modulo bias.
  const std::uint64_t limit = (~0ULL / span) * span;
  std::uint64_t v = next();
  while (v >= limit) v = next();
  return lo + static_cast<std::int64_t>(v % span);
}

double RandomStream::exponential(double mean) {
  if (mean <= 0) throw std::invalid_argument("exponential: mean must be > 0");
  double u = uniform();
  // uniform() may return exactly 0; -log(0) is inf.
  while (u == 0.0) u = uniform();
  return -mean * std::log(u);
}

bool RandomStream::bernoulli(double p) {
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  return uniform() < p;
}

double RandomStream::normal(double mean, double stddev) {
  if (has_cached_normal_) {
    has_cached_normal_ = false;
    return mean + stddev * cached_normal_;
  }
  double u1 = uniform();
  while (u1 == 0.0) u1 = uniform();
  const double u2 = uniform();
  const double r = std::sqrt(-2.0 * std::log(u1));
  const double theta = 2.0 * std::numbers::pi * u2;
  cached_normal_ = r * std::sin(theta);
  has_cached_normal_ = true;
  return mean + stddev * r * std::cos(theta);
}

double RandomStream::bounded_pareto(double alpha, double lo, double hi) {
  if (!(alpha > 0) || !(lo > 0) || !(hi > lo)) {
    throw std::invalid_argument("bounded_pareto: need alpha>0, 0<lo<hi");
  }
  const double u = uniform();
  const double la = std::pow(lo, alpha);
  const double ha = std::pow(hi, alpha);
  return std::pow(-(u * ha - u * la - ha) / (ha * la), -1.0 / alpha);
}

std::uint64_t RandomStream::poisson(double mean) {
  return poisson(mean, std::exp(-mean));
}

std::uint64_t RandomStream::poisson(double mean, double limit) {
  if (mean < 0) throw std::invalid_argument("poisson: mean must be >= 0");
  if (mean == 0) return 0;
  if (mean > 64.0) {
    const double v = normal(mean, std::sqrt(mean));
    return v <= 0 ? 0 : static_cast<std::uint64_t>(v + 0.5);
  }
  double product = uniform();
  std::uint64_t count = 0;
  while (product > limit) {
    ++count;
    product *= uniform();
  }
  return count;
}

RandomStream RandomStream::fork(std::string_view child_name) const {
  return RandomStream(origin_seed_ ^ 0xA5A5A5A55A5A5A5AULL, child_name);
}

}  // namespace rsf::sim
