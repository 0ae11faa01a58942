#include "telemetry/histogram.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdio>
#include <limits>

namespace rsf::telemetry {

namespace {

/// kLog2Round[e] is the least double whose std::log2 is >= e. Just
/// below 2^e, log2 rounds up to e, so those values belong to exponent
/// e although their binary exponent is e - 1: bucket_index keeps that
/// placement (with sub-bucket 0), as when it took floor(log2(v)).
const std::array<double, 64> kLog2Round = [] {
  std::array<double, 64> t{};
  for (int e = 0; e < 64; ++e) {
    double v = std::ldexp(1.0, e);
    while (std::log2(std::nextafter(v, 0.0)) >= e) v = std::nextafter(v, 0.0);
    t[static_cast<std::size_t>(e)] = v;
  }
  return t;
}();

}  // namespace

std::size_t Histogram::bucket_index(double v) {
  // v >= 1 guaranteed by caller (zero_or_negative_ handles the rest;
  // values in (0,1) clamp to bucket 0).
  if (v < 1.0) return 0;
  // The binary exponent from the bits (v is a normal double >= 1),
  // then one up where log2 rounds to the next power of two.
  int exponent = static_cast<int>((std::bit_cast<std::uint64_t>(v) >> 52) & 0x7FF) - 1023;
  if (exponent >= 62) {
    exponent = 62;
  } else if (v >= kLog2Round[static_cast<std::size_t>(exponent + 1)]) {
    ++exponent;
  }
  // 2^exponent and 2^-exponent from their bits: scaling by the inverse
  // power of two is exact, so this equals (v - base) / base.
  const auto biased = static_cast<std::uint64_t>(exponent + 1023);
  const double base = std::bit_cast<double>(biased << 52);
  const double inv_base = std::bit_cast<double>((2046 - biased) << 52);
  // Below base (the rounded-up case) truncates to sub-bucket 0; past
  // 2^63 the last sub-bucket takes everything.
  const double scaled = (v - base) * inv_base * kSubBuckets;
  const int sub = scaled < kSubBuckets ? static_cast<int>(scaled) : kSubBuckets - 1;
  return static_cast<std::size_t>(exponent) * kSubBuckets +
         static_cast<std::size_t>(std::max(sub, 0));
}

double Histogram::bucket_upper_edge(std::size_t idx) {
  const std::size_t exponent = idx / kSubBuckets;
  const std::size_t sub = idx % kSubBuckets;
  const double base = std::exp2(static_cast<double>(exponent));
  return base + base * static_cast<double>(sub + 1) / kSubBuckets;
}

void Histogram::record(double value) {
  add_moments(value);
  if (value < 1.0) {
    ++zero_or_negative_;
    return;
  }
  add_to_bucket(bucket_index(value));
}

double Histogram::min() const { return count_ == 0 ? 0.0 : min_; }
double Histogram::max() const { return count_ == 0 ? 0.0 : max_; }

double Histogram::mean() const {
  return count_ == 0 ? 0.0 : sum_ / static_cast<double>(count_);
}

double Histogram::stddev() const {
  if (count_ < 2) return 0.0;
  const double m = mean();
  const double var = sum_sq_ / static_cast<double>(count_) - m * m;
  return var <= 0 ? 0.0 : std::sqrt(var);
}

double Histogram::quantile(double q) const {
  if (count_ == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  const auto target =
      static_cast<std::uint64_t>(std::ceil(q * static_cast<double>(count_)));
  std::uint64_t seen = zero_or_negative_;
  if (seen >= target && target > 0) return std::min(max_, 1.0);
  for (std::size_t i = 0; i < buckets_.size(); ++i) {
    seen += buckets_[i];
    if (seen >= target) {
      return std::min(max_, bucket_upper_edge(i));
    }
  }
  return max_;
}

void Histogram::merge(const Histogram& other) {
  if (other.count_ == 0) return;
  if (count_ == 0) {
    min_ = other.min_;
    max_ = other.max_;
  } else {
    min_ = std::min(min_, other.min_);
    max_ = std::max(max_, other.max_);
  }
  count_ += other.count_;
  sum_ += other.sum_;
  sum_sq_ += other.sum_sq_;
  zero_or_negative_ += other.zero_or_negative_;
  if (other.buckets_.size() > buckets_.size()) buckets_.resize(other.buckets_.size(), 0);
  for (std::size_t i = 0; i < other.buckets_.size(); ++i) buckets_[i] += other.buckets_[i];
}

void Histogram::reset() { *this = Histogram(); }

Histogram Histogram::since(const Histogram& earlier) const {
  Histogram d;
  if (count_ <= earlier.count_) return d;  // empty window (or not a predecessor)
  d.count_ = count_ - earlier.count_;
  d.sum_ = sum_ - earlier.sum_;
  d.sum_sq_ = std::max(0.0, sum_sq_ - earlier.sum_sq_);
  // Clamped subtraction throughout: if `earlier` is unrelated rather
  // than a true predecessor, the result is a best-effort diff instead
  // of unsigned wraparound garbage.
  d.zero_or_negative_ = zero_or_negative_ >= earlier.zero_or_negative_
                            ? zero_or_negative_ - earlier.zero_or_negative_
                            : 0;
  d.buckets_.resize(buckets_.size(), 0);
  for (std::size_t i = 0; i < buckets_.size(); ++i) {
    const std::uint64_t before = i < earlier.buckets_.size() ? earlier.buckets_[i] : 0;
    d.buckets_[i] = buckets_[i] >= before ? buckets_[i] - before : 0;
  }
  // Window extremes at bucket resolution: the edges of the outermost
  // buckets that gained samples.
  d.min_ = 0.0;
  d.max_ = 0.0;
  if (d.zero_or_negative_ > 0) d.min_ = std::min(min_, 0.0);
  bool min_set = d.zero_or_negative_ > 0;
  for (std::size_t i = 0; i < d.buckets_.size(); ++i) {
    if (d.buckets_[i] == 0) continue;
    if (!min_set) {
      d.min_ = i == 0 ? std::max(min_, 0.0) : bucket_upper_edge(i - 1);
      min_set = true;
    }
    d.max_ = std::min(max_, bucket_upper_edge(i));
  }
  if (d.max_ == 0.0) d.max_ = std::min(max_, 1.0);  // all window samples below 1
  return d;
}

namespace {
std::string fmt_time_ps(double ps) {
  return rsf::sim::SimTime::picoseconds(static_cast<std::int64_t>(ps)).to_string();
}
}  // namespace

std::string Histogram::summary_time() const {
  char buf[256];
  std::snprintf(buf, sizeof(buf), "n=%llu mean=%s p50=%s p99=%s p999=%s max=%s",
                static_cast<unsigned long long>(count_), fmt_time_ps(mean()).c_str(),
                fmt_time_ps(p50()).c_str(), fmt_time_ps(p99()).c_str(),
                fmt_time_ps(p999()).c_str(), fmt_time_ps(max()).c_str());
  return buf;
}

std::string Histogram::summary() const {
  char buf[256];
  std::snprintf(buf, sizeof(buf), "n=%llu mean=%.3f p50=%.3f p99=%.3f p999=%.3f max=%.3f",
                static_cast<unsigned long long>(count_), mean(), p50(), p99(), p999(), max());
  return buf;
}

}  // namespace rsf::telemetry
