// rsf::telemetry — streaming latency histogram.
//
// Log-linear bucketing (HDR-histogram style): values are bucketed into
// powers of two, each power split into kSubBuckets linear sub-buckets,
// giving a bounded relative error (< 1/kSubBuckets) at every scale from
// picoseconds to seconds with a few KB of memory and O(1) insert.
//
// Times and counts take an integer path (record(SimTime),
// record_count): below kIntegerPathLimit the bucket comes from the
// value's bits alone, inline, and lands where record(double(v)) puts
// it; every moment is kept from double(v) exactly as there.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include "sim/time.hpp"

namespace rsf::telemetry {

class Histogram {
 public:
  Histogram() = default;

  void record(double value);
  void record(rsf::sim::SimTime t) { record_integer(t.ps()); }
  /// A count (hops, packets): the integer path, as record(double(n)).
  void record_count(std::uint64_t n) { record_integer(n); }

  [[nodiscard]] std::uint64_t count() const { return count_; }
  [[nodiscard]] double min() const;
  [[nodiscard]] double max() const;
  [[nodiscard]] double mean() const;
  [[nodiscard]] double stddev() const;

  /// Value at quantile q in [0,1]; q=0.5 is the median. Returns the
  /// representative (upper edge) of the containing bucket, so the
  /// result is an upper bound within the bucket's relative error.
  [[nodiscard]] double quantile(double q) const;

  [[nodiscard]] double p50() const { return quantile(0.50); }
  [[nodiscard]] double p90() const { return quantile(0.90); }
  [[nodiscard]] double p99() const { return quantile(0.99); }
  [[nodiscard]] double p999() const { return quantile(0.999); }

  void merge(const Histogram& other);
  void reset();

  /// A copy of the current state, for phase measurements: take a
  /// snapshot before the window, then `now.since(before)` after it.
  [[nodiscard]] Histogram snapshot() const { return *this; }

  /// The distribution of values recorded after `earlier` was
  /// snapshotted from *this same histogram*. Count, mean and stddev of
  /// the window are exact; min/max (and therefore quantile clamping)
  /// are bucket-resolution bounds, since per-value extremes cannot be
  /// attributed to a window after the fact.
  [[nodiscard]] Histogram since(const Histogram& earlier) const;

  /// One-line summary, e.g. "n=1000 mean=4.2us p50=... p99=...",
  /// interpreting stored values as picoseconds.
  [[nodiscard]] std::string summary_time() const;
  /// Same but with raw unitless values.
  [[nodiscard]] std::string summary() const;

  /// Bucket of a value >= 1: exponent floor(log2(v)) as std::log2
  /// rounds it (capped at 62), times 64, plus the linear sub-bucket.
  [[nodiscard]] static std::size_t bucket_index(double v);

  /// The integer path's bound. Below it bucket_index(double(v)) never
  /// takes log2's round-up; from 2^49 - 1 on it can (log2 rounds
  /// 2^49 - 1 to 49), so larger values go through bucket_index.
  static constexpr std::uint64_t kIntegerPathLimit = std::uint64_t{1} << 48;
  /// bucket_index(double(v)) for 1 <= v < kIntegerPathLimit: exponent
  /// floor(log2(v)) from the leading bit, and the bits below it
  /// shifted to the sub-bucket width.
  [[nodiscard]] static constexpr std::size_t integer_bucket_index(std::uint64_t v) {
    const int exponent = 63 - std::countl_zero(v);
    const std::uint64_t rest = v - (std::uint64_t{1} << exponent);
    const std::uint64_t sub = exponent >= kSubBucketBits ? rest >> (exponent - kSubBucketBits)
                                                         : rest << (kSubBucketBits - exponent);
    return static_cast<std::size_t>(exponent) * kSubBuckets + static_cast<std::size_t>(sub);
  }

 private:
  static constexpr int kSubBucketBits = 6;  // 64 sub-buckets => <1.6% error
  static constexpr int kSubBuckets = 1 << kSubBucketBits;

  /// Count, sum, sum of squares, min and max of one value.
  void add_moments(double value) {
    if (count_ == 0) {
      min_ = max_ = value;
    } else {
      min_ = std::min(min_, value);
      max_ = std::max(max_, value);
    }
    ++count_;
    sum_ += value;
    sum_sq_ += value * value;
  }
  void add_to_bucket(std::size_t idx) {
    if (idx >= buckets_.size()) buckets_.resize(idx + 1, 0);
    ++buckets_[idx];
  }
  template <typename Int>
  void record_integer(Int v) {
    const auto value = static_cast<double>(v);
    add_moments(value);
    if (v < 1) {
      ++zero_or_negative_;
      return;
    }
    const auto u = static_cast<std::uint64_t>(v);
    add_to_bucket(u < kIntegerPathLimit ? integer_bucket_index(u) : bucket_index(value));
  }

  [[nodiscard]] static double bucket_upper_edge(std::size_t idx);

  std::vector<std::uint64_t> buckets_;
  std::uint64_t count_ = 0;
  double sum_ = 0;
  double sum_sq_ = 0;
  double min_ = 0;
  double max_ = 0;
  std::uint64_t zero_or_negative_ = 0;
};

}  // namespace rsf::telemetry
