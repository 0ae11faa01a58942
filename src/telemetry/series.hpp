// rsf::telemetry — time series recorder.
//
// Records (time, value) samples for quantities that evolve during a
// run (power draw, per-link utilisation, CRC decisions) so benches can
// print reaction timelines.
#pragma once

#include <string>
#include <vector>

#include "sim/time.hpp"

namespace rsf::telemetry {

struct Sample {
  rsf::sim::SimTime time;
  double value = 0;
};

class TimeSeries {
 public:
  explicit TimeSeries(std::string name) : name_(std::move(name)) {}

  void record(rsf::sim::SimTime t, double value) { samples_.push_back({t, value}); }

  /// Replace this series' samples with a copy of `other`'s (the name
  /// is kept). Used by Registry::import_prefixed to snapshot a series
  /// under a new name without touching the source.
  void copy_samples_from(const TimeSeries& other) { samples_ = other.samples_; }

  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] const std::vector<Sample>& samples() const { return samples_; }
  [[nodiscard]] bool empty() const { return samples_.empty(); }

  /// Last value at or before `t`; `fallback` if none.
  [[nodiscard]] double value_at(rsf::sim::SimTime t, double fallback = 0.0) const;

  /// Time-weighted mean over [from, to] treating the series as a step
  /// function (last-value-holds). Returns `fallback` with no samples.
  [[nodiscard]] double time_weighted_mean(rsf::sim::SimTime from, rsf::sim::SimTime to,
                                          double fallback = 0.0) const;

  [[nodiscard]] double max_value() const;
  [[nodiscard]] double min_value() const;

 private:
  std::string name_;
  std::vector<Sample> samples_;
};

}  // namespace rsf::telemetry
