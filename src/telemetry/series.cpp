#include "telemetry/series.hpp"

#include <algorithm>
#include <limits>

namespace rsf::telemetry {

using rsf::sim::SimTime;

double TimeSeries::value_at(SimTime t, double fallback) const {
  double v = fallback;
  for (const Sample& s : samples_) {
    if (s.time > t) break;
    v = s.value;
  }
  return v;
}

double TimeSeries::time_weighted_mean(SimTime from, SimTime to, double fallback) const {
  if (samples_.empty() || to <= from) return fallback;
  double acc = 0;
  SimTime cursor = from;
  double current = value_at(from, fallback);
  for (const Sample& s : samples_) {
    if (s.time <= from) continue;
    if (s.time >= to) break;
    acc += current * static_cast<double>((s.time - cursor).ps());
    cursor = s.time;
    current = s.value;
  }
  acc += current * static_cast<double>((to - cursor).ps());
  return acc / static_cast<double>((to - from).ps());
}

double TimeSeries::max_value() const {
  double v = -std::numeric_limits<double>::infinity();
  for (const Sample& s : samples_) v = std::max(v, s.value);
  return samples_.empty() ? 0.0 : v;
}

double TimeSeries::min_value() const {
  double v = std::numeric_limits<double>::infinity();
  for (const Sample& s : samples_) v = std::min(v, s.value);
  return samples_.empty() ? 0.0 : v;
}

}  // namespace rsf::telemetry
