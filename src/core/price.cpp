#include "core/price.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

namespace rsf::core {

double price_link(const LinkObservation& obs, const PriceWeights& w) {
  if (!obs.ready) return std::numeric_limits<double>::infinity();

  const double latency_term = w.alpha_latency * obs.unloaded_latency_ns;

  // Congestion: what queueing we have measured, plus a convex
  // utilisation penalty so routing spreads load *before* queues build.
  // The penalty is the M/M/1 waiting-time shape rho/(1-rho), scaled by
  // the link's own serialization scale (its unloaded latency).
  const double rho = std::clamp(obs.utilization, 0.0, 0.99);
  const double util_penalty = obs.unloaded_latency_ns * rho / (1.0 - rho);
  const double congestion_term = w.beta_congestion * (obs.mean_queue_delay_ns + util_penalty);

  const double health_term = w.gamma_health * obs.frame_loss * w.loss_penalty_ns;

  const double power_term = w.delta_power * obs.power_watts * w.watt_penalty_ns;

  return latency_term + congestion_term + health_term + power_term;
}

void PriceBook::update(const RackSnapshot& snapshot, const PriceWeights& weights) {
  constexpr double kNoOpinion = std::numeric_limits<double>::quiet_NaN();
  std::fill(prices_.begin(), prices_.end(), kNoOpinion);
  observed_ = 0;
  for (const LinkObservation& obs : snapshot.links) {
    if (obs.link >= prices_.size()) prices_.resize(obs.link + 1, kNoOpinion);
    double& p = prices_[obs.link];
    if (std::isnan(p)) ++observed_;
    p = price_link(obs, weights);
  }
  ++generation_;
}

}  // namespace rsf::core
