// rsf::core — per-link price tags (paper §3.2).
//
// The CRC tags every link with a scalar price combining latency,
// congestion, link health and power. Routing minimises total price, so
// tuning the weights turns the same fabric into a latency-minimising,
// congestion-spreading or power-frugal network. Prices are in
// nanosecond-equivalent units so the latency term needs no scaling.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

#include "core/observations.hpp"
#include "phy/types.hpp"

namespace rsf::core {

struct PriceWeights {
  /// Weight of the unloaded latency term (ns -> price units).
  double alpha_latency = 1.0;
  /// Weight of the congestion term: measured queue delay plus an
  /// M/M/1-style utilisation penalty (ns at the knee).
  double beta_congestion = 1.0;
  /// Weight of link health: frame-loss probability, scaled to ns by
  /// `loss_penalty_ns` (a lost frame costs a retransmit round trip).
  double gamma_health = 1.0;
  /// Weight of power: watts scaled to ns by `watt_penalty_ns`.
  double delta_power = 0.0;

  double loss_penalty_ns = 50'000.0;  // ~ retry delay + requeue
  double watt_penalty_ns = 100.0;

  /// Latency-only pricing (ablation baseline).
  [[nodiscard]] static PriceWeights latency_only() {
    return PriceWeights{1.0, 0.0, 0.0, 0.0, 50'000.0, 100.0};
  }
  /// Balanced default: latency + congestion + health.
  [[nodiscard]] static PriceWeights balanced() { return PriceWeights{}; }
  /// Power-aware: like balanced but power-expensive links repel flows.
  [[nodiscard]] static PriceWeights power_aware() {
    return PriceWeights{1.0, 1.0, 1.0, 1.0, 50'000.0, 100.0};
  }
};

/// Price one observation under the given weights.
[[nodiscard]] double price_link(const LinkObservation& obs, const PriceWeights& w);

/// A published set of prices, consumable as the Router's PriceFn.
class PriceBook {
 public:
  void update(const RackSnapshot& snapshot, const PriceWeights& weights);

  /// Price of `link`. Three-valued: a finite price for observed ready
  /// links; +inf for links observed not-ready (the router excludes
  /// them); NaN for links the book has no opinion on yet (the router
  /// falls back to its default cost) — this keeps the fabric routable
  /// between CRC start and the first snapshot, and covers links
  /// created mid-epoch.
  /// Inline: every Dijkstra relaxation and next-hop argmin asks.
  [[nodiscard]] double price(phy::LinkId link) const {
    return link < prices_.size() ? prices_[link] : std::numeric_limits<double>::quiet_NaN();
  }

  /// Links the last update observed.
  [[nodiscard]] std::size_t size() const { return observed_; }
  [[nodiscard]] std::uint64_t generation() const { return generation_; }

 private:
  // Indexed by LinkId (dense and never reused), NaN where the last
  // snapshot had no observation.
  std::vector<double> prices_;
  std::size_t observed_ = 0;
  std::uint64_t generation_ = 0;
};

}  // namespace rsf::core
