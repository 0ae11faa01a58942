// rsf::fabric — routing.
//
// The router answers one question per hop: given a packet at `node`
// heading for `dst`, which usable link should it take? Two policies:
//
//  * kMinCost — Dijkstra over per-link costs. The default cost is the
//    link's unloaded one-way latency for a reference frame plus a
//    per-hop switching penalty; the Closed Ring Control overrides it
//    with live price tags (paper §3.2), making routing congestion-,
//    health- and power-aware.
//  * kDimensionOrder — classic X-then-Y over grid/torus coordinates;
//    the static baseline the paper's adaptive fabric is compared to.
//
// Under one (topology version, price generation) stamp the router
// builds one flat graph of the usable, unreserved links with their
// costs, pricing each link once. Distance rows are cached per
// destination over it and rebuilt lazily when the stamp changes.
#pragma once

#include <functional>
#include <optional>
#include <vector>

#include "fabric/topology.hpp"
#include "phy/types.hpp"
#include "phy/units.hpp"
#include "sim/time.hpp"

namespace rsf::fabric {

/// A hop's switch pipeline latency (a state-of-the-art L2 cut-through
/// lookup + crossbar), the same in every rack. The Network charges it
/// at every forwarding node and the Router prices each hop with it.
inline constexpr rsf::sim::SimTime kSwitchLatency = rsf::sim::SimTime::nanoseconds(450);

enum class RoutingPolicy { kMinCost, kDimensionOrder };

class Router {
 public:
  /// Cost of crossing a link, in arbitrary but consistent units.
  using PriceFn = std::function<double(phy::LinkId)>;

  Router(const Topology* topo, RoutingPolicy policy = RoutingPolicy::kMinCost);

  [[nodiscard]] RoutingPolicy policy() const { return policy_; }

  /// Install live prices (CRC). Pass nullptr to restore the default
  /// unloaded-latency cost. Bumps the price generation.
  void set_price_fn(PriceFn fn);
  /// Invalidate caches after in-place price changes.
  void bump_prices() { ++price_generation_; }

  /// Next usable link from `at` toward `dst`, or nullopt if
  /// unreachable right now. Inline: a memoized min-cost answer in a
  /// fresh row is one stamp compare and one array read; every other
  /// case goes out of line.
  [[nodiscard]] std::optional<phy::LinkId> next_hop(phy::NodeId at, phy::NodeId dst) {
    if (policy_ == RoutingPolicy::kMinCost && at < n_ && dst < n_) {
      const Stamp& s = stamps_[dst];
      if (s.topo_version == plant_->version() && s.price_generation == price_generation_) {
        const phy::LinkId memo = next_[std::size_t{dst} * n_ + at];
        if (memo == kNextNone) return std::nullopt;
        if (memo != kNextUnknown) return memo;
      }
    }
    return next_hop_slow(at, dst);
  }

  /// Total min-cost from src to dst under current prices (kMinCost
  /// semantics regardless of policy); nullopt if unreachable.
  [[nodiscard]] std::optional<double> path_cost(phy::NodeId src, phy::NodeId dst);

  /// Links of the current min-cost path (empty if unreachable).
  [[nodiscard]] std::vector<phy::LinkId> path(phy::NodeId src, phy::NodeId dst);

  /// Hop count of the current min-cost path; -1 if unreachable.
  [[nodiscard]] int hop_count(phy::NodeId src, phy::NodeId dst);

  /// The default (unloaded latency) cost of a link; exposed so the CRC
  /// can build price tags as latency + penalties.
  [[nodiscard]] double default_cost(phy::LinkId link) const;

 private:
  /// The (topology version, price generation) a destination's row was
  /// built under. {0, 0} never matches: price generations start at 1.
  struct Stamp {
    std::uint64_t topo_version = 0;
    std::uint64_t price_generation = 0;
  };

  /// One direction of a usable, unreserved link, priced.
  struct Edge {
    phy::LinkId link;
    phy::NodeId to;
    double cost;
  };

  /// next_ sentinels. Real LinkIds are dense small integers; these
  /// two top values can never be allocated.
  static constexpr phy::LinkId kNextUnknown = phy::kInvalidLink;
  static constexpr phy::LinkId kNextNone = phy::kInvalidLink - 1;

  [[nodiscard]] double cost(phy::LinkId link) const;
  /// Rebuilds the edge graph if the stamp moved since it was built.
  void refresh_graph();
  /// Edges out of `node`, in links_at order.
  [[nodiscard]] const Edge* row_begin(phy::NodeId node) const {
    return edges_.data() + row_start_[node];
  }
  [[nodiscard]] const Edge* row_end(phy::NodeId node) const {
    return edges_.data() + row_start_[node + 1];
  }
  /// dst's distance row, rebuilt first if its stamp is stale.
  const double* dist_row(phy::NodeId dst);

  const Topology* topo_;
  // The topology's plant, held directly so the inline stamp compare
  // loads the version through one pointer.
  const phy::PhysicalPlant* plant_;
  const RoutingPolicy policy_;
  const std::uint32_t n_;  // node count, fixed for a rack's lifetime
  PriceFn price_fn_;
  std::uint64_t price_generation_ = 1;
  // Row dst of dist_ and next_ starts at dst * n_ and is valid while
  // stamps_[dst] matches: dist = min cost at -> dst (kUnreachable if
  // none), next = the memoized argmin (kNextUnknown until asked,
  // kNextNone if no usable hop, and preset on the diagonal so at == dst
  // needs no test). Topology-version bumps (reservations included) and
  // price bumps stale every row at once.
  std::vector<Stamp> stamps_;
  std::vector<double> dist_;
  std::vector<phy::LinkId> next_;

  // The edge graph (CSR: node `v`'s edges are edges_[row_start_[v],
  // row_start_[v + 1])) and its stamp; 0 = never built.
  std::uint64_t graph_topo_version_ = 0;
  std::uint64_t graph_price_generation_ = 0;
  std::vector<std::uint32_t> row_start_;
  std::vector<Edge> edges_;
  // refresh_graph's per-link price memo, by LinkId; NaN = unpriced.
  std::vector<double> link_cost_;
  // Dijkstra's heap, reused across rebuilds.
  std::vector<std::pair<double, phy::NodeId>> heap_;

  [[nodiscard]] std::optional<phy::LinkId> next_hop_slow(phy::NodeId at, phy::NodeId dst);
  [[nodiscard]] std::optional<phy::LinkId> next_hop_min_cost(phy::NodeId at, phy::NodeId dst);
  [[nodiscard]] std::optional<phy::LinkId> next_hop_dimension_order(phy::NodeId at,
                                                                    phy::NodeId dst) const;
};

}  // namespace rsf::fabric
