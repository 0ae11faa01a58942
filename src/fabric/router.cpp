#include "fabric/router.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

namespace rsf::fabric {

namespace {
constexpr double kUnreachable = std::numeric_limits<double>::infinity();
// cost() never returns NaN: +inf prices out, NaN falls back to default.
constexpr double kUnpriced = std::numeric_limits<double>::quiet_NaN();
// The switching penalty every hop pays at its receiving node, in ns.
constexpr double kHopPenaltyNs = kSwitchLatency.ns();
}  // namespace

Router::Router(const Topology* topo, RoutingPolicy policy)
    : topo_(topo),
      plant_(topo != nullptr ? &topo->plant() : nullptr),
      policy_(policy),
      n_(topo != nullptr ? topo->node_count() : 0) {
  if (topo_ == nullptr) throw std::invalid_argument("Router: null topology");
  stamps_.resize(n_);  // no stamp matches until its row is built
}

void Router::set_price_fn(PriceFn fn) {
  price_fn_ = std::move(fn);
  ++price_generation_;
}

double Router::default_cost(phy::LinkId link) const {
  const phy::LogicalLink& l = plant_->link(link);
  // Unloaded one-way latency of the reference frame, in nanoseconds,
  // plus the switching penalty paid at the hop's receiving node.
  return l.one_way_latency(phy::kReferenceFrame).ns() + kHopPenaltyNs;
}

double Router::cost(phy::LinkId link) const {
  if (price_fn_) {
    const double p = price_fn_(link);
    // +inf means "priced out" and must exclude the link, not fall back
    // to the default cost. Only NaN (no opinion) falls through.
    if (!std::isnan(p)) return std::max(p, 0.0) + kHopPenaltyNs;
  }
  return default_cost(link);
}

void Router::refresh_graph() {
  if (graph_topo_version_ == plant_->version() &&
      graph_price_generation_ == price_generation_) {
    return;
  }
  graph_topo_version_ = plant_->version();
  graph_price_generation_ = price_generation_;
  std::fill(link_cost_.begin(), link_cost_.end(), kUnpriced);
  const std::uint32_t n = topo_->node_count();
  row_start_.assign(n + 1, 0);
  edges_.clear();
  for (phy::NodeId node = 0; node < n; ++node) {
    for (phy::LinkId id : topo_->links_at(node)) {
      if (!topo_->usable(id)) continue;
      // Reserved links are private circuits, invisible to public
      // routing (their owner takes them directly in the transport).
      const phy::LogicalLink& l = plant_->link(id);
      if (l.reserved_for().has_value()) continue;
      const phy::NodeId next = l.other_end(node);
      if (next >= n) continue;
      if (id >= link_cost_.size()) link_cost_.resize(id + 1, kUnpriced);
      if (std::isnan(link_cost_[id])) link_cost_[id] = cost(id);  // once per link
      edges_.push_back(Edge{id, next, link_cost_[id]});
    }
    row_start_[node + 1] = static_cast<std::uint32_t>(edges_.size());
  }
}

const double* Router::dist_row(phy::NodeId dst) {
  // Callers guarantee dst < n_.
  Stamp& s = stamps_[dst];
  if (s.topo_version == plant_->version() && s.price_generation == price_generation_) {
    return dist_.data() + std::size_t{dst} * n_;
  }
  if (dist_.empty()) {  // the rows' storage, allocated on the first build
    dist_.resize(std::size_t{n_} * n_);
    next_.resize(std::size_t{n_} * n_);
  }
  refresh_graph();
  s = Stamp{plant_->version(), price_generation_};
  double* dist = dist_.data() + std::size_t{dst} * n_;
  phy::LinkId* next = next_.data() + std::size_t{dst} * n_;
  std::fill(dist, dist + n_, kUnreachable);
  std::fill(next, next + n_, kNextUnknown);
  next[dst] = kNextNone;  // lets the inline path answer at == dst
  dist[dst] = 0.0;
  // Dijkstra from dst over the edge graph, in a heap reused across
  // rebuilds: a min-heap on (cost, node) in the order std::greater<>
  // gives a pair, spelled out because C++20's synthesized <=> is not
  // free in this loop.
  const auto later = [](const std::pair<double, phy::NodeId>& a,
                        const std::pair<double, phy::NodeId>& b) {
    return a.first != b.first ? a.first > b.first : a.second > b.second;
  };
  heap_.clear();
  heap_.emplace_back(0.0, dst);
  while (!heap_.empty()) {
    std::pop_heap(heap_.begin(), heap_.end(), later);
    const auto [d, node] = heap_.back();
    heap_.pop_back();
    if (d > dist[node]) continue;
    for (const Edge* e = row_begin(node); e != row_end(node); ++e) {
      const double nd = d + e->cost;
      if (nd < dist[e->to]) {
        dist[e->to] = nd;
        heap_.emplace_back(nd, e->to);
        std::push_heap(heap_.begin(), heap_.end(), later);
      }
    }
  }
  return dist;
}

std::optional<phy::LinkId> Router::next_hop_slow(phy::NodeId at, phy::NodeId dst) {
  if (at == dst) return std::nullopt;
  if (policy_ == RoutingPolicy::kDimensionOrder) {
    return next_hop_dimension_order(at, dst);
  }
  return next_hop_min_cost(at, dst);
}

std::optional<phy::LinkId> Router::next_hop_min_cost(phy::NodeId at, phy::NodeId dst) {
  if (dst >= n_) return std::nullopt;
  const double* dist = dist_row(dst);
  if (at >= n_ || dist[at] == kUnreachable) return std::nullopt;
  // The per-(node, dst) argmin is memoized in the row and shares its
  // stamp: any topology-version or price bump rebuilt the row above
  // and reset its next_ entries with it.
  phy::LinkId& memo = next_[std::size_t{dst} * n_ + at];
  if (memo != kNextUnknown) {
    return memo == kNextNone ? std::nullopt : std::optional(memo);
  }
  // The argmin walks the same edges, in links_at order; strict < keeps
  // the first of equal-cost links.
  double best = kUnreachable;
  std::optional<phy::LinkId> best_link;
  for (const Edge* e = row_begin(at); e != row_end(at); ++e) {
    if (dist[e->to] == kUnreachable) continue;
    const double through = e->cost + dist[e->to];
    if (through < best) {
      best = through;
      best_link = e->link;
    }
  }
  memo = best_link.value_or(kNextNone);
  return best_link;
}

namespace {
/// Signed step (-1, 0, +1) that moves `from` toward `to`: the shorter
/// ring direction when the dimension wraps, the plain sign otherwise.
int dim_step(int from, int to, int n, bool wraps) {
  if (from == to) return 0;
  if (!wraps) return to > from ? +1 : -1;
  const int fwd = ((to - from) % n + n) % n;   // steps going +1
  const int back = n - fwd;                    // steps going -1
  return fwd <= back ? +1 : -1;
}
}  // namespace

std::optional<phy::LinkId> Router::next_hop_dimension_order(phy::NodeId at,
                                                            phy::NodeId dst) const {
  const auto ac = topo_->coord(at);
  const auto dc = topo_->coord(dst);
  const int w = topo_->grid_w();
  const int h = topo_->grid_h();
  if (!ac || !dc || w <= 0 || h <= 0) return std::nullopt;

  // X first, then Y. Strict dimension-order: only the wanted
  // direction is acceptable — falling back to the opposite direction
  // would let two adjacent nodes bounce a packet forever. If the
  // wanted link is unusable (mid-reconfiguration) the transport layer
  // waits and retries.
  const int want_dx = dim_step(ac->x, dc->x, w, topo_->wrap_x());
  const int want_dy = want_dx == 0 ? dim_step(ac->y, dc->y, h, topo_->wrap_y()) : 0;
  if (want_dx == 0 && want_dy == 0) return std::nullopt;

  for (phy::LinkId id : topo_->links_at(at)) {
    if (!topo_->usable(id)) continue;
    const phy::LogicalLink& l = plant_->link(id);
    // Dimension-order is the packet-switched baseline: it only uses
    // single-segment (adjacent) links.
    if (l.bypass_joints() != 0) continue;
    if (l.reserved_for().has_value()) continue;
    const auto oc = topo_->coord(l.other_end(at));
    if (!oc) continue;
    const int dx = oc->x - ac->x;
    const int dy = oc->y - ac->y;
    // Normalise wrap moves (e.g. x: 0 -> w-1 is a -1 step).
    const int sx = dx == 0 ? 0 : (std::abs(dx) == 1 ? dx : (dx > 0 ? -1 : +1));
    const int sy = dy == 0 ? 0 : (std::abs(dy) == 1 ? dy : (dy > 0 ? -1 : +1));
    if (want_dx != 0 && sx == want_dx && sy == 0) return id;
    if (want_dx == 0 && want_dy != 0 && sy == want_dy && sx == 0) return id;
  }
  return std::nullopt;
}

std::optional<double> Router::path_cost(phy::NodeId src, phy::NodeId dst) {
  if (src == dst) return 0.0;
  if (dst >= n_) return std::nullopt;
  const double* dist = dist_row(dst);
  if (src >= n_ || dist[src] == kUnreachable) return std::nullopt;
  return dist[src];
}

std::vector<phy::LinkId> Router::path(phy::NodeId src, phy::NodeId dst) {
  std::vector<phy::LinkId> out;
  phy::NodeId at = src;
  // Bounded walk to guard against (impossible under consistent tables)
  // loops.
  for (std::uint32_t i = 0; i <= topo_->node_count() && at != dst; ++i) {
    const auto link = next_hop_min_cost(at, dst);
    if (!link) return {};
    out.push_back(*link);
    at = plant_->link(*link).other_end(at);
  }
  return at == dst ? out : std::vector<phy::LinkId>{};
}

int Router::hop_count(phy::NodeId src, phy::NodeId dst) {
  if (src == dst) return 0;
  const auto p = path(src, dst);
  return p.empty() ? -1 : static_cast<int>(p.size());
}

}  // namespace rsf::fabric
