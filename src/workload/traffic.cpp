#include "workload/traffic.hpp"

#include <numeric>
#include <stdexcept>

namespace rsf::workload {

TrafficMatrix::TrafficMatrix(std::uint32_t nodes) : n_(nodes) {
  if (nodes == 0) throw std::invalid_argument("TrafficMatrix: zero nodes");
  w_.assign(static_cast<std::size_t>(nodes) * nodes, 0.0);
}

std::size_t TrafficMatrix::idx(phy::NodeId s, phy::NodeId d) const {
  if (s >= n_ || d >= n_) throw std::out_of_range("TrafficMatrix: node out of range");
  return static_cast<std::size_t>(s) * n_ + d;
}

double TrafficMatrix::demand(phy::NodeId s, phy::NodeId d) const { return w_[idx(s, d)]; }

void TrafficMatrix::set_demand(phy::NodeId s, phy::NodeId d, double weight) {
  if (weight < 0) throw std::invalid_argument("TrafficMatrix: negative demand");
  w_[idx(s, d)] = weight;
}

double TrafficMatrix::row_sum(phy::NodeId s) const {
  const std::size_t base = idx(s, 0);
  return std::accumulate(w_.begin() + static_cast<long>(base),
                         w_.begin() + static_cast<long>(base + n_), 0.0);
}

phy::NodeId TrafficMatrix::sample_dst(phy::NodeId src, rsf::sim::RandomStream& rng) const {
  const double sum = row_sum(src);
  if (sum <= 0) return src;
  double draw = rng.uniform(0.0, sum);
  const std::size_t base = idx(src, 0);
  for (std::uint32_t d = 0; d < n_; ++d) {
    draw -= w_[base + d];
    if (draw <= 0) return d;
  }
  return n_ - 1;
}

TrafficMatrix TrafficMatrix::uniform(std::uint32_t nodes) {
  TrafficMatrix m(nodes);
  for (std::uint32_t s = 0; s < nodes; ++s) {
    for (std::uint32_t d = 0; d < nodes; ++d) {
      if (s != d) m.set_demand(s, d, 1.0);
    }
  }
  return m;
}

TrafficMatrix TrafficMatrix::hotspot(std::uint32_t nodes, phy::NodeId hot_node,
                                     double hot_fraction) {
  if (hot_fraction < 0 || hot_fraction > 1) {
    throw std::invalid_argument("hotspot: fraction outside [0,1]");
  }
  TrafficMatrix m(nodes);
  const double uniform_share = (1.0 - hot_fraction) / std::max(1u, nodes - 1);
  for (std::uint32_t s = 0; s < nodes; ++s) {
    for (std::uint32_t d = 0; d < nodes; ++d) {
      if (s == d) continue;
      double w = uniform_share;
      if (d == hot_node) w += hot_fraction;
      m.set_demand(s, d, w);
    }
  }
  return m;
}

TrafficMatrix TrafficMatrix::incast(std::uint32_t nodes, phy::NodeId sink) {
  TrafficMatrix m(nodes);
  for (std::uint32_t s = 0; s < nodes; ++s) {
    if (s != sink) m.set_demand(s, sink, 1.0);
  }
  return m;
}

TrafficMatrix TrafficMatrix::opposite(std::uint32_t nodes) {
  TrafficMatrix m(nodes);
  for (std::uint32_t s = 0; s < nodes; ++s) {
    const phy::NodeId d = (s + nodes / 2) % nodes;
    if (d != s) m.set_demand(s, d, 1.0);
  }
  return m;
}

TrafficMatrix TrafficMatrix::shuffle(std::uint32_t nodes,
                                     const std::vector<phy::NodeId>& mappers,
                                     const std::vector<phy::NodeId>& reducers) {
  TrafficMatrix m(nodes);
  for (phy::NodeId s : mappers) {
    for (phy::NodeId d : reducers) {
      if (s != d) m.set_demand(s, d, 1.0);
    }
  }
  return m;
}

}  // namespace rsf::workload
