#include "fabric/topology.hpp"

#include <algorithm>
#include <stdexcept>

namespace rsf::fabric {

Topology::Topology(const phy::PhysicalPlant* plant, std::uint32_t node_count)
    : plant_(plant), node_count_(node_count) {
  if (plant_ == nullptr) throw std::invalid_argument("Topology: null plant");
}

void Topology::set_coord(phy::NodeId node, Coord c) {
  if (node >= coords_.size()) coords_.resize(std::max<std::size_t>(node + 1, node_count_));
  coords_[node] = c;
}

std::optional<phy::LinkId> Topology::link_between(phy::NodeId a, phy::NodeId b) const {
  for (phy::LinkId id : links_at(a)) {
    const phy::LogicalLink& l = plant_->link(id);
    if (l.connects(b) && usable(id)) return id;
  }
  return std::nullopt;
}

}  // namespace rsf::fabric
