#include "fabric/topology.hpp"

#include <algorithm>
#include <stdexcept>

namespace rsf::fabric {

Topology::Topology(phy::PhysicalPlant* plant, plp::PlpEngine* engine,
                   std::uint32_t node_count)
    : plant_(plant), engine_(engine), node_count_(node_count) {
  if (plant_ == nullptr || engine_ == nullptr) {
    throw std::invalid_argument("Topology: null plant or engine");
  }
  engine_->add_topology_observer(
      [this](const std::vector<phy::LinkId>& removed, const std::vector<phy::LinkId>& created) {
        on_links_changed(removed, created);
      });
  engine_->add_readiness_observer([this](phy::LinkId, bool) { ++version_; });
  // Physical failures change link usability without changing the link
  // set: bump the version so routing tables refresh.
  plant_->add_change_observer([this] { ++version_; });
  rebuild();
}

void Topology::rebuild() {
  links_at_.assign(node_count_, {});
  for (phy::LinkId id : plant_->link_ids()) {
    const phy::LogicalLink& l = plant_->link(id);
    if (l.end_a() < node_count_) links_at_[l.end_a()].push_back(id);
    if (l.end_b() < node_count_) links_at_[l.end_b()].push_back(id);
  }
  // link_ids() is sorted, so each adjacency list already is.
  ++version_;
}

void Topology::on_links_changed(const std::vector<phy::LinkId>&,
                                const std::vector<phy::LinkId>&) {
  // Change sets are small but touch arbitrary nodes; a full rebuild is
  // O(links) and reconfigurations are rare relative to packet events.
  rebuild();
}

void Topology::set_coord(phy::NodeId node, Coord c) {
  if (node >= coords_.size()) coords_.resize(std::max<std::size_t>(node + 1, node_count_));
  coords_[node] = c;
}

bool Topology::usable(phy::LinkId link) const {
  return plant_->has_link(link) && plant_->link(link).ready() && !engine_->link_busy(link);
}

std::optional<phy::LinkId> Topology::link_between(phy::NodeId a, phy::NodeId b) const {
  for (phy::LinkId id : links_at(a)) {
    const phy::LogicalLink& l = plant_->link(id);
    if (l.connects(b) && usable(id)) return id;
  }
  return std::nullopt;
}

}  // namespace rsf::fabric
