#include "fabric/builders.hpp"

#include <numeric>
#include <stdexcept>

namespace rsf::fabric {

namespace {

/// Every cable's lanes run at the paper's 25 Gb/s.
constexpr phy::DataRate kLaneRate = phy::DataRate::gbps(25);
/// Distance between adjacent nodes: the paper assumes a switching
/// element every ~2 m of rack.
constexpr double kHopMeters = 2.0;

std::vector<int> first_lanes(int k) {
  std::vector<int> lanes(static_cast<std::size_t>(k));
  std::iota(lanes.begin(), lanes.end(), 0);
  return lanes;
}

Rack make_rack_shell(rsf::sim::Simulator* sim, RackParams params) {
  if (sim == nullptr) throw std::invalid_argument("build: null simulator");
  if (params.width <= 0 || params.height <= 0) {
    throw std::invalid_argument("build: non-positive dimensions");
  }
  if (params.lanes_per_link <= 0 || params.lanes_per_link > params.lanes_per_cable) {
    throw std::invalid_argument("build: lanes_per_link must be in [1, lanes_per_cable]");
  }
  Rack rack;
  rack.sim = sim;
  rack.params = params;
  rack.plant = std::make_unique<phy::PhysicalPlant>();
  return rack;
}

void finish_rack(Rack& rack, const std::vector<phy::LinkId>& initial_links) {
  const RackParams& p = rack.params;
  rack.engine = std::make_unique<plp::PlpEngine>(rack.sim, rack.plant.get(), p.plp_caps);
  for (phy::LinkId id : initial_links) rack.engine->instant_bring_up(id);
  rack.topology = std::make_unique<Topology>(rack.plant.get(),
                                             static_cast<std::uint32_t>(p.width * p.height));
  rack.topology->set_grid_dims(p.width, p.height);
  for (int y = 0; y < p.height; ++y) {
    for (int x = 0; x < p.width; ++x) {
      rack.topology->set_coord(static_cast<phy::NodeId>(y * p.width + x), Coord{x, y});
    }
  }
  rack.router = std::make_unique<Router>(rack.topology.get(), p.routing);
  rack.network = std::make_unique<Network>(rack.sim, rack.plant.get(), rack.topology.get(),
                                           rack.router.get(), p.net_config, p.registry);
}

/// Creates the cable a->b and (optionally) its initial adjacent link.
void wire(Rack& rack, phy::NodeId a, phy::NodeId b, double meters,
          std::vector<phy::LinkId>& links_out) {
  const RackParams& p = rack.params;
  const phy::CableId cable =
      rack.plant->add_cable(a, b, meters, p.medium, p.lanes_per_cable, kLaneRate);
  links_out.push_back(rack.plant->create_adjacent_link(cable, first_lanes(p.lanes_per_link),
                                                       phy::FecSpec::of(p.fec)));
}

}  // namespace

phy::NodeId Rack::node_at(int x, int y) const {
  if (x < 0 || x >= params.width || y < 0 || y >= params.height) {
    throw std::out_of_range("Rack::node_at: coordinates outside grid");
  }
  return static_cast<phy::NodeId>(y * params.width + x);
}

double Rack::total_power_watts() const {
  return plant->total_power_watts() + network->switch_power_watts();
}

Rack build_grid(rsf::sim::Simulator* sim, RackParams params) {
  Rack rack = make_rack_shell(sim, params);
  std::vector<phy::LinkId> links;
  const int w = params.width;
  const int h = params.height;
  for (int y = 0; y < h; ++y) {
    for (int x = 0; x < w; ++x) {
      const auto n = static_cast<phy::NodeId>(y * w + x);
      if (x + 1 < w) wire(rack, n, n + 1, kHopMeters, links);
      if (y + 1 < h) wire(rack, n, n + static_cast<phy::NodeId>(w), kHopMeters, links);
    }
  }
  finish_rack(rack, links);
  return rack;
}

Rack build_torus(rsf::sim::Simulator* sim, RackParams params) {
  Rack rack = make_rack_shell(sim, params);
  std::vector<phy::LinkId> links;
  const int w = params.width;
  const int h = params.height;
  for (int y = 0; y < h; ++y) {
    for (int x = 0; x < w; ++x) {
      const auto n = static_cast<phy::NodeId>(y * w + x);
      if (x + 1 < w) wire(rack, n, n + 1, kHopMeters, links);
      if (y + 1 < h) wire(rack, n, n + static_cast<phy::NodeId>(w), kHopMeters, links);
    }
  }
  // Wraparound cables: physically they run the length of the row or
  // column.
  for (int y = 0; y < h && w > 2; ++y) {
    const auto west = static_cast<phy::NodeId>(y * w);
    const auto east = static_cast<phy::NodeId>(y * w + (w - 1));
    wire(rack, east, west, kHopMeters * (w - 1), links);
  }
  for (int x = 0; x < w && h > 2; ++x) {
    const auto north = static_cast<phy::NodeId>(x);
    const auto south = static_cast<phy::NodeId>((h - 1) * w + x);
    wire(rack, south, north, kHopMeters * (h - 1), links);
  }
  finish_rack(rack, links);
  rack.topology->set_wraps(w > 2, h > 2);
  return rack;
}

Rack build_chain(rsf::sim::Simulator* sim, int n, RackParams params) {
  if (n < 2) throw std::invalid_argument("build_chain: need >= 2 nodes");
  params.width = n;
  params.height = 1;
  Rack rack = make_rack_shell(sim, params);
  std::vector<phy::LinkId> links;
  for (int i = 0; i + 1 < n; ++i) {
    wire(rack, static_cast<phy::NodeId>(i), static_cast<phy::NodeId>(i + 1),
         kHopMeters, links);
  }
  finish_rack(rack, links);
  return rack;
}

Rack build_ring(rsf::sim::Simulator* sim, int n, RackParams params) {
  if (n < 3) throw std::invalid_argument("build_ring: need >= 3 nodes");
  params.width = n;
  params.height = 1;
  Rack rack = make_rack_shell(sim, params);
  std::vector<phy::LinkId> links;
  for (int i = 0; i + 1 < n; ++i) {
    wire(rack, static_cast<phy::NodeId>(i), static_cast<phy::NodeId>(i + 1),
         kHopMeters, links);
  }
  wire(rack, static_cast<phy::NodeId>(n - 1), 0, kHopMeters * (n - 1), links);
  finish_rack(rack, links);
  rack.topology->set_wraps(true, false);
  return rack;
}

}  // namespace rsf::fabric
