// rsf::fabric — rack builders.
//
// Builders assemble a PhysicalPlant (cables + initial logical links)
// and its Topology for the standard rack shapes the experiments use:
//
//  * grid  — W x H mesh, the paper's Figure 2 starting point;
//  * torus — grid + wraparound links (built natively, for baselines;
//            the adaptive fabric *reaches* this shape via PLP instead);
//  * ring / chain — 1-D shapes for latency breakdown experiments.
//
// Every lane runs at the paper's 25 Gb/s and starts at a pre-FEC BER
// of 1e-12. All cables get `lanes_per_cable` lanes, but only
// `lanes_per_link` are claimed by the initial links — the rest stay
// free (dark) for the CRC to provision. Figure 2's "grid at two lanes per link" is
// grid(w, h, lanes_per_cable=2, lanes_per_link=2).
#pragma once

#include <memory>
#include <vector>

#include "fabric/network.hpp"
#include "fabric/router.hpp"
#include "fabric/topology.hpp"
#include "phy/plant.hpp"
#include "plp/engine.hpp"
#include "sim/simulator.hpp"

namespace rsf::fabric {

struct RackParams {
  int width = 4;
  int height = 4;
  /// Physical lanes in every cable.
  int lanes_per_cable = 2;
  /// Lanes claimed by each initial logical link (<= lanes_per_cable).
  int lanes_per_link = 2;
  phy::Medium medium = phy::Medium::kFiber;
  phy::FecScheme fec = phy::FecScheme::kRsKr4;
  plp::PlpCapabilities plp_caps = plp::PlpCapabilities::all();
  NetworkConfig net_config{};
  RoutingPolicy routing = RoutingPolicy::kMinCost;
  /// Optional shared metric registry handed to the Network (and by the
  /// runtime to every component). Must outlive the rack. nullptr lets
  /// the network own a private one.
  telemetry::Registry* registry = nullptr;
};

/// Everything a bench needs, wired together. Members are declared in
/// dependency order so destruction is safe.
struct Rack {
  rsf::sim::Simulator* sim = nullptr;
  std::unique_ptr<phy::PhysicalPlant> plant;
  std::unique_ptr<plp::PlpEngine> engine;
  std::unique_ptr<Topology> topology;
  std::unique_ptr<Router> router;
  std::unique_ptr<Network> network;
  RackParams params;

  [[nodiscard]] phy::NodeId node_at(int x, int y) const;
  [[nodiscard]] int node_count() const { return params.width * params.height; }

  /// Total electrical power: plant (lanes + bypass) plus switching.
  [[nodiscard]] double total_power_watts() const;
};

/// W x H mesh; every adjacent pair joined by a cable; initial links are
/// adjacent links over the first `lanes_per_link` lanes, brought up
/// instantly (bring-up happens before the experiment clock matters).
[[nodiscard]] Rack build_grid(rsf::sim::Simulator* sim, RackParams params);

/// Same as build_grid but adds wraparound cables and links: a native
/// torus baseline.
[[nodiscard]] Rack build_torus(rsf::sim::Simulator* sim, RackParams params);

/// N nodes in a line (width=N, height=1), cable per adjacent pair.
[[nodiscard]] Rack build_chain(rsf::sim::Simulator* sim, int n, RackParams params);

/// N nodes in a ring.
[[nodiscard]] Rack build_ring(rsf::sim::Simulator* sim, int n, RackParams params);

}  // namespace rsf::fabric
