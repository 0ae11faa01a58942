// rsf::core — the closed control ring.
//
// The CRC's feedback channel (and its name): a telemetry token
// circulates node to node around the rack on a dedicated control ring.
// Each node appends observations for the links it owns (the links
// whose lower-numbered endpoint it is, so each link is reported once);
// when the token returns to the controller the rack snapshot is
// complete. Collection therefore costs simulated time proportional to
// the rack size — the controller's epoch must absorb the circulation
// latency, which the benches report as part of reaction time.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "core/observations.hpp"
#include "fabric/network.hpp"
#include "fabric/topology.hpp"
#include "phy/plant.hpp"
#include "plp/engine.hpp"
#include "sim/simulator.hpp"

namespace rsf::core {

class ControlRing {
 public:
  using SnapshotCallback = std::function<void(const RackSnapshot&)>;

  ControlRing(rsf::sim::Simulator* sim, phy::PhysicalPlant* plant, plp::PlpEngine* engine,
              fabric::Topology* topo, fabric::Network* net);

  /// Token flight time between adjacent nodes on the control ring.
  static constexpr rsf::sim::SimTime kHopLatency = rsf::sim::SimTime::nanoseconds(200);
  /// Per-node processing (stat readout, append).
  static constexpr rsf::sim::SimTime kNodeProcessing = rsf::sim::SimTime::nanoseconds(100);

  /// Launch one token circulation. `epoch_length` is the window the
  /// utilisation numbers are normalised over (time since the previous
  /// circulation). The callback fires when the token completes the
  /// ring, carrying the snapshot.
  void circulate(rsf::sim::SimTime epoch_length, SnapshotCallback cb);

  /// Simulated time one full circulation takes right now.
  [[nodiscard]] rsf::sim::SimTime circulation_time() const;

 private:
  void collect_node(phy::NodeId node, rsf::sim::SimTime epoch_length, RackSnapshot* snap);

  rsf::sim::Simulator* sim_;
  phy::PhysicalPlant* plant_;
  plp::PlpEngine* engine_;
  fabric::Topology* topo_;
  fabric::Network* net_;
  // Cumulative counters from the previous circulation, for epoch diffs,
  // indexed by LinkId (dense). Links first seen get a zero baseline.
  std::vector<rsf::sim::SimTime> prev_busy_;
  std::vector<std::uint64_t> prev_packets_;
};

}  // namespace rsf::core
