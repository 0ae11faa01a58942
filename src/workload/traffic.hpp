// rsf::workload — traffic matrices and destination patterns.
//
// A TrafficMatrix gives the relative demand between every (src, dst)
// pair. The standard rack-scale patterns are provided; the CRC's
// reconfiguration planner consumes the same matrices to decide where
// bypass capacity pays off.
#pragma once

#include <cstdint>
#include <vector>

#include "phy/types.hpp"
#include "sim/random.hpp"

namespace rsf::workload {

class TrafficMatrix {
 public:
  explicit TrafficMatrix(std::uint32_t nodes);

  [[nodiscard]] std::uint32_t nodes() const { return n_; }

  [[nodiscard]] double demand(phy::NodeId src, phy::NodeId dst) const;
  void set_demand(phy::NodeId src, phy::NodeId dst, double weight);

  /// Total outbound demand of `src`.
  [[nodiscard]] double row_sum(phy::NodeId src) const;

  /// Draw a destination for `src` proportional to demand(src, *).
  /// Returns src itself if the row is empty (callers skip those).
  [[nodiscard]] phy::NodeId sample_dst(phy::NodeId src, rsf::sim::RandomStream& rng) const;

  // --- Canonical patterns ---

  /// Every ordered pair equally likely.
  [[nodiscard]] static TrafficMatrix uniform(std::uint32_t nodes);
  /// `hot_fraction` of all demand targets `hot_node`; rest uniform.
  [[nodiscard]] static TrafficMatrix hotspot(std::uint32_t nodes, phy::NodeId hot_node,
                                             double hot_fraction);
  /// All nodes send to one node (the MapReduce reducer pathology).
  [[nodiscard]] static TrafficMatrix incast(std::uint32_t nodes, phy::NodeId sink);
  /// node i -> node (i + nodes/2) mod nodes: maximises grid distance,
  /// the pattern wraparound links help most.
  [[nodiscard]] static TrafficMatrix opposite(std::uint32_t nodes);
  /// All-to-all shuffle between two node sets (mappers -> reducers).
  [[nodiscard]] static TrafficMatrix shuffle(std::uint32_t nodes,
                                             const std::vector<phy::NodeId>& mappers,
                                             const std::vector<phy::NodeId>& reducers);

 private:
  [[nodiscard]] std::size_t idx(phy::NodeId s, phy::NodeId d) const;

  std::uint32_t n_;
  std::vector<double> w_;
};

}  // namespace rsf::workload
