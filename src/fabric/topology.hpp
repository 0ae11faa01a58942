// rsf::fabric — the topology view.
//
// Topology is the routing-facing projection of the physical plant: the
// set of nodes and the logical links currently connecting them, plus
// the grid coordinates the builders attach. It keeps no graph state of
// its own: adjacency, busy bits and the version routers key their
// caches on are the plant's, which bumps the version itself on every
// change to a routing input (see PhysicalPlant::version), so a link
// created or destroyed by anyone is seen at once.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "phy/plant.hpp"
#include "phy/types.hpp"

namespace rsf::fabric {

/// Grid/torus coordinates attached to nodes by the builders; used by
/// dimension-order routing and by pretty-printers.
struct Coord {
  int x = 0;
  int y = 0;

  friend bool operator==(const Coord&, const Coord&) = default;
};

class Topology {
 public:
  /// `plant` must outlive the topology.
  Topology(const phy::PhysicalPlant* plant, std::uint32_t node_count);

  Topology(const Topology&) = delete;
  Topology& operator=(const Topology&) = delete;

  [[nodiscard]] std::uint32_t node_count() const { return node_count_; }
  [[nodiscard]] const phy::PhysicalPlant& plant() const { return *plant_; }

  /// Logical links terminating at `node` (any readiness state), in
  /// ascending id order.
  [[nodiscard]] const std::vector<phy::LinkId>& links_at(phy::NodeId node) const {
    return plant_->links_at(node);
  }

  /// A link is usable when all its lanes are up and no PLP command is
  /// actuating on it.
  [[nodiscard]] bool usable(phy::LinkId link) const {
    return plant_->has_link(link) && plant_->link(link).ready() && !plant_->link_busy(link);
  }

  /// Any usable link between the two nodes (lowest id if several).
  [[nodiscard]] std::optional<phy::LinkId> link_between(phy::NodeId a, phy::NodeId b) const;

  /// The plant's version: bumped on any change to a routing input.
  [[nodiscard]] std::uint64_t version() const { return plant_->version(); }

  void set_coord(phy::NodeId node, Coord c);
  [[nodiscard]] std::optional<Coord> coord(phy::NodeId node) const {
    return node < coords_.size() ? coords_[node] : std::nullopt;
  }

  /// Grid/torus extents, set by the builders; needed by wrap-aware
  /// dimension-order routing.
  void set_grid_dims(int w, int h) {
    grid_w_ = w;
    grid_h_ = h;
  }
  [[nodiscard]] int grid_w() const { return grid_w_; }
  [[nodiscard]] int grid_h() const { return grid_h_; }

  /// Whether the built topology provides wraparound links per
  /// dimension. Dimension-order routing needs this: on a torus the
  /// shorter ring direction may cross the wrap, on a grid it must not
  /// (preferring a nonexistent wrap ping-pongs packets at the edges).
  void set_wraps(bool x, bool y) {
    wrap_x_ = x;
    wrap_y_ = y;
  }
  [[nodiscard]] bool wrap_x() const { return wrap_x_; }
  [[nodiscard]] bool wrap_y() const { return wrap_y_; }

 private:
  const phy::PhysicalPlant* plant_;
  std::uint32_t node_count_;
  // Node ids are dense [0, node_count): coordinates are a plain vector
  // so the per-hop coord() lookup is one index.
  std::vector<std::optional<Coord>> coords_;
  int grid_w_ = 0;
  int grid_h_ = 0;
  bool wrap_x_ = false;
  bool wrap_y_ = false;
};

}  // namespace rsf::fabric
