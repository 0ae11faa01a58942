// rsf::fabric — the topology view.
//
// Topology is the routing-facing projection of the physical plant: the
// set of nodes and the logical links currently connecting them. It
// stays synchronised with PLP reconfigurations by observing the engine
// (split/bundle/bypass change the link set at simulation time) and
// exposes a monotonically increasing version so routers know when to
// invalidate caches.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "phy/plant.hpp"
#include "phy/types.hpp"
#include "plp/engine.hpp"

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
  /// Builds the view and subscribes to the engine's change feed.
  /// `plant` and `engine` must outlive the topology.
  Topology(phy::PhysicalPlant* plant, plp::PlpEngine* engine, std::uint32_t node_count);

  Topology(const Topology&) = delete;
  Topology& operator=(const Topology&) = delete;

  [[nodiscard]] std::uint32_t node_count() const { return node_count_; }
  [[nodiscard]] const phy::PhysicalPlant& plant() const { return *plant_; }

  /// Logical links terminating at `node` (any readiness state).
  [[nodiscard]] const std::vector<phy::LinkId>& links_at(phy::NodeId node) const {
    return node < links_at_.size() ? links_at_[node] : empty_;
  }

  /// A link is usable when all its lanes are up and no PLP command is
  /// actuating on it.
  [[nodiscard]] bool usable(phy::LinkId link) const;


  /// Any usable link between the two nodes (lowest id if several).
  [[nodiscard]] std::optional<phy::LinkId> link_between(phy::NodeId a, phy::NodeId b) const;

  /// Bumped on any structural or readiness change.
  [[nodiscard]] std::uint64_t version() const { return version_; }

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

  /// Force a full rebuild from the plant (builders call this after
  /// creating links outside the engine).
  void rebuild();

 private:
  void on_links_changed(const std::vector<phy::LinkId>& removed,
                        const std::vector<phy::LinkId>& created);

  phy::PhysicalPlant* plant_;
  plp::PlpEngine* engine_;
  std::uint32_t node_count_;
  // Node ids are dense [0, node_count): adjacency and coordinates are
  // plain vectors so the per-hop links_at()/coord() lookups are one
  // index each.
  std::vector<std::vector<phy::LinkId>> links_at_;
  std::vector<std::optional<Coord>> coords_;
  std::uint64_t version_ = 1;
  int grid_w_ = 0;
  int grid_h_ = 0;
  bool wrap_x_ = false;
  bool wrap_y_ = false;
  std::vector<phy::LinkId> empty_;
};

}  // namespace rsf::fabric
