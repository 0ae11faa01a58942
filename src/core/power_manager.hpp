// rsf::core — the power manager (PLP #1 + #3 driver).
//
// Rack-scale systems inherit a traditional rack's power budget
// (paper §2). The power manager enforces a cap by *lane shedding*:
// when the rack is over budget it splits a lane off the least
// utilised multi-lane link and powers it down; when there is headroom
// and links run hot it powers shed lanes back up and re-bundles them.
// Capacity therefore degrades and recovers gracefully instead of the
// rack browning out.
#pragma once

#include <cstdint>
#include <vector>

#include "core/observations.hpp"
#include "phy/plant.hpp"
#include "plp/engine.hpp"

namespace rsf::core {

/// Checked by the PowerManager constructor (and set_cap for the cap),
/// which throws std::invalid_argument on a negative or non-finite
/// cap_watts, or max_ops_per_epoch < 0.
struct PowerManagerConfig {
  double cap_watts = 1e18;  // effectively uncapped by default
  /// Max shed/restore operations per epoch (actuation budget).
  int max_ops_per_epoch = 2;
};

class PowerManager {
 public:
  PowerManager(plp::PlpEngine* engine, phy::PhysicalPlant* plant,
               PowerManagerConfig config = {});

  /// Inspect the snapshot and submit shed/restore command chains.
  /// Returns the number of operations started.
  int apply(const RackSnapshot& snapshot);

  [[nodiscard]] std::size_t shed_lane_count() const { return shed_.size(); }
  [[nodiscard]] std::uint64_t sheds() const { return sheds_; }
  [[nodiscard]] std::uint64_t restores() const { return restores_; }
  [[nodiscard]] const PowerManagerConfig& config() const { return config_; }

  /// Adjust the cap at runtime. Callers that size the cap relative to
  /// the built rack's draw (e.g. "95% of uncapped") set it after
  /// construction; the next epoch enforces it.
  void set_cap(double cap_watts);

 private:
  struct ShedRecord {
    phy::LinkId spare = phy::kInvalidLink;   // dark link (1 lane)
    phy::LinkId partner = phy::kInvalidLink; // live sibling to re-bundle with
  };

  void shed_one(const RackSnapshot& snapshot);
  void restore_one();

  plp::PlpEngine* engine_;
  phy::PhysicalPlant* plant_;
  PowerManagerConfig config_;
  std::vector<ShedRecord> shed_;
  std::uint64_t sheds_ = 0;
  std::uint64_t restores_ = 0;
};

}  // namespace rsf::core
