// rsf::core — link-health remediation (the "link health" term of the
// paper's §3.2 made actionable).
//
// Price tags already steer traffic away from sick links; the health
// manager goes further and *repairs the fabric*: when a link goes dark
// (hard lane failure) it decommissions the link and re-provisions it
// on the same cable, substituting dark spare lanes for the failed
// ones. The rack heals at the physical layer in roughly one
// provision time (~60 µs) instead of waiting for a technician.
#pragma once

#include <cstdint>
#include <set>

#include "core/observations.hpp"
#include "phy/plant.hpp"
#include "plp/engine.hpp"

namespace rsf::core {

class HealthManager {
 public:
  /// Maximum remediations started per epoch.
  static constexpr int kMaxOpsPerEpoch = 2;

  HealthManager(plp::PlpEngine* engine, phy::PhysicalPlant* plant);

  /// Inspect the snapshot; start decommission+re-provision chains for
  /// dark links with failed lanes, at most kMaxOpsPerEpoch of them.
  /// Returns remediations started.
  int apply(const RackSnapshot& snapshot);

  [[nodiscard]] std::uint64_t remediations_completed() const { return completed_; }

 private:
  void remediate(phy::LinkId link);

  plp::PlpEngine* engine_;
  phy::PhysicalPlant* plant_;
  std::set<phy::LinkId> in_flight_;
  std::uint64_t completed_ = 0;
};

}  // namespace rsf::core
