#include "core/health_manager.hpp"

#include <algorithm>
#include <stdexcept>

namespace rsf::core {

HealthManager::HealthManager(plp::PlpEngine* engine, phy::PhysicalPlant* plant)
    : engine_(engine), plant_(plant) {
  if (engine_ == nullptr || plant_ == nullptr) {
    throw std::invalid_argument("HealthManager: null dependency");
  }
}

int HealthManager::apply(const RackSnapshot& snapshot) {
  int ops = 0;
  for (const LinkObservation& obs : snapshot.links) {
    if (ops >= kMaxOpsPerEpoch) break;
    if (obs.ready) continue;
    if (!plant_->has_link(obs.link)) continue;          // already gone
    if (plant_->link_busy(obs.link)) continue;          // being actuated
    if (in_flight_.contains(obs.link)) continue;        // already remediating
    if (plant_->failed_lanes_of_link(obs.link).empty()) continue;  // dark, not broken
    remediate(obs.link);
    ++ops;
  }
  return ops;
}

void HealthManager::remediate(phy::LinkId link) {
  const phy::LogicalLink& l = plant_->link(link);
  in_flight_.insert(link);

  // Multi-segment (bypass) links: tear down only. The planner that
  // built the chain can rebuild it from surviving lanes if still
  // worthwhile; routing has already been steered off by the infinite
  // price of a not-ready link.
  if (l.segments().size() != 1) {
    engine_->submit(plp::DecommissionCommand{link}, [this, link](const plp::PlpResult& r) {
      in_flight_.erase(link);
      if (r.ok) ++completed_;
    });
    return;
  }

  // Adjacent link: rebuild on the same cable, swapping failed member
  // lanes for free healthy ones.
  const phy::LinkSegment seg = l.segments().front();
  const phy::CableId cable = seg.cable;
  const phy::FecScheme fec = l.fec().scheme;

  std::vector<int> healthy_members;
  for (int lane : seg.lanes) {
    if (!plant_->cable(cable).lane(lane).is_failed()) healthy_members.push_back(lane);
  }
  const int needed = static_cast<int>(seg.lanes.size() - healthy_members.size());
  std::vector<int> replacements;
  for (int lane : plant_->free_lanes(cable)) {
    if (static_cast<int>(replacements.size()) == needed) break;
    if (!plant_->cable(cable).lane(lane).is_failed()) replacements.push_back(lane);
  }

  std::vector<int> new_lanes = healthy_members;
  new_lanes.insert(new_lanes.end(), replacements.begin(), replacements.end());
  if (new_lanes.empty()) {
    // Nothing usable on this cable: decommission and let routing cope.
    engine_->submit(plp::DecommissionCommand{link}, [this, link](const plp::PlpResult& r) {
      in_flight_.erase(link);
      if (r.ok) ++completed_;
    });
    return;
  }
  // Note: if there were not enough spares, the link comes back
  // narrower (degraded but alive) — the same graceful degradation the
  // power manager uses.
  engine_->submit(
      plp::DecommissionCommand{link},
      [this, link, cable, new_lanes, fec](const plp::PlpResult& r) {
        if (!r.ok) {
          in_flight_.erase(link);
          return;
        }
        engine_->submit(plp::ProvisionCommand{cable, new_lanes, fec},
                        [this, link](const plp::PlpResult& r2) {
                          in_flight_.erase(link);
                          if (r2.ok) ++completed_;
                        });
      });
}

}  // namespace rsf::core
