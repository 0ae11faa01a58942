#include "core/power_manager.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

namespace rsf::core {

namespace {
/// Lanes are restored only while power stays below cap minus this
/// margin (an anti-flap gap).
constexpr double kRestoreMarginWatts = 10.0;
/// Lanes are restored only while some link runs at least this hot.
constexpr double kRestoreUtilization = 0.6;
/// Never shed below this many lanes on a link.
constexpr int kMinLanes = 1;

/// A NaN cap would silently disable capping: every comparison against
/// it is false.
void check_cap(double cap_watts) {
  if (!(std::isfinite(cap_watts) && cap_watts >= 0)) {
    throw std::invalid_argument("PowerManager: cap_watts must be finite and >= 0");
  }
}
}  // namespace

PowerManager::PowerManager(plp::PlpEngine* engine, phy::PhysicalPlant* plant,
                           PowerManagerConfig config)
    : engine_(engine), plant_(plant), config_(config) {
  if (engine_ == nullptr || plant_ == nullptr) {
    throw std::invalid_argument("PowerManager: null dependency");
  }
  check_cap(config_.cap_watts);
  if (config_.max_ops_per_epoch < 0) {
    throw std::invalid_argument("PowerManager: max_ops_per_epoch < 0");
  }
}

void PowerManager::set_cap(double cap_watts) {
  check_cap(cap_watts);
  config_.cap_watts = cap_watts;
}

int PowerManager::apply(const RackSnapshot& snapshot) {
  int ops = 0;
  if (snapshot.rack_power_watts > config_.cap_watts) {
    for (int i = 0; i < config_.max_ops_per_epoch &&
                    snapshot.rack_power_watts > config_.cap_watts;
         ++i) {
      const std::size_t before = sheds_;
      shed_one(snapshot);
      if (sheds_ == before) break;  // no candidate left
      ++ops;
    }
  } else if (snapshot.rack_power_watts < config_.cap_watts - kRestoreMarginWatts &&
             !shed_.empty()) {
    // Restore only under demand pressure: some link is running hot.
    const bool pressure =
        std::any_of(snapshot.links.begin(), snapshot.links.end(),
                    [this](const LinkObservation& o) {
                      return o.ready && o.utilization >= kRestoreUtilization;
                    });
    if (pressure) {
      for (int i = 0; i < config_.max_ops_per_epoch && !shed_.empty(); ++i) {
        restore_one();
        ++ops;
      }
    }
  }
  return ops;
}

void PowerManager::shed_one(const RackSnapshot& snapshot) {
  // Least-utilised ready link that still has lanes to give.
  const LinkObservation* best = nullptr;
  for (const LinkObservation& obs : snapshot.links) {
    if (!obs.ready || obs.lane_count <= kMinLanes) continue;
    if (!plant_->has_link(obs.link) || plant_->link_busy(obs.link)) continue;
    if (best == nullptr || obs.utilization < best->utilization) best = &obs;
  }
  if (best == nullptr) return;
  ++sheds_;
  const int keep = best->lane_count - 1;
  engine_->submit(plp::SplitCommand{best->link, keep}, [this](const plp::PlpResult& r) {
    if (!r.ok || r.created.size() != 2) return;
    const phy::LinkId kept = r.created[0];
    const phy::LinkId spare = r.created[1];
    engine_->submit(plp::ShutdownCommand{spare}, [this, kept, spare](const plp::PlpResult& r2) {
      if (r2.ok) shed_.push_back(ShedRecord{spare, kept});
    });
  });
}

void PowerManager::restore_one() {
  ShedRecord rec = shed_.back();
  shed_.pop_back();
  if (!plant_->has_link(rec.spare)) return;  // consumed by other planners
  ++restores_;
  engine_->submit(plp::BringUpCommand{rec.spare}, [this, rec](const plp::PlpResult& r) {
    if (!r.ok) return;
    // Re-bundle with the sibling if it still exists; otherwise the
    // spare simply serves as an independent one-lane link.
    if (plant_->has_link(rec.partner)) {
      engine_->submit(plp::BundleCommand{rec.partner, rec.spare});
    }
  });
}

}  // namespace rsf::core
