// rsf::workload — the skewed-fleet scenario family.
//
// Canned fleets whose load is deliberately *not* uniform: a hot rack
// pair swamping one spine direction while background traffic shares
// it, one spine leg running at a fraction of its siblings' rate, and
// mixed rack sizes under a single spanning shuffle. Every scenario
// runs with the controller's carve policy on or off, which is how the
// repro compares the paper's circuit-style (reserved capacity) and
// packet-style (statistical sharing) regimes end-to-end at fleet
// scale (the ext9 sweep). The drive, the verifier and the result are
// the shared FleetScenario's.
#pragma once

#include <cstdint>

#include "phy/units.hpp"
#include "workload/scenario.hpp"

namespace rsf::workload {

enum class SkewedScenarioKind {
  /// One rack's nodes swarm a single victim rack (a persistently hot
  /// (src, dst) pair) while background flows share the same spine
  /// direction — the canonical promotion target.
  kHotRackIncast,
  /// A spine ring where one leg runs at a fraction of its siblings'
  /// rate; the hot pair's direct route crosses the slow leg, so
  /// repricing and reservations pull in different directions.
  kSlowSpineLeg,
  /// Racks of different sizes (2x2, 4x4, 3x3) under one spanning
  /// shuffle, with a background incast fighting for the same spine.
  kMixedRackSizes,
};

struct SkewedScenarioConfig {
  SkewedScenarioKind kind = SkewedScenarioKind::kHotRackIncast;
  /// Carve policy on the fleet controller (a 0.6 carve for one pair).
  /// Off = pure packet sharing (the repricing controller always runs).
  bool reservations = false;
  /// Per-packet loss probability applied to every spine link.
  double loss_prob = 0.0;
  /// Controller utilisation repricing weight. 0 freezes prices
  /// entirely (the backlog repricing term is zeroed with it).
  double utilization_weight = 8.0;
  /// Seeds the fleet (spine loss sampler); same seed, same bytes.
  std::uint64_t seed = 1;
  /// Bytes the hot job moves per (src, dst) pair. Background pairs
  /// move the same amount, so the contention is sustained for the
  /// whole hot job — the regime where circuits pay off.
  phy::DataSize hot_bytes = phy::DataSize::kilobytes(192);
};

/// Builds the fleet for one SkewedScenarioKind, drives the hot and
/// background jobs to completion on one shared clock, and verifies the
/// run. Deterministic: same config and seed, byte-identical metrics.
class SkewedFleetScenario : public FleetScenario {
 public:
  explicit SkewedFleetScenario(SkewedScenarioConfig config);

  /// Run the scenario to completion; call once. Throws
  /// std::logic_error when the verifier rejects the run.
  FleetScenarioResult run() { return drive(OnViolation::kThrow); }

 private:
  Jobs make_jobs(runtime::FleetRuntime& f) override;

  SkewedScenarioConfig config_;
};

}  // namespace rsf::workload
