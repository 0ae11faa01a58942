// rsf::workload — the slotted-transport crossover scenario family.
//
// The ext9 sweep compares two spine-sharing regimes end-to-end: pure
// packet (statistical FIFO sharing) and fraction carves (the
// controller's booking policy with Carve). This file adds the third
// regime — per-link TDMA slot schedules (Interconnect::book with Slots,
// driven by the same policy) — and a scenario family built to
// expose where each wins:
//
//  * kSkew  — a persistently hot rack pair sharing one spine leg with
//    continuous background traffic. Sustained contention: both carves
//    and slots pay off, and multipath slotting aggregates two parallel
//    legs where a carve pins one.
//  * kChurn — the hot pair sends in waves separated by gaps longer
//    than the fabric's slot inactivity timeout but shorter than the
//    carve's demote window. Slots self-expire inside every gap and
//    hand the capacity back to the background; the carve sits on it.
//  * kFlap  — sustained contention while one of the parallel hot legs
//    flaps down and up. Exercises failure-driven slot preemption and
//    the controller's re-book path.
//
// Every arm runs under each of the three regimes on a fixed topology:
// racks 0, 1, 2 with two parallel 25 Gbps legs 1 <-> 0 and two
// parallel 50 Gbps feeders 2 <-> 1. The hot incast is the transit
// pair rack 2 -> rack 0 — two hops, the fleet's biggest byte·hops
// consumer and therefore what both policies' demand ranking promotes;
// its multipath split lands on the fully disjoint second route
// (feeder + leg). Background is rack 1 -> rack 0, one hop on the same
// leg the hot primary crosses. Prices are frozen (utilisation weight
// 0) so the regimes differ only in how they share capacity, not in
// where routes land. The carve books 0.6 of a direction, the slotted
// regime 6 of every 8 slots, and an idle slot booking self-expires
// after 30 µs (the shared FleetScenario policy; see scenario.hpp).
//
// Deterministic: same config and seed, byte-identical metrics (the
// property sweep and the ext11 anchor both diff exactly that).
#pragma once

#include <cstdint>

#include "phy/units.hpp"
#include "workload/scenario.hpp"

namespace rsf::workload {

enum class SlottedArm {
  kSkew,
  kChurn,
  kFlap,
};

enum class SlottedRegime {
  /// Statistical sharing only (the repricing controller still runs).
  kPacket,
  /// Fraction carves: the controller's booking policy with Carve.
  kCarve,
  /// TDMA slot schedules: the controller's booking policy with Slots,
  /// multipath splitting across the parallel hot legs.
  kSlotted,
};

struct SlottedScenarioConfig {
  SlottedArm arm = SlottedArm::kSkew;
  SlottedRegime regime = SlottedRegime::kPacket;
  /// Per-packet loss probability on every spine link.
  double loss_prob = 0.0;
  /// Seeds the fleet (spine loss sampler); same seed, same bytes.
  std::uint64_t seed = 1;
  /// Bytes each hot source moves in total (split across waves in the
  /// churn arm — each wave must span several flow windows, or the
  /// whole wave's demand lands in one epoch and never builds a
  /// promote streak). Background sources each move twice this, so the
  /// background outlasts the hot job on the shared leg.
  phy::DataSize hot_bytes = phy::DataSize::kilobytes(96);
};

/// The result type perfbench and the ext11 sweep name.
using SlottedScenarioResult = FleetScenarioResult;

/// Builds the fixed three-rack fleet for one (arm, regime) cell,
/// drives the hot and background jobs to completion on one shared
/// clock, and verifies the run. Deterministic: same config and seed,
/// byte-identical metrics (tested).
class SlottedFleetScenario : public FleetScenario {
 public:
  explicit SlottedFleetScenario(SlottedScenarioConfig config);

  /// Run the scenario to completion; call once. Throws
  /// std::logic_error when the verifier rejects the run.
  SlottedScenarioResult run() { return drive(OnViolation::kThrow); }

  /// The hot transit pair every regime's policy promotes.
  static constexpr std::uint32_t kHotSrcRack = 2;
  static constexpr std::uint32_t kHotDstRack = 0;
  /// The first parallel 1 <-> 0 leg (SpineLinkId 0) — the hot
  /// primary's second hop, and the flap target.
  static constexpr std::uint32_t kFlapLink = 0;

 private:
  Jobs make_jobs(runtime::FleetRuntime& f) override;
  void schedule_timeline() override;

  SlottedScenarioConfig config_;
};

}  // namespace rsf::workload
