// Property sweep: the determinism contract at fleet scope, stated as
// a property over seeds rather than a hand-picked scenario. For every
// seed, running the same scenario twice must produce the byte-identical
// metrics table and result — same packets, same retries, same
// controller decisions, same counter values — across all three fleet
// scenario families: skewed fleets (every kind, carves on and off),
// the chaos timeline (correlated failures, flaps, loss, carve policy)
// and the slotted transport (calendar bookings, expiry, multipath
// splits, weak flap events). Every run must pass the shared driver's
// verifier (conservation, completion before the horizon, slot-pool
// quiescence) on its own before the replay diff means anything.
// Across each sweep at least two seeds must render different tables,
// so a seed the scenario silently ignores cannot pass. The ctest label
// `property` runs this suite on its own CI leg.
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <set>
#include <string>

#include "phy/units.hpp"
#include "runtime/fleet.hpp"
#include "workload/chaos.hpp"
#include "workload/skewed.hpp"
#include "workload/slotted.hpp"

namespace rsf {
namespace {

constexpr std::uint64_t kSeeds = 16;

/// Runs one scenario and returns its fingerprint: the result fields
/// the families report plus the whole metrics table.
template <typename Scenario, typename Config>
std::string fingerprint(const Config& cfg,
                        const std::function<void(const workload::FleetScenarioResult&)>& check) {
  Scenario scenario(cfg);
  const auto r = scenario.run();
  EXPECT_TRUE(r.conservation_ok);
  EXPECT_TRUE(r.completed_before_horizon);
  EXPECT_TRUE(r.slots_at_baseline);
  EXPECT_EQ(r.flows_delivered + r.flows_failed, r.flows_offered);
  check(r);
  return std::to_string(r.hot.job_completion.ps()) + " " +
         std::to_string(r.background.job_completion.ps()) + " " +
         std::to_string(r.promotions) + " " + std::to_string(r.slot_reservations) + " " +
         std::to_string(r.slotted_bytes) + "\n" + scenario.fleet().metrics_table().to_string();
}

/// Every seed replays byte-identically, and the seeds are not all
/// alike.
void expect_replays_per_seed(const char* family,
                             const std::function<std::string(std::uint64_t)>& run) {
  std::set<std::string> distinct;
  for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
    const std::string first = run(seed);
    EXPECT_EQ(first, run(seed)) << family << " seed " << seed;
    distinct.insert(first);
  }
  EXPECT_GT(distinct.size(), 1u) << "every " << family << " seed rendered the same table";
}

TEST(FleetPropertySweep, SkewedRunsReplayByteIdenticallyPerSeed) {
  // Cycle every (kind, carve on/off) pair across the seeds: seeds 1-3
  // run every kind with carves on, 4-6 with them off, and so on.
  expect_replays_per_seed("skewed", [](std::uint64_t seed) {
    workload::SkewedScenarioConfig cfg;
    cfg.kind = static_cast<workload::SkewedScenarioKind>(seed % 3);
    cfg.reservations = (seed - 1) / 3 % 2 == 0;
    cfg.loss_prob = 0.01;  // exercise the spine RNG too
    cfg.seed = seed;
    return fingerprint<workload::SkewedFleetScenario>(
        cfg, [&cfg](const workload::FleetScenarioResult& r) {
          if (!cfg.reservations) EXPECT_EQ(r.reserved_bytes, 0u);
        });
  });
}

TEST(FleetPropertySweep, ChaosRunsReplayByteIdenticallyPerSeed) {
  expect_replays_per_seed("chaos", [](std::uint64_t seed) {
    workload::ChaosScenarioConfig cfg;
    cfg.seed = seed;
    cfg.loss_prob = 0.01;
    cfg.hot_bytes = phy::DataSize::kilobytes(48);
    cfg.random.enable = true;
    cfg.random.cuts = 2;
    cfg.random.flap_cycles = 1;
    return fingerprint<workload::ChaosScenario>(cfg, [](const workload::FleetScenarioResult&) {});
  });
}

TEST(FleetPropertySweep, SlottedRunsReplayByteIdenticallyPerSeed) {
  // Cycle the arms so the sweep covers steady slots, per-wave
  // expiry/re-promotion, and weak-event flap preemption.
  expect_replays_per_seed("slotted", [](std::uint64_t seed) {
    workload::SlottedScenarioConfig cfg;
    cfg.arm = static_cast<workload::SlottedArm>(seed % 3);
    cfg.regime = workload::SlottedRegime::kSlotted;
    cfg.loss_prob = 0.005;
    cfg.seed = seed;
    cfg.hot_bytes = phy::DataSize::kilobytes(48);
    return fingerprint<workload::SlottedFleetScenario>(
        cfg, [](const workload::FleetScenarioResult& r) {
          // The slotted regime actually engaged.
          EXPECT_GT(r.slot_reservations, 0u);
          EXPECT_GT(r.slotted_bytes, 0u);
        });
  });
}

}  // namespace
}  // namespace rsf
