// Property sweep: the determinism contract at fleet scope, stated as
// a property over seeds rather than a hand-picked scenario. For every
// seed, running the same scenario twice must produce the byte-identical
// metrics table — same packets, same retries, same controller
// decisions, same counter values — across both scenario families with
// the most moving parts: the chaos timeline (correlated failures,
// flaps, loss, carve policy) and the slotted transport (calendar
// bookings, expiry, multipath splits, weak flap events). Across the
// sweep at least two seeds must render different tables, so a seed
// the scenario silently ignores cannot pass. The ctest label
// `property` runs this suite on its own CI leg.
#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <string>

#include "phy/units.hpp"
#include "runtime/fleet.hpp"
#include "workload/chaos.hpp"
#include "workload/slotted.hpp"

namespace rsf {
namespace {

constexpr std::uint64_t kSeeds = 16;

TEST(FleetPropertySweep, ChaosRunsReplayByteIdenticallyPerSeed) {
  std::set<std::string> distinct;
  for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
    auto run = [seed] {
      workload::ChaosScenarioConfig cfg;
      cfg.seed = seed;
      cfg.loss_prob = 0.01;
      cfg.hot_bytes = phy::DataSize::kilobytes(48);
      cfg.random.enable = true;
      cfg.random.cuts = 2;
      cfg.random.flap_cycles = 1;
      workload::ChaosScenario scenario(cfg);
      const workload::ChaosScenarioResult r = scenario.run();
      // Every run must hold the invariant pair on its own before the
      // replay diff means anything.
      EXPECT_TRUE(r.conservation_ok) << "seed " << seed;
      EXPECT_TRUE(r.completed_before_horizon) << "seed " << seed;
      return scenario.fleet().metrics_table().to_string();
    };
    const std::string first = run();
    EXPECT_EQ(first, run()) << "chaos seed " << seed;
    distinct.insert(first);
  }
  EXPECT_GT(distinct.size(), 1u) << "every chaos seed rendered the same table";
}

TEST(FleetPropertySweep, SlottedRunsReplayByteIdenticallyPerSeed) {
  std::set<std::string> distinct;
  for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
    // Cycle the arms so the sweep covers steady slots, per-wave
    // expiry/re-promotion, and weak-event flap preemption.
    const auto arm = static_cast<workload::SlottedArm>(seed % 3);
    auto run = [seed, arm] {
      workload::SlottedScenarioConfig cfg;
      cfg.arm = arm;
      cfg.regime = workload::SlottedRegime::kSlotted;
      cfg.loss_prob = 0.005;
      cfg.seed = seed;
      cfg.hot_bytes = phy::DataSize::kilobytes(48);
      workload::SlottedFleetScenario scenario(cfg);
      const workload::SlottedScenarioResult r = scenario.run();
      EXPECT_GT(r.slot_reservations, 0u) << "seed " << seed;
      return scenario.fleet().metrics_table().to_string();
    };
    const std::string first = run();
    EXPECT_EQ(first, run()) << "slotted seed " << seed;
    distinct.insert(first);
  }
  EXPECT_GT(distinct.size(), 1u) << "every slotted seed rendered the same table";
}

}  // namespace
}  // namespace rsf
