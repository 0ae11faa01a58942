// Lane failures and the CRC health manager: dark-lane re-provisioning.
#include "core/health_manager.hpp"

#include <gtest/gtest.h>

#include "core/controller.hpp"
#include "core/ring.hpp"
#include "fabric/builders.hpp"
#include "workload/generator.hpp"

namespace rsf::core {
namespace {

using phy::LaneRef;
using phy::LinkId;
using rsf::sim::SimTime;
using rsf::sim::Simulator;
using namespace rsf::sim::literals;

struct HealthFixture : ::testing::Test {
  Simulator sim;
  fabric::Rack rack;

  HealthFixture() {
    fabric::RackParams p;
    p.width = 4;
    p.height = 2;
    p.lanes_per_cable = 4;  // 2 dark spares per cable
    p.lanes_per_link = 2;
    rack = fabric::build_grid(&sim, p);
  }

  RackSnapshot take_snapshot() {
    ControlRing ring(&sim, rack.plant.get(), rack.engine.get(), rack.topology.get(),
                     rack.network.get());
    RackSnapshot out;
    ring.circulate(100_us, [&](const RackSnapshot& s) { out = s; });
    sim.run_until(sim.now() + ring.circulation_time());
    return out;
  }
};

TEST_F(HealthFixture, LaneFailureSemantics) {
  const LinkId victim = *rack.topology->link_between(0, 1);
  const phy::CableId cable = rack.plant->link(victim).segments().front().cable;
  EXPECT_TRUE(rack.plant->link(victim).ready());

  rack.plant->fail_lane(LaneRef{cable, 0});
  EXPECT_FALSE(rack.plant->link(victim).ready());
  EXPECT_TRUE(rack.plant->cable(cable).lane(0).is_failed());
  EXPECT_FALSE(rack.plant->cable(cable).lane(0).is_up());
  EXPECT_EQ(rack.plant->failed_lanes(cable), std::vector<int>{0});
  EXPECT_EQ(rack.plant->failed_lanes_of_link(victim).size(), 1u);

  // Training cannot revive a failed lane.
  rack.plant->lane_begin_training(victim);
  rack.plant->lane_complete_training(victim);
  EXPECT_FALSE(rack.plant->link(victim).ready());

  // Repair + retrain does.
  rack.plant->repair_lane(LaneRef{cable, 0});
  rack.plant->lane_begin_training(victim);
  rack.plant->lane_complete_training(victim);
  EXPECT_TRUE(rack.plant->link(victim).ready());
}

TEST_F(HealthFixture, ProvisionCommandCreatesAndTrains) {
  const phy::CableId cable = 0;
  const auto free = rack.plant->free_lanes(cable);
  ASSERT_GE(free.size(), 2u);
  std::optional<plp::PlpResult> result;
  rack.engine->submit(plp::ProvisionCommand{cable, {free[0], free[1]},
                                            phy::FecScheme::kRsKr4},
                      [&](const plp::PlpResult& r) { result = r; });
  sim.run_until();
  ASSERT_TRUE(result && result->ok);
  ASSERT_EQ(result->created.size(), 1u);
  const LinkId id = result->created.front();
  EXPECT_TRUE(rack.plant->link(id).ready());
  EXPECT_EQ(rack.plant->link(id).fec().scheme, phy::FecScheme::kRsKr4);
  EXPECT_TRUE(rack.plant->validate().empty());
}

TEST_F(HealthFixture, ProvisionRejectsFailedAndClaimedLanes) {
  const phy::CableId cable = 0;
  rack.plant->fail_lane(LaneRef{cable, 2});
  std::optional<plp::PlpResult> result;
  rack.engine->submit(plp::ProvisionCommand{cable, {2, 3}, phy::FecScheme::kNone},
                      [&](const plp::PlpResult& r) { result = r; });
  ASSERT_TRUE(result.has_value());
  EXPECT_FALSE(result->ok);
  // Lane 0 already belongs to the initial link.
  result.reset();
  rack.engine->submit(plp::ProvisionCommand{cable, {0}, phy::FecScheme::kNone},
                      [&](const plp::PlpResult& r) { result = r; });
  ASSERT_TRUE(result.has_value());
  EXPECT_FALSE(result->ok);
}

TEST_F(HealthFixture, DecommissionFreesLanes) {
  const LinkId victim = *rack.topology->link_between(0, 1);
  const phy::CableId cable = rack.plant->link(victim).segments().front().cable;
  std::optional<plp::PlpResult> result;
  rack.engine->submit(plp::DecommissionCommand{victim},
                      [&](const plp::PlpResult& r) { result = r; });
  sim.run_until();
  ASSERT_TRUE(result && result->ok);
  EXPECT_FALSE(rack.plant->has_link(victim));
  EXPECT_EQ(rack.plant->free_lanes(cable).size(), 4u);
  // Freed lanes are powered off.
  EXPECT_EQ(rack.plant->cable(cable).lane(0).state(), phy::LaneState::kOff);
}

TEST_F(HealthFixture, ManagerReplacesFailedLaneFromDarkPool) {
  const LinkId victim = *rack.topology->link_between(0, 1);
  const phy::CableId cable = rack.plant->link(victim).segments().front().cable;
  rack.plant->fail_lane(LaneRef{cable, 0});

  HealthManager hm(rack.engine.get(), rack.plant.get());
  EXPECT_EQ(hm.apply(take_snapshot()), 1);
  sim.run_until();
  EXPECT_EQ(hm.remediations_completed(), 1u);

  // A replacement link exists between 0 and 1, full width, using the
  // dark lanes instead of the dead one.
  const auto replacement = rack.topology->link_between(0, 1);
  ASSERT_TRUE(replacement.has_value());
  EXPECT_TRUE(rack.plant->link(*replacement).ready());
  EXPECT_EQ(rack.plant->link(*replacement).lane_count(), 2);
  EXPECT_TRUE(rack.plant->failed_lanes_of_link(*replacement).empty());
  EXPECT_TRUE(rack.plant->validate().empty());
}

TEST_F(HealthFixture, ManagerDegradesWidthWhenSparesExhausted) {
  const LinkId victim = *rack.topology->link_between(0, 1);
  const phy::CableId cable = rack.plant->link(victim).segments().front().cable;
  // Kill one member lane AND both spares: only 1 healthy lane remains.
  rack.plant->fail_lane(LaneRef{cable, 0});
  rack.plant->fail_lane(LaneRef{cable, 2});
  rack.plant->fail_lane(LaneRef{cable, 3});

  HealthManager hm(rack.engine.get(), rack.plant.get());
  EXPECT_EQ(hm.apply(take_snapshot()), 1);
  sim.run_until();
  const auto replacement = rack.topology->link_between(0, 1);
  ASSERT_TRUE(replacement.has_value());
  EXPECT_EQ(rack.plant->link(*replacement).lane_count(), 1);  // degraded, alive
  EXPECT_TRUE(rack.plant->link(*replacement).ready());
}

TEST_F(HealthFixture, ManagerIgnoresMerelyDarkLinks) {
  // A link that is down because it was shut off (no failed lanes) is
  // the power manager's business, not the health manager's.
  const LinkId victim = *rack.topology->link_between(0, 1);
  rack.engine->submit(plp::ShutdownCommand{victim});
  sim.run_until();
  HealthManager hm(rack.engine.get(), rack.plant.get());
  EXPECT_EQ(hm.apply(take_snapshot()), 0);
}

TEST_F(HealthFixture, ManagerRespectsOpsBudget) {
  // One broken link more than the per-epoch budget: the first epoch
  // starts kMaxOpsPerEpoch remediations, the next one the rest.
  constexpr int kBroken = HealthManager::kMaxOpsPerEpoch + 1;
  for (phy::NodeId n = 0; n < kBroken; ++n) {
    const LinkId broken = *rack.topology->link_between(n, n + 1);
    rack.plant->fail_lane(LaneRef{rack.plant->link(broken).segments().front().cable, 0});
  }
  HealthManager hm(rack.engine.get(), rack.plant.get());
  EXPECT_EQ(hm.apply(take_snapshot()), HealthManager::kMaxOpsPerEpoch);
  sim.run_until();
  EXPECT_EQ(hm.apply(take_snapshot()), kBroken - HealthManager::kMaxOpsPerEpoch);
  sim.run_until();
  EXPECT_EQ(hm.remediations_completed(), static_cast<std::uint64_t>(kBroken));
}

TEST_F(HealthFixture, EndToEndRecoveryUnderTraffic) {
  core::CrcConfig cfg;
  cfg.epoch = 100_us;
  cfg.enable_health_manager = true;
  CrcController crc(&sim, rack.plant.get(), rack.engine.get(), rack.topology.get(),
                    rack.router.get(), rack.network.get(), cfg);
  crc.start();

  workload::GeneratorConfig gen_cfg;
  gen_cfg.mean_interarrival = 100_us;
  gen_cfg.horizon = 5_ms;
  gen_cfg.sizes = workload::SizeDistribution::fixed_size(phy::DataSize::kilobytes(32));
  workload::FlowGenerator gen(&sim, rack.network.get(),
                              workload::TrafficMatrix::uniform(8), gen_cfg);
  gen.start();

  // Kill a member lane of a live link mid-run.
  sim.schedule_at(1_ms, [&] {
    const auto victim = rack.topology->link_between(0, 1);
    if (victim) {
      rack.plant->fail_lane(
          phy::LaneRef{rack.plant->link(*victim).segments().front().cable, 0});
    }
  });
  sim.run_until(10_ms);
  crc.stop();
  sim.run_until();

  // The rack healed: a full-width ready link between 0 and 1, all
  // flows completed despite the failure.
  EXPECT_GT(crc.health_manager().remediations_completed(), 0u);
  const auto healed = rack.topology->link_between(0, 1);
  ASSERT_TRUE(healed.has_value());
  EXPECT_EQ(rack.plant->link(*healed).lane_count(), 2);
  EXPECT_EQ(rack.network->flows_failed(), 0u);
  EXPECT_EQ(gen.results().size(), gen.flows_generated());
  EXPECT_TRUE(rack.plant->validate().empty());
}

}  // namespace
}  // namespace rsf::core
