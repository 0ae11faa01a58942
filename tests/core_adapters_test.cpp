// Tests of the CRC's actuation policies: adaptive FEC and the power
// manager.
#include <gtest/gtest.h>

#include <functional>
#include <iterator>
#include <limits>

#include "core/fec_adapter.hpp"
#include "core/power_manager.hpp"
#include "core/ring.hpp"
#include "fabric/builders.hpp"

namespace rsf::core {
namespace {

using phy::FecScheme;
using phy::LinkId;
using rsf::sim::SimTime;
using rsf::sim::Simulator;
using namespace rsf::sim::literals;

struct AdapterFixture : ::testing::Test {
  Simulator sim;
  fabric::Rack rack;

  AdapterFixture() {
    fabric::RackParams p;
    p.width = 4;
    p.height = 2;
    rack = fabric::build_grid(&sim, p);
  }

  RackSnapshot take_snapshot() {
    ControlRing ring(&sim, rack.plant.get(), rack.engine.get(), rack.topology.get(),
                     rack.network.get());
    RackSnapshot out;
    ring.circulate(100_us, [&](const RackSnapshot& s) { out = s; });
    // Telemetry events are weak; run to an explicit horizon.
    sim.run_until(sim.now() + ring.circulation_time());
    return out;
  }
};

// --- FecAdapter::choose (pure policy) ---

TEST_F(AdapterFixture, ChoosePicksLightestAtCleanBer) {
  FecAdapter adapter(rack.engine.get(), rack.plant.get());
  EXPECT_EQ(adapter.choose(1e-15, FecScheme::kNone), FecScheme::kNone);
}

TEST_F(AdapterFixture, ChooseEscalatesUnderDegradation) {
  FecAdapter adapter(rack.engine.get(), rack.plant.get());
  // At 1e-5 only the RS codes meet a 1e-9 frame-loss target.
  const FecScheme pick = adapter.choose(1e-5, FecScheme::kNone);
  EXPECT_TRUE(pick == FecScheme::kRsKr4 || pick == FecScheme::kRsKp4);
  // At a catastrophic BER nothing meets target: max protection.
  EXPECT_EQ(adapter.choose(1e-2, FecScheme::kNone), FecScheme::kRsKp4);
}

TEST_F(AdapterFixture, ChooseEscalationMonotoneInBer) {
  FecAdapter adapter(rack.engine.get(), rack.plant.get());
  auto ladder_rank = [](FecScheme s) {
    switch (s) {
      case FecScheme::kNone:
        return 0;
      case FecScheme::kFireCode:
        return 1;
      case FecScheme::kRsKr4:
        return 2;
      case FecScheme::kRsKp4:
        return 3;
    }
    return 0;
  };
  int prev = 0;
  for (double ber : {1e-14, 1e-11, 1e-9, 1e-7, 1e-5, 1e-4, 1e-3}) {
    const int rank = ladder_rank(adapter.choose(ber, FecScheme::kNone));
    EXPECT_GE(rank, prev) << "ber=" << ber;
    prev = rank;
  }
}

TEST_F(AdapterFixture, ChooseHysteresisBlocksMarginalRelax) {
  FecAdapter adapter(rack.engine.get(), rack.plant.get());
  // Find a BER where kRsKr4 barely meets target: relaxing from kRsKp4
  // must be refused there, but allowed at a clearly better BER.
  const double marginal_ber = [&] {
    for (double ber = 1e-3; ber > 1e-12; ber /= 1.2) {
      const auto spec = phy::FecSpec::of(FecScheme::kRsKr4);
      const double loss = spec.frame_loss_prob(ber, phy::kReferenceFrame);
      if (loss <= FecAdapter::kTargetFrameLoss &&
          loss > FecAdapter::kTargetFrameLoss * FecAdapter::kRelaxMargin) {
        return ber;
      }
    }
    return 0.0;
  }();
  ASSERT_GT(marginal_ber, 0.0);
  EXPECT_EQ(adapter.choose(marginal_ber, FecScheme::kRsKp4), FecScheme::kRsKp4);
  EXPECT_NE(adapter.choose(1e-13, FecScheme::kRsKp4), FecScheme::kRsKp4);
}

TEST_F(AdapterFixture, ApplySubmitsOnlyWhereNeeded) {
  // Degrade one cable; apply should change (at least) that link and
  // leave clean links on their mode.
  const LinkId victim = *rack.topology->link_between(0, 1);
  const phy::CableId cable = rack.plant->link(victim).segments().front().cable;
  rack.plant->set_cable_ber(cable, 1e-4);

  FecAdapter adapter(rack.engine.get(), rack.plant.get());
  const RackSnapshot snap = take_snapshot();
  const int changes = adapter.apply(snap);
  EXPECT_GE(changes, 1);
  sim.run_until();
  EXPECT_EQ(rack.plant->link(victim).fec().scheme, FecScheme::kRsKp4);
  // Re-applying the same snapshot state is idempotent.
  const RackSnapshot snap2 = take_snapshot();
  EXPECT_EQ(adapter.apply(snap2), 0);
}

// --- PowerManager ---

TEST_F(AdapterFixture, ShedsLanesWhenOverCap) {
  PowerManagerConfig cfg;
  cfg.cap_watts = rack.total_power_watts() - 1.0;  // just over budget
  cfg.max_ops_per_epoch = 1;
  PowerManager pm(rack.engine.get(), rack.plant.get(), cfg);
  const double before = rack.plant->total_power_watts();
  const RackSnapshot snap = take_snapshot();
  EXPECT_EQ(pm.apply(snap), 1);
  sim.run_until();
  EXPECT_EQ(pm.sheds(), 1u);
  EXPECT_EQ(pm.shed_lane_count(), 1u);
  EXPECT_LT(rack.plant->total_power_watts(), before);
  EXPECT_TRUE(rack.plant->validate().empty());
}

TEST_F(AdapterFixture, NoShedWhenUnderCap) {
  PowerManagerConfig cfg;
  cfg.cap_watts = 1e9;
  PowerManager pm(rack.engine.get(), rack.plant.get(), cfg);
  EXPECT_EQ(pm.apply(take_snapshot()), 0);
  EXPECT_EQ(pm.sheds(), 0u);
}

TEST_F(AdapterFixture, ShedStopsAtMinLanes) {
  PowerManagerConfig cfg;
  cfg.cap_watts = 0.0;  // impossible budget: shed everything possible
  cfg.max_ops_per_epoch = 100;
  PowerManager pm(rack.engine.get(), rack.plant.get(), cfg);
  // Run several epochs; eventually all links are at one lane.
  for (int epoch = 0; epoch < 12; ++epoch) {
    pm.apply(take_snapshot());
    sim.run_until();
  }
  for (LinkId id : rack.plant->link_ids()) {
    if (rack.plant->link(id).ready()) {
      EXPECT_GE(rack.plant->link(id).lane_count(), 1);
    }
  }
  // Nothing shreddable remains: apply is a no-op.
  const auto sheds_before = pm.sheds();
  pm.apply(take_snapshot());
  sim.run_until();
  EXPECT_EQ(pm.sheds(), sheds_before);
}

TEST_F(AdapterFixture, RestoreRebundlesUnderPressure) {
  PowerManagerConfig cfg;
  cfg.cap_watts = rack.total_power_watts() - 1.0;
  cfg.max_ops_per_epoch = 1;
  PowerManager pm(rack.engine.get(), rack.plant.get(), cfg);
  pm.apply(take_snapshot());
  sim.run_until();
  ASSERT_EQ(pm.shed_lane_count(), 1u);

  // Synthesise the restore condition: far under cap AND demand
  // pressure (hot links) in the same snapshot.
  RackSnapshot pressure = take_snapshot();
  for (auto& o : pressure.links) o.utilization = 0.9;
  pressure.rack_power_watts = 0.0;
  const int ops = pm.apply(pressure);
  EXPECT_GE(ops, 1);
  sim.run_until();
  EXPECT_EQ(pm.restores(), 1u);
  EXPECT_EQ(pm.shed_lane_count(), 0u);
  // The re-bundled link is back at 2 lanes.
  int two_lane = 0;
  for (LinkId id : rack.plant->link_ids()) {
    if (rack.plant->link(id).lane_count() == 2) ++two_lane;
  }
  EXPECT_EQ(two_lane, static_cast<int>(rack.plant->link_count()));
  EXPECT_TRUE(rack.plant->validate().empty());
}

TEST_F(AdapterFixture, NoRestoreWithoutPressure) {
  PowerManagerConfig cfg;
  cfg.cap_watts = rack.total_power_watts() - 1.0;
  PowerManager pm(rack.engine.get(), rack.plant.get(), cfg);
  pm.apply(take_snapshot());
  sim.run_until();
  ASSERT_GE(pm.shed_lane_count(), 1u);
  RackSnapshot idle = take_snapshot();
  for (auto& o : idle.links) o.utilization = 0.0;
  idle.rack_power_watts = 0.0;
  pm.apply(idle);
  sim.run_until();
  EXPECT_EQ(pm.restores(), 0u);
}

using PowerManagerConfigValidation = AdapterFixture;

TEST_F(PowerManagerConfigValidation, InvalidConfigsFailAtConstruction) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  const std::function<void(PowerManagerConfig&)> bad[] = {
      [](PowerManagerConfig& c) { c.cap_watts = -1.0; },
      [nan](PowerManagerConfig& c) { c.cap_watts = nan; },
      [inf](PowerManagerConfig& c) { c.cap_watts = inf; },
      [](PowerManagerConfig& c) { c.max_ops_per_epoch = -1; },
  };
  for (std::size_t i = 0; i < std::size(bad); ++i) {
    PowerManagerConfig cfg;
    bad[i](cfg);
    EXPECT_THROW((void)PowerManager(rack.engine.get(), rack.plant.get(), cfg),
                 std::invalid_argument)
        << "case " << i;
  }

  // set_cap holds the cap to the same rule; a rejected cap leaves the
  // old one in force.
  PowerManagerConfig zero;
  zero.cap_watts = 0.0;
  zero.max_ops_per_epoch = 0;
  PowerManager pm(rack.engine.get(), rack.plant.get(), zero);
  for (const double cap : {-1.0, nan, inf, -inf}) {
    EXPECT_THROW(pm.set_cap(cap), std::invalid_argument) << "cap " << cap;
  }
  EXPECT_EQ(pm.config().cap_watts, 0.0);
}

}  // namespace
}  // namespace rsf::core
