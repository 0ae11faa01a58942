#include "core/controller.hpp"

#include <gtest/gtest.h>
#include <cmath>

#include <limits>
#include <optional>
#include <stdexcept>

#include "fabric/builders.hpp"
#include "phy/ber_profile.hpp"
#include "workload/generator.hpp"

namespace rsf::core {
namespace {

using phy::LinkId;
using rsf::sim::SimTime;
using rsf::sim::Simulator;
using namespace rsf::sim::literals;

struct ControllerFixture : ::testing::Test {
  Simulator sim;
  fabric::Rack rack;

  ControllerFixture() {
    fabric::RackParams p;
    p.width = 4;
    p.height = 4;
    rack = fabric::build_grid(&sim, p);
  }

  CrcController make(CrcConfig cfg = {}) {
    return CrcController(&sim, rack.plant.get(), rack.engine.get(), rack.topology.get(),
                         rack.router.get(), rack.network.get(), cfg);
  }
};

TEST_F(ControllerFixture, EpochLoopTakesSnapshots) {
  CrcConfig cfg;
  cfg.epoch = 100_us;
  CrcController crc = make(cfg);
  crc.start();
  sim.run_until(1_ms);
  crc.stop();
  EXPECT_GE(crc.epochs_completed(), 9u);
  ASSERT_TRUE(crc.last_snapshot().has_value());
  EXPECT_EQ(crc.last_snapshot()->links.size(), rack.plant->link_count());
  EXPECT_FALSE(crc.power_series().empty());
  EXPECT_FALSE(crc.utilization_series().empty());
}

TEST_F(ControllerFixture, EpochStretchesToRingCirculation) {
  CrcConfig cfg;
  cfg.epoch = 1_ns;  // absurd: shorter than circulation
  CrcController crc = make(cfg);
  EXPECT_GE(crc.config().epoch, (200_ns + 100_ns) * std::int64_t{16});
}

// Configs that would silently misbehave (a negative epoch ticking
// ~200x too often, auto-torus
// converting an idle rack, or a NaN threshold disabling it) fail at
// construction instead.
TEST_F(ControllerFixture, InvalidConfigsFailAtConstruction) {
  CrcConfig negative_epoch;
  negative_epoch.epoch = SimTime::zero() - 5_us;
  EXPECT_THROW(make(negative_epoch), std::invalid_argument);
  CrcConfig zero_epoch;
  zero_epoch.epoch = SimTime::zero();
  EXPECT_THROW(make(zero_epoch), std::invalid_argument);
  for (int epochs : {0, -1}) {
    CrcConfig bad_trigger;
    bad_trigger.enable_auto_torus = true;
    bad_trigger.torus_trigger_epochs = epochs;
    EXPECT_THROW(make(bad_trigger), std::invalid_argument) << epochs;
  }
  for (double threshold : {std::nan(""), std::numeric_limits<double>::infinity()}) {
    CrcConfig bad_threshold;
    bad_threshold.enable_auto_torus = true;
    bad_threshold.torus_util_threshold = threshold;
    EXPECT_THROW(make(bad_threshold), std::invalid_argument) << threshold;
  }
}

TEST_F(ControllerFixture, StopCancelsTicking) {
  CrcController crc = make();
  crc.start();
  sim.run_until(250_us);
  crc.stop();
  const auto epochs = crc.epochs_completed();
  sim.run_until(2_ms);
  EXPECT_EQ(crc.epochs_completed(), epochs);
  EXPECT_FALSE(crc.running());
}

TEST_F(ControllerFixture, PricesPublishedToRouter) {
  CrcConfig cfg;
  cfg.epoch = 100_us;
  CrcController crc = make(cfg);
  crc.start();
  sim.run_until(300_us);
  // The book has entries and the router consults them (a hot link
  // would repel traffic; here we just verify the plumbing: every ready
  // link has a finite price).
  for (LinkId id : rack.plant->link_ids()) {
    EXPECT_TRUE(std::isfinite(crc.prices().price(id))) << id;
  }
  crc.stop();
}

TEST_F(ControllerFixture, PriceRoutingSteersAroundHotLink) {
  // Saturate the (0,0)-(1,0) link with background flows, then check a
  // probe 0->1 no longer insists on the direct link once priced.
  CrcConfig cfg;
  cfg.epoch = 50_us;
  cfg.weights = PriceWeights::balanced();
  CrcController crc = make(cfg);
  crc.start();

  for (int i = 0; i < 4; ++i) {
    fabric::FlowSpec spec;
    spec.id = static_cast<fabric::FlowId>(100 + i);
    spec.src = rack.node_at(0, 0);
    spec.dst = rack.node_at(1, 0);
    spec.size = phy::DataSize::megabytes(8);
    rack.network->start_flow(spec, nullptr);
  }
  sim.run_until(400_us);
  const LinkId direct = *rack.topology->link_between(rack.node_at(0, 0), rack.node_at(1, 0));
  // The direct link's price must now reflect congestion: compare with
  // an idle link.
  const LinkId idle_link =
      *rack.topology->link_between(rack.node_at(2, 3), rack.node_at(3, 3));
  EXPECT_GT(crc.prices().price(direct), crc.prices().price(idle_link));
  crc.stop();
  sim.run_until();
}

TEST_F(ControllerFixture, AdaptiveFecReactsToBerRamp) {
  CrcConfig cfg;
  cfg.epoch = 100_us;
  cfg.enable_adaptive_fec = true;
  CrcController crc = make(cfg);

  const LinkId victim = *rack.topology->link_between(0, 1);
  const phy::CableId cable = rack.plant->link(victim).segments().front().cable;
  phy::BerDriver ber(&sim, rack.plant.get(), cable,
                     phy::ramp_ber(1e-12, 1e-4, 200_us, 1_ms), 50_us);
  ber.start();
  crc.start();
  sim.run_until(2_ms);
  ber.stop();
  crc.stop();
  sim.run_until();
  // The controller escalated the victim link's FEC.
  EXPECT_EQ(rack.plant->link(victim).fec().scheme, phy::FecScheme::kRsKp4);
  EXPECT_GT(crc.counters().get("crc.fec_changes"), 0u);
}

TEST_F(ControllerFixture, PowerCapEnforced) {
  CrcConfig cfg;
  cfg.epoch = 100_us;
  cfg.enable_power_manager = true;
  cfg.power.cap_watts = rack.total_power_watts() - 3.0;
  cfg.power.max_ops_per_epoch = 2;
  CrcController crc = make(cfg);
  const double before = rack.plant->total_power_watts();
  crc.start();
  sim.run_until(2_ms);
  crc.stop();
  sim.run_until();
  EXPECT_LT(rack.plant->total_power_watts(), before);
  EXPECT_GT(crc.power_manager().sheds(), 0u);
  EXPECT_TRUE(rack.plant->validate().empty());
}

TEST_F(ControllerFixture, RequestGridToTorusCompletes) {
  CrcController crc = make();
  std::optional<TopologyPlanner::Report> report;
  crc.request_grid_to_torus([&](const TopologyPlanner::Report& r) { report = r; });
  sim.run_until();
  ASSERT_TRUE(report.has_value());
  EXPECT_EQ(report->rows_closed + report->cols_closed, 8);
  EXPECT_EQ(report->failures, 0);
}

TEST_F(ControllerFixture, AutoTorusTriggersUnderSustainedLoad) {
  CrcConfig cfg;
  cfg.epoch = 100_us;
  cfg.enable_auto_torus = true;
  cfg.torus_util_threshold = 0.3;
  cfg.torus_trigger_epochs = 2;
  CrcController crc = make(cfg);
  crc.start();

  // Saturating all-to-all-ish background load.
  workload::GeneratorConfig gen_cfg;
  gen_cfg.mean_interarrival = 20_us;
  gen_cfg.horizon = 3_ms;
  gen_cfg.sizes = workload::SizeDistribution::fixed_size(phy::DataSize::kilobytes(256));
  workload::FlowGenerator gen(&sim, rack.network.get(),
                              workload::TrafficMatrix::opposite(16), gen_cfg);
  gen.start();
  sim.run_until(5_ms);
  crc.stop();
  sim.run_until();
  EXPECT_EQ(crc.counters().get("crc.auto_torus_triggered"), 1u);
  EXPECT_GT(crc.counters().get("crc.torus_wraps_created"), 0u);
  EXPECT_TRUE(rack.plant->validate().empty());
}

TEST_F(ControllerFixture, AutoTorusDoesNotTriggerWhenIdle) {
  CrcConfig cfg;
  cfg.epoch = 100_us;
  cfg.enable_auto_torus = true;
  CrcController crc = make(cfg);
  crc.start();
  sim.run_until(2_ms);
  crc.stop();
  EXPECT_EQ(crc.counters().get("crc.auto_torus_triggered"), 0u);
}

}  // namespace
}  // namespace rsf::core
