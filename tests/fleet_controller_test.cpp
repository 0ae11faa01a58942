// FleetController: the spine-aware control loop. Repricing must shift
// packetized traffic off a hot spine link onto a parallel one, idle
// fleets must not be repriced, epochs must be weak events (they never
// keep the simulation alive), and controller runs must stay
// deterministic.
#include "runtime/fleet_controller.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <optional>

#include "runtime/fleet.hpp"

namespace rsf {
namespace {

using phy::DataSize;
using rsf::sim::SimTime;
using runtime::FleetConfig;
using runtime::FleetController;
using runtime::FleetControllerConfig;
using runtime::FleetRuntime;
using runtime::RackShape;
using runtime::RackSpec;
using runtime::RuntimeConfig;
using runtime::SpineSpec;
using namespace rsf::sim::literals;

RuntimeConfig grid_config() {
  RuntimeConfig cfg;
  cfg.shape = RackShape::kGrid;
  cfg.rack.width = 4;
  cfg.rack.height = 4;
  cfg.enable_crc = false;  // isolate the fleet loop from rack control
  return cfg;
}

/// Two racks joined by two parallel spine links. The links are slow
/// (10 Gb/s) so sustained flows back their FIFOs up and the controller
/// sees real heat.
FleetConfig parallel_spine_config(bool with_controller) {
  FleetConfig fc;
  fc.racks.push_back(RackSpec{grid_config(), 0});
  fc.racks.push_back(RackSpec{grid_config(), 0});
  for (int i = 0; i < 2; ++i) {
    SpineSpec s;
    s.rack_a = 0;
    s.rack_b = 1;
    s.rate = phy::DataRate::gbps(10);
    fc.spine.push_back(s);
  }
  fc.enable_controller = with_controller;
  fc.controller.epoch = 20_us;
  return fc;
}

void run_hot_flow(FleetRuntime& fleet) {
  runtime::FleetFlowSpec spec;
  spec.src = fleet.at(0, 3, 3);
  spec.dst = fleet.at(1, 2, 2);
  spec.size = DataSize::megabytes(1);  // ~1000 packets, ~800 us on 10G
  std::optional<runtime::FleetFlowResult> result;
  fleet.start_flow(spec, [&](const runtime::FleetFlowResult& r) { result = r; });
  fleet.start();
  fleet.run_until();
  fleet.stop();
  fleet.run_until();
  ASSERT_TRUE(result.has_value());
  ASSERT_FALSE(result->failed);
}

TEST(FleetController, RepricingShiftsTrafficOffTheHotSpineLink) {
  // Without the controller every packet takes link 0 (lowest-id tie).
  FleetRuntime cold(parallel_spine_config(false));
  run_hot_flow(cold);
  EXPECT_GT(cold.spine().link_packets(0, 0), 0u);
  EXPECT_EQ(cold.spine().link_packets(1, 0), 0u);

  // With it, link 0 heats up, gets repriced, and later packets re-plan
  // onto link 1: both parallel links end up carrying traffic.
  FleetRuntime hot(parallel_spine_config(true));
  run_hot_flow(hot);
  EXPECT_GT(hot.controller().epochs_completed(), 0u);
  EXPECT_GT(hot.controller().reprices(), 0u);
  const auto& c = hot.spine().counters();
  EXPECT_GT(c.get("spine.link0.packets"), 0u);
  EXPECT_GT(c.get("spine.link1.packets"), 0u);
  EXPECT_GT(c.get("spine.reprices"), 0u);
  EXPECT_GT(c.get("spine.route_cache_misses"), 1u);  // re-planned post-bump
  // The controller observed real utilisation on the hot link.
  EXPECT_GT(hot.controller().utilization_series().max_value(), 0.0);
  // The fleet registry carries the controller's instruments.
  EXPECT_GT(hot.metrics().find_counters("fleet")->get("fleet.epochs"), 0u);
}

TEST(FleetController, IdleFleetIsNeverRepriced) {
  FleetRuntime fleet(parallel_spine_config(true));
  fleet.start();
  fleet.run_until(1_ms);  // explicit horizon: epochs are weak events
  fleet.stop();
  EXPECT_GT(fleet.controller().epochs_completed(), 0u);
  EXPECT_EQ(fleet.controller().reprices(), 0u);
  EXPECT_EQ(fleet.spine().link_cost(0), 1.0);
  EXPECT_EQ(fleet.spine().link_cost(1), 1.0);
  EXPECT_EQ(fleet.controller().last_max_utilization(), 0.0);
}

TEST(FleetController, EpochsAreWeakEventsThatNeverHoldTheClock) {
  FleetRuntime fleet(parallel_spine_config(true));
  fleet.start();
  // No workload: run_until() with no horizon must return immediately
  // instead of ticking forever.
  fleet.run_until();
  EXPECT_TRUE(fleet.sim().idle());
  fleet.stop();
}

TEST(FleetController, StartStopAreIdempotentAndObservable) {
  rsf::sim::Simulator sim;
  telemetry::Registry registry;
  fabric::Interconnect spine(&sim, &registry);
  fabric::SpineLinkParams p;
  p.a = {0, 0};
  p.b = {1, 0};
  spine.add_link(p);

  FleetController ctrl(&sim, &spine, FleetControllerConfig{}, &registry);
  EXPECT_FALSE(ctrl.running());
  ctrl.start();
  ctrl.start();  // no double scheduling
  EXPECT_TRUE(ctrl.running());
  sim.run_until(350_us);
  EXPECT_EQ(ctrl.epochs_completed(), 3u);  // 100 us epochs
  ctrl.stop();
  ctrl.stop();
  EXPECT_FALSE(ctrl.running());
  const auto epochs = ctrl.epochs_completed();
  sim.run_until(1_ms);
  EXPECT_EQ(ctrl.epochs_completed(), epochs);  // tick cancelled
}

TEST(FleetController, CarvedDirectionRepricesAgainstTheAdvertisedResidual) {
  // The same modest shared traffic, with and without a 60% carve on
  // the direction. Uncarved, utilisation stays inside the repricing
  // hysteresis and the link keeps its base cost. Carved, the shared
  // traffic only sees the 40% residual and the carve itself is
  // spoken-for capacity — the decision flips and the link reprices.
  // (The old controller priced the nameplate rate and kept the hot
  // reserved link looking cheap.)
  struct Outcome {
    double cost = 0;
    std::uint64_t reprices = 0;
    double residual_gbps = 0;
  };
  auto run = [](bool carve) {
    rsf::sim::Simulator sim;
    telemetry::Registry registry;
    fabric::Interconnect spine(&sim, &registry);
    fabric::SpineLinkParams p;
    p.a = {0, 0};
    p.b = {1, 0};
    p.rate = phy::DataRate::gbps(10);
    p.latency = SimTime::zero();
    const auto link = spine.add_link(p);
    if (carve) EXPECT_TRUE(spine.book(0, 1, fabric::Carve{0.6}).has_value());
    // Defaults: 100 us epoch, base 1, w_u 8, epsilon 0.5.
    FleetController ctrl(&sim, &spine, FleetControllerConfig{}, &registry);
    ctrl.start();
    // 2 x 1000 B at t=0: 1.6 us of nameplate serialization in a
    // 100 us epoch. Even at the carved direction's residual rate the
    // raw busy fraction is only 4% — the nameplate-blind cost
    // (1 + 8 x 0.04 = 1.32) stays inside the 0.5 hysteresis, so the
    // old controller left the carved link at base cost either way.
    for (int i = 0; i < 2; ++i) {
      spine.send_packet(link, 0, DataSize::bytes(1000), nullptr);
    }
    sim.run_until(150_us);  // one repricing tick
    ctrl.stop();
    return Outcome{spine.link_cost(link), ctrl.reprices(),
                   spine.residual_rate(link, 0).gbps_value()};
  };
  const Outcome uncarved = run(false);
  EXPECT_EQ(uncarved.reprices, 0u);
  EXPECT_EQ(uncarved.cost, 1.0);
  EXPECT_DOUBLE_EQ(uncarved.residual_gbps, 10.0);
  const Outcome carved = run(true);
  EXPECT_DOUBLE_EQ(carved.residual_gbps, 4.0);  // the advertised residual
  EXPECT_GE(carved.reprices, 1u);
  // util = 0.04 x 0.4 + 0.6 carved: cost = 1 + 8 x 0.616.
  EXPECT_GT(carved.cost, 5.0);
}

TEST(FleetController, PromotionRanksPairsByCumulativeDemand) {
  // Pair (0,1) had a massive burst eleven epochs ago and now trickles
  // at just-hot rate; pair (2,3) is genuinely hot right now. Both
  // clear the promote streak at the same tick and compete for the one
  // allowed carve. The ranking is the cumulative byte·hop total, not
  // this epoch's delta, so the pair with the larger total wins.
  rsf::sim::Simulator sim;
  telemetry::Registry registry;
  fabric::Interconnect spine(&sim, &registry);
  fabric::SpineLinkParams p;
  p.a = {0, 0};
  p.b = {1, 0};
  spine.add_link(p);
  p.a = {2, 0};
  p.b = {3, 0};
  spine.add_link(p);
  FleetControllerConfig cfg;
  cfg.epoch = 100_us;
  cfg.booking.discipline = runtime::BookingDiscipline::kCarve;
  cfg.booking.fraction = 0.4;
  cfg.booking.hot_bytes_per_epoch = 1000;
  cfg.booking.idle_bytes_per_epoch = 10;
  cfg.booking.promote_after = 2;
  cfg.booking.demote_after = 100;
  cfg.booking.max_pairs = 1;
  FleetController ctrl(&sim, &spine, cfg, &registry);
  std::uint64_t& old_hot = spine.pair_demand_slot(0, 1);
  std::uint64_t& new_hot = spine.pair_demand_slot(2, 3);
  // Epoch 1: the ancient burst. Epochs 2-9: silence (the old pair's
  // streak resets, its score does not).
  sim.schedule_at(50_us, [&] { old_hot += 10'000'000; });
  // Epochs 10 and 11: the old pair trickles just above the hot
  // threshold while the new pair runs genuinely hot — both reach
  // streak 2 at the epoch-11 tick.
  for (const auto t : {950_us, 1050_us}) {
    sim.schedule_at(t, [&] {
      old_hot += 2'000;
      new_hot += 500'000;
    });
  }
  ctrl.start();
  sim.run_until(1150_us);
  ctrl.stop();
  EXPECT_EQ(ctrl.promotions(), 1u);  // exactly one carve to hand out
  EXPECT_FALSE(spine.find_bookings(0, 1).empty());
  EXPECT_TRUE(spine.find_bookings(2, 3).empty());
}

TEST(FleetController, RejectsBadConstruction) {
  rsf::sim::Simulator sim;
  telemetry::Registry registry;
  fabric::Interconnect spine(&sim, &registry);
  EXPECT_THROW(FleetController(nullptr, &spine), std::invalid_argument);
  EXPECT_THROW(FleetController(&sim, nullptr), std::invalid_argument);
  FleetControllerConfig bad_epoch;
  bad_epoch.epoch = SimTime::zero();
  EXPECT_THROW(FleetController(&sim, &spine, bad_epoch), std::invalid_argument);
  // Cost weights that would price a loaded link at a non-positive or
  // NaN cost fail here, not from the first loaded tick mid-run.
  FleetControllerConfig bad_weight;
  bad_weight.utilization_weight = -100.0;
  EXPECT_THROW(FleetController(&sim, &spine, bad_weight), std::invalid_argument);
  bad_weight.utilization_weight = std::numeric_limits<double>::infinity();
  EXPECT_THROW(FleetController(&sim, &spine, bad_weight), std::invalid_argument);
  FleetControllerConfig bad_backlog;
  bad_backlog.backlog_weight_per_us = -0.25;
  EXPECT_THROW(FleetController(&sim, &spine, bad_backlog), std::invalid_argument);
  bad_backlog.backlog_weight_per_us = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(FleetController(&sim, &spine, bad_backlog), std::invalid_argument);
  // An idle threshold at or above the hot one inverts the hysteresis.
  for (const auto discipline :
       {runtime::BookingDiscipline::kCarve, runtime::BookingDiscipline::kSlots}) {
    FleetControllerConfig inverted;
    inverted.booking.discipline = discipline;
    inverted.booking.idle_bytes_per_epoch = inverted.booking.hot_bytes_per_epoch;
    EXPECT_THROW(FleetController(&sim, &spine, inverted), std::invalid_argument);
    inverted.booking.idle_bytes_per_epoch = inverted.booking.hot_bytes_per_epoch - 1;
    EXPECT_NO_THROW(FleetController(&sim, &spine, inverted));
  }
  // Without a registry the controller owns a private one (unit-test
  // convenience, mirroring Network and CrcController).
  FleetController own(&sim, &spine);
  EXPECT_EQ(own.counters().get("fleet.epochs"), 0u);
}

}  // namespace
}  // namespace rsf
