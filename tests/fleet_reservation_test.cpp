// Spine circuit reservations: the fleet-scale circuit vs. packet
// trade. Residual-rate arithmetic (a carve slows the shared FIFO by
// exactly the reserved fraction and the slice FIFO is independent),
// versioned-handle semantics (stale after release, idempotent,
// recycled slots detectable), survival across repricing but teardown
// on link failure with fallback to the shared residual, the
// controller's promote/demote hysteresis, the skewed scenario's
// reservation crossover (its same-seed determinism lives in the
// property sweep), and the regression that the packetized default path is
// untouched while reservations are never configured.
#include <gtest/gtest.h>

#include <functional>
#include <optional>
#include <string>
#include <utility>

#include "fabric/interconnect.hpp"
#include "runtime/fleet.hpp"
#include "sim/simulator.hpp"
#include "telemetry/registry.hpp"
#include "workload/skewed.hpp"

namespace rsf {
namespace {

using fabric::Interconnect;
using fabric::SpineLinkParams;
using fabric::Carve;
using fabric::Slots;
using fabric::SpineBookingHandle;
using phy::DataSize;
using rsf::sim::SimTime;
using rsf::sim::Simulator;
using runtime::FleetConfig;
using runtime::FleetRuntime;
using runtime::RackShape;
using runtime::RackSpec;
using runtime::RuntimeConfig;
using runtime::SpineSpec;
using namespace rsf::sim::literals;

// ---------------------------------------------------------------------------
// Interconnect-level semantics.
// ---------------------------------------------------------------------------

struct ReservationFixture : ::testing::Test {
  Simulator sim;
  telemetry::Registry registry;
  Interconnect spine{&sim, &registry};

  fabric::SpineLinkId add(std::uint32_t a, std::uint32_t b,
                          double gbps = 8.0) {
    SpineLinkParams p;
    p.a = {a, 0};
    p.b = {b, 0};
    p.rate = phy::DataRate::gbps(gbps);
    p.latency = SimTime::zero();  // keep the arithmetic bare
    return spine.add_link(p);
  }

  /// Send one packet and run to completion; returns the arrival time.
  SimTime send(fabric::SpineLinkId id, std::uint32_t from, std::int64_t bytes,
               SpineBookingHandle res = {}) {
    std::optional<SimTime> arrival;
    EXPECT_TRUE(spine.send_packet(id, from, DataSize::bytes(bytes), res,
                                  [&](bool) { arrival = sim.now(); }));
    sim.run_until();
    EXPECT_TRUE(arrival.has_value());
    return arrival.value_or(SimTime::zero());
  }
};

TEST_F(ReservationFixture, ResidualRateArithmeticIsExact) {
  // 8 Gb/s, 1000-byte packet: 1 us at the full rate.
  const auto link = add(0, 1);
  EXPECT_EQ(send(link, 0, 1000).us(), 1.0);

  // Carving half leaves the shared residual at exactly half the rate:
  // the same packet now serializes in 2 us.
  const auto res = spine.book(0, 1, Carve{0.5});
  ASSERT_TRUE(res.has_value());
  EXPECT_DOUBLE_EQ(spine.booked_fraction(link, 0), 0.5);
  const SimTime t0 = sim.now();
  EXPECT_EQ((send(link, 0, 1000) - t0).us(), 2.0);

  // The reserved slice is an independent FIFO at the carved rate: a
  // reserved and a shared packet sent back-to-back do not queue
  // behind each other (both arrive 2 us after injection).
  const SimTime t1 = sim.now();
  std::optional<SimTime> shared_arrival;
  std::optional<SimTime> reserved_arrival;
  spine.send_packet(link, 0, DataSize::bytes(1000),
                    [&](bool) { shared_arrival = sim.now(); });
  spine.send_packet(link, 0, DataSize::bytes(1000), *res,
                    [&](bool) { reserved_arrival = sim.now(); });
  sim.run_until();
  ASSERT_TRUE(shared_arrival && reserved_arrival);
  EXPECT_EQ((*shared_arrival - t1).us(), 2.0);
  EXPECT_EQ((*reserved_arrival - t1).us(), 2.0);
  EXPECT_GT(spine.counters().get("spine.reserved_bytes"), 0u);

  // Releasing restores the full rate exactly.
  spine.release(*res);
  EXPECT_DOUBLE_EQ(spine.booked_fraction(link, 0), 0.0);
  const SimTime t2 = sim.now();
  EXPECT_EQ((send(link, 0, 1000) - t2).us(), 1.0);
}

TEST_F(ReservationFixture, ReverseDirectionIsNeverTouchedByACarve) {
  const auto link = add(0, 1);
  const auto res = spine.book(0, 1, Carve{0.5});
  ASSERT_TRUE(res.has_value());
  // The carve is per direction of travel: 1 -> 0 still runs at the
  // full rate.
  EXPECT_DOUBLE_EQ(spine.booked_fraction(link, 1), 0.0);
  const SimTime t0 = sim.now();
  EXPECT_EQ((send(link, 1, 1000) - t0).us(), 1.0);
}

TEST_F(ReservationFixture, AdmissionRefusesOversubscriptionAndDuplicates) {
  add(0, 1);
  EXPECT_THROW(static_cast<void>(spine.book(0, 1, Carve{0.0})), std::invalid_argument);
  EXPECT_THROW(static_cast<void>(spine.book(0, 1, Carve{1.0})), std::invalid_argument);
  EXPECT_FALSE(spine.book(0, 0, Carve{0.5}).has_value());  // self pair
  EXPECT_FALSE(spine.book(0, 7, Carve{0.5}).has_value());  // unreachable
  const auto first = spine.book(0, 1, Carve{0.6});
  ASSERT_TRUE(first.has_value());
  // Same pair again: refused while the first is live.
  EXPECT_FALSE(spine.book(0, 1, Carve{0.1}).has_value());
  // Another pair over the same direction: 0.6 + 0.6 has no headroom.
  // (A second link 1 -> 2 makes pair (0, 2) routable through link 0.)
  add(1, 2);
  EXPECT_FALSE(spine.book(0, 2, Carve{0.6}).has_value());
  EXPECT_EQ(spine.counters().get("spine.reservations_refused"), 1u);
  // A fitting fraction is admitted, and no partial carve leaked from
  // the refusal.
  EXPECT_DOUBLE_EQ(spine.booked_fraction(0, 0), 0.6);
  EXPECT_TRUE(spine.book(0, 2, Carve{0.3}).has_value());
  EXPECT_DOUBLE_EQ(spine.booked_fraction(0, 0), 0.9);
}

TEST_F(ReservationFixture, SurvivesRepricingButDiesWithItsLink) {
  add(0, 1);
  const auto l12 = add(1, 2);
  const auto res = spine.book(0, 2, Carve{0.5});
  ASSERT_TRUE(res.has_value());
  ASSERT_EQ(spine.booking(*res).route.size(), 2u);

  // Repricing every crossed link does not disturb the pinned circuit.
  spine.set_link_cost(0, 50.0);
  spine.set_link_cost(l12, 50.0);
  EXPECT_TRUE(spine.booking_active(*res));
  EXPECT_EQ(spine.booking(*res).route.size(), 2u);

  // A failed link on the route preempts it: capacity returns, the
  // handle goes stale, and the preemption is counted.
  spine.set_link_up(l12, false);
  EXPECT_FALSE(spine.booking_active(*res));
  EXPECT_DOUBLE_EQ(spine.booked_fraction(0, 0), 0.0);
  EXPECT_EQ(spine.counters().get("spine.reservation_preemptions"), 1u);

  // Traffic still holding the stale handle falls back to the shared
  // residual of a surviving link instead of erroring.
  const SimTime t0 = sim.now();
  EXPECT_EQ((send(0, 0, 1000, *res) - t0).us(), 1.0);  // full rate again

  // Release of a stale handle is an idempotent no-op.
  spine.release(*res);
  EXPECT_EQ(spine.counters().get("spine.reservation_releases"), 0u);
}

TEST_F(ReservationFixture, RecycledSlotsStaleifyOldHandles) {
  add(0, 1);
  const auto first = spine.book(0, 1, Carve{0.4});
  ASSERT_TRUE(first.has_value());
  spine.release(*first);
  const std::uint64_t version_after_release = spine.booking_version();
  // The next reservation reuses the slot with a bumped generation:
  // the old handle stays stale.
  const auto second = spine.book(1, 0, Carve{0.4});
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(second->id, first->id);
  EXPECT_NE(second->generation, first->generation);
  EXPECT_FALSE(spine.booking_active(*first));
  EXPECT_TRUE(spine.booking_active(*second));
  EXPECT_GT(spine.booking_version(), version_after_release);
  EXPECT_THROW(static_cast<void>(spine.booking(*first)), std::invalid_argument);
}

TEST_F(ReservationFixture, CarveAndSlotsShareOneBookedFractionPerDirection) {
  // Both disciplines draw on the same per-direction budget: whichever
  // books first, the second is refused once the sum would reach 1,
  // shared traffic sees rate × (1 − sum), and tearing both down
  // restores exactly the nameplate rate.
  const auto link = add(0, 1);
  const auto nameplate = spine.residual_rate(link, 0);

  // Carve first, then slots.
  const auto carve = spine.book(0, 1, Carve{0.5});
  ASSERT_TRUE(carve.has_value());
  EXPECT_FALSE(spine.book(0, 1, Slots{4, 2}).has_value());  // 0.5 + 0.5 reaches 1
  EXPECT_EQ(spine.counters().get("spine.slot_refusals"), 1u);
  const auto slots = spine.book(0, 1, Slots{8, 3});
  ASSERT_TRUE(slots.has_value());
  EXPECT_DOUBLE_EQ(spine.booked_fraction(link, 0), 0.875);
  EXPECT_DOUBLE_EQ(spine.residual_rate(link, 0).gbps_value(), 8.0 * (1.0 - 0.875));
  EXPECT_EQ(spine.find_bookings(0, 1).size(), 2u);
  spine.release(*carve);
  spine.release(*slots);
  EXPECT_EQ(spine.booked_fraction(link, 0), 0.0);
  EXPECT_EQ(spine.residual_rate(link, 0), nameplate);

  // Slots first, then a carve; fractions that are inexact in binary
  // still return the direction to exactly the nameplate rate.
  const auto slots2 = spine.book(0, 1, Slots{8, 3});
  ASSERT_TRUE(slots2.has_value());
  EXPECT_FALSE(spine.book(0, 1, Carve{0.625}).has_value());  // 0.375 + 0.625 reaches 1
  EXPECT_EQ(spine.counters().get("spine.reservations_refused"), 1u);
  const auto carve2 = spine.book(0, 1, Carve{0.3});
  ASSERT_TRUE(carve2.has_value());
  EXPECT_DOUBLE_EQ(spine.residual_rate(link, 0).gbps_value(), 8.0 * (1.0 - 0.675));
  spine.release(*carve2);
  spine.release(*slots2);
  EXPECT_EQ(spine.booked_fraction(link, 0), 0.0);
  EXPECT_EQ(spine.residual_rate(link, 0), nameplate);
  EXPECT_EQ(spine.booking_count(), 0u);
}

// ---------------------------------------------------------------------------
// Fleet-level: transport binding and the controller policy.
// ---------------------------------------------------------------------------

RuntimeConfig rack_config() {
  RuntimeConfig cfg;
  cfg.shape = RackShape::kGrid;
  cfg.rack.width = 4;
  cfg.rack.height = 4;
  cfg.enable_crc = false;
  return cfg;
}

/// Two racks over one slow spine link; the controller runs the
/// booking policy with Carve and fast hysteresis so a short test
/// exercises both edges.
FleetConfig policy_fleet(bool reservations) {
  FleetConfig fc;
  fc.racks.push_back(RackSpec{rack_config(), 0});
  fc.racks.push_back(RackSpec{rack_config(), 0});
  SpineSpec s;
  s.rack_a = 0;
  s.rack_b = 1;
  s.rate = phy::DataRate::gbps(10);
  fc.spine.push_back(s);
  fc.enable_controller = true;
  fc.controller.epoch = 20_us;
  fc.controller.booking.discipline = reservations ? runtime::BookingDiscipline::kCarve
                                                  : runtime::BookingDiscipline::kNone;
  fc.controller.booking.fraction = 0.5;
  fc.controller.booking.hot_bytes_per_epoch = 8 * 1024;
  fc.controller.booking.idle_bytes_per_epoch = 1024;
  fc.controller.booking.promote_after = 2;
  fc.controller.booking.demote_after = 3;
  return fc;
}

TEST(FleetCarvePolicy, PromotesHotPairsAndDemotesIdleOnesWithHysteresis) {
  FleetRuntime fleet(policy_fleet(true));
  std::optional<runtime::FleetFlowResult> result;
  runtime::FleetFlowSpec spec;
  spec.src = fleet.at(0, 3, 3);
  spec.dst = fleet.at(1, 0, 0);
  spec.size = DataSize::megabytes(1);  // ~800 us on 10G: many epochs hot
  fleet.start_flow(spec, [&](const runtime::FleetFlowResult& r) { result = r; });
  fleet.start();
  fleet.run_until();
  ASSERT_TRUE(result.has_value());
  ASSERT_FALSE(result->failed);
  // The pair went hot for >= promote_after epochs and was promoted;
  // its packets rode the carved slice.
  EXPECT_EQ(fleet.controller().promotions(), 1u);
  EXPECT_GT(fleet.spine().counters().get("spine.reserved_bytes"), 0u);
  EXPECT_FALSE(fleet.spine().find_bookings(0, 1).empty());
  // Hysteresis: one idle epoch is not a demotion...
  EXPECT_EQ(fleet.controller().demotions(), 0u);
  fleet.run_until(fleet.now() + 40_us);
  EXPECT_EQ(fleet.controller().demotions(), 0u);
  // ...but demote_after consecutive idle epochs are.
  fleet.run_until(fleet.now() + 200_us);
  EXPECT_EQ(fleet.controller().demotions(), 1u);
  EXPECT_TRUE(fleet.spine().find_bookings(0, 1).empty());
  EXPECT_EQ(fleet.spine().booking_count(), 0u);
  fleet.stop();
}

TEST(FleetCarvePolicy, PolicyOffNeverReserves) {
  FleetRuntime fleet(policy_fleet(false));
  std::optional<runtime::FleetFlowResult> result;
  runtime::FleetFlowSpec spec;
  spec.src = fleet.at(0, 3, 3);
  spec.dst = fleet.at(1, 0, 0);
  spec.size = DataSize::megabytes(1);
  fleet.start_flow(spec, [&](const runtime::FleetFlowResult& r) { result = r; });
  fleet.start();
  fleet.run_until();
  fleet.stop();
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(fleet.controller().promotions(), 0u);
  EXPECT_EQ(fleet.spine().booking_count(), 0u);
  EXPECT_EQ(fleet.spine().counters().get("spine.reserved_bytes"), 0u);
  EXPECT_EQ(fleet.spine().booking_version(), 0u);
}

TEST(FleetCarvePolicy, PreemptedPairFallsBackAndKeepsDelivering) {
  // Two parallel spine links; the promoted circuit rides link 0, then
  // link 0 dies mid-flow: the reservation is preempted, packets fall
  // back to the shared residual of link 1, and the flow completes.
  FleetConfig fc = policy_fleet(true);
  SpineSpec s = fc.spine[0];
  fc.spine.push_back(s);
  FleetRuntime fleet(fc);
  std::optional<runtime::FleetFlowResult> result;
  runtime::FleetFlowSpec spec;
  spec.src = fleet.at(0, 3, 3);
  spec.dst = fleet.at(1, 0, 0);
  spec.size = DataSize::megabytes(1);
  fleet.start_flow(spec, [&](const runtime::FleetFlowResult& r) { result = r; });
  fleet.sim().schedule_at(200_us, [&fleet] { fleet.spine().set_link_up(0, false); });
  fleet.start();
  fleet.run_until();
  fleet.stop();
  ASSERT_TRUE(result.has_value());
  EXPECT_FALSE(result->failed);
  EXPECT_GE(fleet.controller().promotions(), 1u);
  EXPECT_EQ(fleet.spine().counters().get("spine.reservation_preemptions"), 1u);
  // Traffic kept flowing on the survivor after the preemption.
  EXPECT_GT(fleet.spine().link_packets(1, 0), 0u);
}

TEST(FleetCarvePolicy, RejectsBadPolicyConfig) {
  FleetConfig fc = policy_fleet(true);
  fc.controller.booking.fraction = 1.0;
  EXPECT_THROW(FleetRuntime bad(fc), std::invalid_argument);
  fc.controller.booking.fraction = 0.5;
  fc.controller.booking.promote_after = 0;
  EXPECT_THROW(FleetRuntime bad(fc), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Default-path regression and skewed-scenario determinism.
// ---------------------------------------------------------------------------

TEST(FleetCarvePolicy, DefaultPacketizedPathIsUntouchedByTheReservationLayer) {
  // Arm A never touches the reservation API. Arm B carves and
  // releases a reservation before traffic starts. The shared path's
  // timing must be bit-identical: a released carve leaves no residue.
  auto run_arm = [](bool touch_reservations) {
    FleetConfig fc = policy_fleet(false);
    FleetRuntime fleet(fc);
    if (touch_reservations) {
      const auto res = fleet.spine().book(0, 1, Carve{0.7});
      EXPECT_TRUE(res.has_value());
      fleet.spine().release(*res);
    }
    std::optional<runtime::FleetFlowResult> result;
    runtime::FleetFlowSpec spec;
    spec.src = fleet.at(0, 3, 3);
    spec.dst = fleet.at(1, 0, 0);
    spec.size = DataSize::kilobytes(256);
    fleet.start_flow(spec, [&](const runtime::FleetFlowResult& r) { result = r; });
    fleet.start();
    fleet.run_until();
    fleet.stop();
    EXPECT_TRUE(result.has_value() && !result->failed);
    return std::pair{result->finished, fleet.sim().executed()};
  };
  const auto [finished_a, events_a] = run_arm(false);
  const auto [finished_b, events_b] = run_arm(true);
  EXPECT_EQ(finished_a.ps(), finished_b.ps());
  EXPECT_EQ(events_a, events_b);
}

TEST(SkewedFleetScenario, HotRackIncastShowsTheReservationCrossover) {
  // The acceptance anchor: with a hot rack pair, reservations improve
  // that pair's job completion while the shared residual's
  // degradation stays bounded (under the 1/(1 - fraction) = 2.5x
  // worst case by a wide margin).
  workload::SkewedScenarioConfig cfg;
  cfg.kind = workload::SkewedScenarioKind::kHotRackIncast;
  cfg.reservations = false;
  workload::SkewedFleetScenario off(cfg);
  const auto packet = off.run();
  cfg.reservations = true;
  workload::SkewedFleetScenario on(cfg);
  const auto reserved = on.run();
  EXPECT_GE(reserved.promotions, 1u);
  EXPECT_GT(reserved.reserved_bytes, 0u);
  EXPECT_LT(reserved.hot.job_completion.ps(), packet.hot.job_completion.ps());
  EXPECT_GT(reserved.background.job_completion.ps(),
            packet.background.job_completion.ps());
  EXPECT_LT(reserved.background.job_completion.ps(),
            packet.background.job_completion.ps() * 2);
  EXPECT_EQ(packet.hot.failed + packet.background.failed, 0u);
  EXPECT_EQ(reserved.hot.failed + reserved.background.failed, 0u);
}

// ---------------------------------------------------------------------------
// Fleet flow slot recycling (the Network::flows_ pattern, one layer up).
// ---------------------------------------------------------------------------

TEST(FleetFlowChurn, SequentialFlowsHoldThePoolAtPeakConcurrency) {
  FleetConfig fc;
  fc.racks.push_back(RackSpec{rack_config(), 0});
  fc.racks.push_back(RackSpec{rack_config(), 0});
  SpineSpec s;
  s.rack_a = 0;
  s.rack_b = 1;
  fc.spine.push_back(s);
  FleetRuntime fleet(fc);
  constexpr int kFlows = 2000;
  int completed = 0;
  // Each completion immediately starts the next flow from inside the
  // callback — the recycled-before-callback slot must be reusable.
  std::function<void()> chain = [&] {
    runtime::FleetFlowSpec spec;
    spec.src = fleet.at(0, 0, 0);
    spec.dst = fleet.at(1, 3, 3);
    spec.size = DataSize::kilobytes(4);
    fleet.start_flow(spec, [&](const runtime::FleetFlowResult& r) {
      ASSERT_FALSE(r.failed);
      if (++completed < kFlows) chain();
    });
  };
  chain();
  fleet.run_until();
  EXPECT_EQ(completed, kFlows);
  EXPECT_EQ(fleet.flows_completed(), static_cast<std::uint64_t>(kFlows));
  // One flow alive at a time: the pool never grew past one slot.
  EXPECT_EQ(fleet.flow_slots(), 1u);
  EXPECT_EQ(fleet.free_flow_slots(), 1u);
}

TEST(FleetFlowChurn, ConcurrentBurstThenChurnKeepsThePeakBound) {
  FleetConfig fc;
  fc.racks.push_back(RackSpec{rack_config(), 0});
  fc.racks.push_back(RackSpec{rack_config(), 0});
  SpineSpec s;
  s.rack_a = 0;
  s.rack_b = 1;
  fc.spine.push_back(s);
  FleetRuntime fleet(fc);
  constexpr int kBurst = 8;
  constexpr int kWaves = 50;
  int launched = 0;
  int completed = 0;
  std::function<void()> launch = [&] {
    ++launched;
    runtime::FleetFlowSpec spec;
    spec.src = fleet.at(0, 0, 0);
    spec.dst = fleet.at(1, 3, 3);
    spec.size = DataSize::kilobytes(4);
    fleet.start_flow(spec, [&](const runtime::FleetFlowResult& r) {
      ASSERT_FALSE(r.failed);
      ++completed;
      if (launched < kBurst * kWaves) launch();
    });
  };
  for (int i = 0; i < kBurst; ++i) launch();
  fleet.run_until();
  EXPECT_EQ(completed, kBurst * kWaves);
  // The pool is bounded by the peak concurrency, not the flow count.
  EXPECT_LE(fleet.flow_slots(), static_cast<std::size_t>(kBurst));
}

}  // namespace
}  // namespace rsf
