// Spine slot schedules: the TDMA regime between the carve and the
// packet FIFO. Slot-boundary wait and full-rate ride semantics,
// all-or-nothing admission against third-party calendar overlap,
// lease renewal on every slotted send with inactivity self-expiry,
// failure-driven preemption with shared-path fallback for stale
// handles, recycled-slot staleness, the controller's promote /
// multipath-split / demote cycle over parallel legs, its config
// validation. The slotted scenario's same-seed determinism lives in
// the property sweep.
#include <gtest/gtest.h>

#include <optional>
#include <stdexcept>
#include <string>

#include "fabric/interconnect.hpp"
#include "fabric/slot_calendar.hpp"
#include "runtime/fleet.hpp"
#include "sim/simulator.hpp"
#include "telemetry/registry.hpp"

namespace rsf {
namespace {

using fabric::Interconnect;
using fabric::SlotCalendar;
using fabric::SpineLinkParams;
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

struct SlottedFixture : ::testing::Test {
  Simulator sim;
  telemetry::Registry registry;
  Interconnect spine{&sim, &registry};

  fabric::SpineLinkId add(std::uint32_t a, std::uint32_t b, double gbps = 8.0) {
    SpineLinkParams p;
    p.a = {a, 0};
    p.b = {b, 0};
    p.rate = phy::DataRate::gbps(gbps);
    p.latency = SimTime::zero();  // keep the arithmetic bare
    return spine.add_link(p);
  }

  /// Send one packet and run to completion; returns the arrival time.
  SimTime send(fabric::SpineLinkId id, std::uint32_t from, std::int64_t bytes,
               SpineBookingHandle sched = {}) {
    std::optional<SimTime> arrival;
    EXPECT_TRUE(spine.send_packet(id, from, DataSize::bytes(bytes), sched,
                                  [&](bool) { arrival = sim.now(); }));
    sim.run_until();
    EXPECT_TRUE(arrival.has_value());
    return arrival.value_or(SimTime::zero());
  }

  std::uint64_t count(const std::string& name) { return spine.counters().get(name); }
};

TEST_F(SlottedFixture, WaitsForOwnedSlotsAndRidesThemAtFullRate) {
  // 8 Gb/s, 1000-byte packet: 1 us at the full rate; slot duration is
  // the default 1 us, so one packet fills exactly one slot.
  const auto link = add(0, 1);
  const auto sched = spine.book(0, 1, Slots{4, 1});
  ASSERT_TRUE(sched.has_value());
  EXPECT_TRUE(spine.booking_active(*sched));
  // A fresh calendar books the first contention-free offsets: the
  // pair owns offset 0 of every period — wall-clock [0, 1), [4, 5)...
  EXPECT_EQ(spine.booking(*sched).mask, SlotCalendar::periodic_mask(4, 0));
  EXPECT_DOUBLE_EQ(spine.booking(*sched).fraction, 0.25);
  EXPECT_DOUBLE_EQ(spine.booked_fraction(link, 0), 0.25);
  ASSERT_EQ(spine.booking(*sched).route.size(), 1u);
  EXPECT_EQ(spine.booking(*sched).route[0], link);

  // Sent inside an owned slot: serializes immediately at the FULL
  // link rate — 1 us — even though the pair owns only a quarter of
  // the calendar. A shared packet alongside it sees the 0.75
  // residual: the same bytes take 4/3 us.
  std::optional<SimTime> shared_arrival;
  spine.send_packet(link, 0, DataSize::bytes(1000),
                    [&](bool) { shared_arrival = sim.now(); });
  EXPECT_EQ(send(link, 0, 1000, *sched).ns(), 1000.0);
  ASSERT_TRUE(shared_arrival.has_value());
  EXPECT_EQ(shared_arrival->ps(), 1'333'333);
  EXPECT_EQ(count("spine.slotted_bytes"), 1000u);

  // The slotted lane is now busy until t = 1 us, the start of an
  // unowned slot: the next slotted packet waits for the pair's next
  // owned slot at 4 us and arrives at 5 us.
  EXPECT_EQ(send(link, 0, 1000, *sched).us(), 5.0);
  EXPECT_EQ(count("spine.slot_reservations"), 1u);
}

TEST_F(SlottedFixture, AdmissionIsAllOrNothingAcrossTheWholeRoute) {
  const auto l01 = add(0, 1);
  const auto l12 = add(1, 2);
  // Stagger the two lines' occupancy so their free offsets misalign:
  // l01 owns {0,1,2} via the neighbor pair, l12 owns {3,4,5} via a
  // booked-then-released shift of the far pair.
  const auto neighbor = spine.book(0, 1, Slots{8, 3});
  ASSERT_TRUE(neighbor.has_value());
  const auto far_first = spine.book(1, 2, Slots{8, 3});
  const auto far_second = spine.book(1, 2, Slots{8, 3});
  ASSERT_TRUE(far_first.has_value() && far_second.has_value());
  EXPECT_EQ(spine.booking(*far_second).mask, SlotCalendar::periodic_mask(8, 3) |
                                                 SlotCalendar::periodic_mask(8, 4) |
                                                 SlotCalendar::periodic_mask(8, 5));
  spine.release(*far_first);
  EXPECT_DOUBLE_EQ(spine.booked_fraction(l01, 0), 0.375);
  EXPECT_DOUBLE_EQ(spine.booked_fraction(l12, 1), 0.375);

  // Headroom refusal: a schedule may never starve a direction's
  // shared residual outright (duty 5 of 8 on a 0.375-slotted line).
  EXPECT_FALSE(spine.book(0, 1, Slots{8, 5}).has_value());
  EXPECT_EQ(count("spine.slot_refusals"), 1u);

  // Contention refusal is judged across the WHOLE route at once:
  // each line has five free offsets, but only {6, 7} are free on
  // both, so the transit pair's duty-4 ask is refused outright and no
  // partial claim leaks onto either line.
  EXPECT_FALSE(spine.book(0, 2, Slots{8, 4}).has_value());
  EXPECT_EQ(count("spine.slot_refusals"), 2u);
  EXPECT_DOUBLE_EQ(spine.booked_fraction(l01, 0), 0.375);
  EXPECT_DOUBLE_EQ(spine.booked_fraction(l12, 1), 0.375);
  EXPECT_EQ(spine.booking_count(), 2u);

  // The duty that fits the shared free offsets is admitted on both
  // hops simultaneously.
  const auto transit = spine.book(0, 2, Slots{8, 2});
  ASSERT_TRUE(transit.has_value());
  EXPECT_EQ(spine.booking(*transit).mask, SlotCalendar::periodic_mask(8, 6) |
                                              SlotCalendar::periodic_mask(8, 7));
  ASSERT_EQ(spine.booking(*transit).route.size(), 2u);
  EXPECT_DOUBLE_EQ(spine.booked_fraction(l01, 0), 0.625);
  EXPECT_DOUBLE_EQ(spine.booked_fraction(l12, 1), 0.625);

  // Shape validation mirrors the calendar's contract.
  EXPECT_THROW(static_cast<void>(spine.book(0, 1, Slots{3, 1})),
               std::invalid_argument);  // period must divide the frame
  EXPECT_THROW(static_cast<void>(spine.book(0, 1, Slots{8, 9})),
               std::invalid_argument);  // duty > period
  // Unroutable pairs are refusals, not errors.
  EXPECT_FALSE(spine.book(0, 7, Slots{4, 1}).has_value());
}

TEST_F(SlottedFixture, SendsRenewTheLeaseAndInactivityExpiresIt) {
  spine.set_slot_timeout(10_us);
  const auto link = add(0, 1);
  const auto sched = spine.book(0, 1, Slots{4, 2});
  ASSERT_TRUE(sched.has_value());
  const std::uint64_t booked_version = spine.booking_version();

  // A send every 6 us keeps the schedule alive well past 3x the
  // 10 us inactivity window: every slotted send renews the lease.
  for (const auto t : {0_us, 6_us, 12_us, 18_us, 24_us, 30_us}) {
    sim.schedule_at(t, [this, link, sched] {
      spine.send_packet(link, 0, DataSize::bytes(500), *sched,
                        [](bool) {});
    });
  }
  // Sentinel keeps the simulator alive past the (weak) expiry event.
  sim.schedule_at(60_us, [] {});
  sim.run_until(35_us);
  EXPECT_TRUE(spine.booking_active(*sched));
  EXPECT_EQ(count("spine.slot_expirations"), 0u);

  // Then the pair goes quiet: 10 us after the last send the schedule
  // self-expires — slots and residual return, the handle goes stale,
  // and the version bumps so transports drop it without a lookup.
  sim.run_until();
  EXPECT_FALSE(spine.booking_active(*sched));
  EXPECT_EQ(count("spine.slot_expirations"), 1u);
  EXPECT_DOUBLE_EQ(spine.booked_fraction(link, 0), 0.0);
  EXPECT_EQ(spine.booking_count(), 0u);
  EXPECT_GT(spine.booking_version(), booked_version);
}

TEST_F(SlottedFixture, LinkFailurePreemptsAndStaleHandlesFallBackShared) {
  add(0, 1);
  const auto l12 = add(1, 2);
  const auto sched = spine.book(0, 2, Slots{4, 2});
  ASSERT_TRUE(sched.has_value());
  EXPECT_DOUBLE_EQ(spine.booked_fraction(0, 0), 0.5);

  // A failed link on the route preempts the whole schedule: capacity
  // returns on the surviving hop too, and the preemption is counted.
  spine.set_link_up(l12, false);
  EXPECT_FALSE(spine.booking_active(*sched));
  EXPECT_EQ(count("spine.slot_preemptions"), 1u);
  EXPECT_DOUBLE_EQ(spine.booked_fraction(0, 0), 0.0);

  // Traffic still holding the stale handle rides the shared FIFO of
  // the surviving link at the full rate instead of erroring.
  EXPECT_EQ(send(0, 0, 1000, *sched).ns(), 1000.0);
  EXPECT_EQ(count("spine.slotted_bytes"), 0u);

  // Releasing a stale handle is an idempotent no-op.
  spine.release(*sched);
  EXPECT_EQ(count("spine.slot_releases"), 0u);
}

TEST_F(SlottedFixture, RecycledScheduleSlotsStaleifyOldHandles) {
  add(0, 1);
  const auto first = spine.book(0, 1, Slots{4, 1});
  ASSERT_TRUE(first.has_value());
  spine.release(*first);
  EXPECT_EQ(count("spine.slot_releases"), 1u);
  // The next booking reuses the slot with a bumped generation: the
  // old handle stays stale and its accessors throw.
  const auto second = spine.book(1, 0, Slots{4, 1});
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(second->id, first->id);
  EXPECT_NE(second->generation, first->generation);
  EXPECT_FALSE(spine.booking_active(*first));
  EXPECT_TRUE(spine.booking_active(*second));
  EXPECT_THROW(static_cast<void>(spine.booking(*first)), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Fleet-level: the controller's booking policy with Slots.
// ---------------------------------------------------------------------------

RuntimeConfig rack_config() {
  RuntimeConfig cfg;
  cfg.shape = RackShape::kGrid;
  cfg.rack.width = 4;
  cfg.rack.height = 4;
  cfg.enable_crc = false;
  return cfg;
}

/// Two racks over two parallel spine links; the controller runs the
/// booking policy with Slots, fast hysteresis and the multipath split.
FleetConfig schedule_fleet(bool schedules) {
  FleetConfig fc;
  fc.racks.push_back(RackSpec{rack_config(), 0});
  fc.racks.push_back(RackSpec{rack_config(), 0});
  for (int i = 0; i < 2; ++i) {
    SpineSpec s;
    s.rack_a = 0;
    s.rack_b = 1;
    s.rate = phy::DataRate::gbps(10);
    fc.spine.push_back(s);
  }
  fc.enable_controller = true;
  fc.controller.epoch = 20_us;
  fc.controller.booking.discipline = schedules ? runtime::BookingDiscipline::kSlots
                                               : runtime::BookingDiscipline::kNone;
  fc.controller.booking.period = 4;
  fc.controller.booking.duty = 2;
  fc.controller.booking.hot_bytes_per_epoch = 8 * 1024;
  fc.controller.booking.idle_bytes_per_epoch = 1024;
  fc.controller.booking.promote_after = 2;
  fc.controller.booking.demote_after = 3;
  return fc;
}

TEST(FleetSlotsPolicy, PromotesHotPairsSplitsLegsAndDemotesIdleOnes) {
  FleetRuntime fleet(schedule_fleet(true));
  // Keep the fabric's own inactivity expiry out of the way: this test
  // pins the demotion on the controller's idle hysteresis.
  fleet.spine().set_slot_timeout(100'000_us);
  std::optional<runtime::FleetFlowResult> result;
  runtime::FleetFlowSpec spec;
  spec.src = fleet.at(0, 3, 3);
  spec.dst = fleet.at(1, 0, 0);
  spec.size = DataSize::megabytes(1);  // many epochs hot on 2 x 10G
  fleet.start_flow(spec, [&](const runtime::FleetFlowResult& r) { result = r; });
  fleet.start();
  fleet.run_until();
  ASSERT_TRUE(result.has_value());
  ASSERT_FALSE(result->failed);
  // The pair went hot, was promoted once, and its duty was split into
  // two schedules across the parallel legs; packets rode the slots on
  // both links.
  EXPECT_EQ(fleet.controller().promotions(), 1u);
  EXPECT_EQ(fleet.controller().counters().get("fleet.schedule_splits"), 1u);
  EXPECT_EQ(fleet.spine().find_bookings(0, 1).size(), 2u);
  EXPECT_GT(fleet.spine().counters().get("spine.slotted_bytes"), 0u);
  EXPECT_GT(fleet.spine().link_packets(0, 0), 0u);
  EXPECT_GT(fleet.spine().link_packets(1, 0), 0u);
  // Hysteresis: demote_after consecutive idle epochs return every leg.
  EXPECT_EQ(fleet.controller().demotions(), 0u);
  fleet.run_until(fleet.now() + 200_us);
  EXPECT_EQ(fleet.controller().demotions(), 1u);
  EXPECT_TRUE(fleet.spine().find_bookings(0, 1).empty());
  EXPECT_EQ(fleet.spine().booking_count(), 0u);
  EXPECT_EQ(fleet.spine().counters().get("spine.slot_releases"), 2u);
  fleet.stop();
}

TEST(FleetSlotsPolicy, PolicyOffNeverTouchesTheCalendar) {
  FleetRuntime fleet(schedule_fleet(false));
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
  EXPECT_EQ(fleet.spine().booking_version(), 0u);
  EXPECT_EQ(fleet.spine().counters().get("spine.slotted_bytes"), 0u);
}

TEST(FleetSlotsPolicy, RejectsBadPolicyConfig) {
  FleetConfig fc = schedule_fleet(true);
  fc.controller.booking.period = 3;  // does not divide the frame
  EXPECT_THROW(FleetRuntime bad(fc), std::invalid_argument);
  fc.controller.booking.period = 4;
  fc.controller.booking.duty = 5;  // duty > period
  EXPECT_THROW(FleetRuntime bad(fc), std::invalid_argument);
  fc.controller.booking.duty = 2;
  fc.controller.booking.promote_after = 0;
  EXPECT_THROW(FleetRuntime bad(fc), std::invalid_argument);
}

}  // namespace
}  // namespace rsf
