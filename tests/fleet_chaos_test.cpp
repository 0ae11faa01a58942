// Correlated-failure chaos: shared-risk groups fail together (and
// idempotently), rack brownouts degrade instead of partitioning when a
// bypass exists, a killed FleetController loses its leases and a
// restarted one re-earns them (checkpointed: on the first post-restart
// epoch), and every ChaosScenario run holds the invariant triple —
// bounded, conserving, leak-free — byte-identically across reruns.
// Plus the failure-path bugfix sweep: loss_prob == 1.0
// blackhole links, double set_link_up, and zero-delay retries against
// a link that died in the same batch.
#include <gtest/gtest.h>

#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "fabric/interconnect.hpp"
#include "runtime/fleet.hpp"
#include "runtime/fleet_controller.hpp"
#include "workload/chaos.hpp"

namespace rsf {
namespace {

using fabric::Interconnect;
using fabric::SpineLinkId;
using fabric::SpineLinkParams;
using phy::DataSize;
using rsf::sim::SimTime;
using rsf::sim::Simulator;
using runtime::FleetConfig;
using runtime::FleetController;
using runtime::FleetControllerConfig;
using runtime::FleetRuntime;
using runtime::RackShape;
using runtime::RackSpec;
using runtime::RuntimeConfig;
using runtime::SpineSpec;
using workload::ChaosAction;
using workload::ChaosEvent;
using workload::ChaosScenario;
using workload::ChaosScenarioConfig;
using workload::ChaosScenarioResult;
using namespace rsf::sim::literals;

// ---------------------------------------------------------------------
// Shared-risk groups on a bare Interconnect.
// ---------------------------------------------------------------------

struct SrlgFixture : ::testing::Test {
  Simulator sim;
  telemetry::Registry registry;
  Interconnect spine{&sim, &registry};

  SpineLinkId add(std::uint32_t a, std::uint32_t b, double loss = 0.0) {
    SpineLinkParams p;
    p.a = {a, 0};
    p.b = {b, 0};
    p.loss_prob = loss;
    return spine.add_link(p);
  }

  std::uint64_t count(const std::string& name) { return spine.counters().get(name); }
};

TEST_F(SrlgFixture, GroupCutFailsEveryMemberOnceAndRepairsRestoreThem) {
  const auto l0 = add(0, 1);
  const auto l1 = add(1, 2);
  const auto l2 = add(2, 3);
  const auto g = spine.add_shared_risk_group({l0, l1, l2});
  EXPECT_TRUE(spine.group_up(g));
  EXPECT_EQ(spine.shared_risk_group(g), (std::vector<SpineLinkId>{l0, l1, l2}));

  spine.set_group_up(g, false);
  EXPECT_FALSE(spine.group_up(g));
  for (const auto l : {l0, l1, l2}) EXPECT_FALSE(spine.link_up(l));
  EXPECT_EQ(count("spine.srlg_cuts"), 1u);
  EXPECT_EQ(count("spine.links_failed"), 3u);
  // A cut trench severs the line: 0 -> 3 is unreachable, not mispriced.
  EXPECT_FALSE(spine.route(0, 3).has_value());

  spine.set_group_up(g, true);
  for (const auto l : {l0, l1, l2}) EXPECT_TRUE(spine.link_up(l));
  EXPECT_EQ(count("spine.srlg_repairs"), 1u);
  EXPECT_EQ(count("spine.links_restored"), 3u);
  EXPECT_TRUE(spine.route(0, 3).has_value());
}

TEST_F(SrlgFixture, GroupTransitionsAreIdempotentEvenWithOverlap) {
  const auto l0 = add(0, 1);
  const auto l1 = add(1, 2);
  const auto ga = spine.add_shared_risk_group({l0, l1});
  const auto gb = spine.add_shared_risk_group({l1});  // overlaps ga on l1

  spine.set_group_up(ga, false);
  spine.set_group_up(ga, false);  // repeat: whole call is a no-op
  EXPECT_EQ(count("spine.srlg_cuts"), 1u);
  EXPECT_EQ(count("spine.links_failed"), 2u);

  // The overlapping group's cut transitions *it*, but l1 is already
  // down — per-link idempotence keeps links_failed exact.
  spine.set_group_up(gb, false);
  EXPECT_EQ(count("spine.srlg_cuts"), 2u);
  EXPECT_EQ(count("spine.links_failed"), 2u);

  // Repairing ga restores both links even while gb still claims l1:
  // link administrative state is last-writer-wins.
  spine.set_group_up(ga, true);
  EXPECT_TRUE(spine.link_up(l1));
  EXPECT_EQ(count("spine.links_restored"), 2u);
}

TEST_F(SrlgFixture, RepairOfAFullyShadowedCutIsAPureNoop) {
  // Regression: two groups covering the same trench. Cut A takes both
  // links down; cut B then takes nothing (every member already
  // failed). Repairing B used to resurrect links the still-cut A
  // holds; now it is a pure no-op — no link transition, no topology
  // version bump, no route-cache flush — with its own counter so
  // chaos timelines that emit one keep the phantom visible.
  const auto l0 = add(0, 1);
  const auto l1 = add(1, 2);
  const auto ga = spine.add_shared_risk_group({l0, l1});
  const auto gb = spine.add_shared_risk_group({l0, l1});

  spine.set_group_up(ga, false);
  spine.set_group_up(gb, false);  // shadowed: takes nothing down
  EXPECT_EQ(count("spine.srlg_cuts"), 2u);
  EXPECT_EQ(count("spine.links_failed"), 2u);

  const std::uint64_t version_under_cut = spine.version();
  spine.set_group_up(gb, true);
  EXPECT_EQ(count("spine.srlg_noop_repairs"), 1u);
  EXPECT_EQ(count("spine.srlg_repairs"), 0u);
  EXPECT_FALSE(spine.link_up(l0));
  EXPECT_FALSE(spine.link_up(l1));
  EXPECT_EQ(spine.version(), version_under_cut);
  EXPECT_EQ(count("spine.links_restored"), 0u);
  EXPECT_FALSE(spine.route(0, 2).has_value());

  // The group that actually took the trench down still repairs it.
  spine.set_group_up(ga, true);
  EXPECT_EQ(count("spine.srlg_repairs"), 1u);
  EXPECT_TRUE(spine.link_up(l0) && spine.link_up(l1));
  EXPECT_TRUE(spine.route(0, 2).has_value());
}

TEST_F(SrlgFixture, GroupRegistrationValidates) {
  const auto l0 = add(0, 1);
  EXPECT_THROW(spine.add_shared_risk_group({}), std::invalid_argument);
  EXPECT_THROW(spine.add_shared_risk_group({l0, 99}), std::invalid_argument);
  EXPECT_THROW(spine.set_group_up(0, false), std::invalid_argument);
  EXPECT_THROW((void)spine.group_up(0), std::invalid_argument);
  EXPECT_EQ(spine.shared_risk_group_count(), 0u);
}

TEST_F(SrlgFixture, RackAttachmentsListEverySpineLinkOfTheRackAscending) {
  const auto l0 = add(0, 1);
  const auto l1 = add(1, 2);
  const auto l2 = add(2, 0);
  add(2, 3);
  EXPECT_EQ(spine.rack_attachments(0), (std::vector<SpineLinkId>{l0, l2}));
  EXPECT_EQ(spine.rack_attachments(1), (std::vector<SpineLinkId>{l0, l1}));
  EXPECT_TRUE(spine.rack_attachments(7).empty());
}

// ---------------------------------------------------------------------
// Satellite bugfixes at the fabric layer.
// ---------------------------------------------------------------------

TEST_F(SrlgFixture, AddLinkAcceptsTheClosedLossProbInterval) {
  // loss_prob is a probability: [0, 1] inclusive. 1.0 is a blackhole
  // link — legal and useful (the chaos harness models dead optics that
  // still carry light); only genuinely impossible values are rejected.
  EXPECT_NO_THROW(add(0, 1, 0.0));
  EXPECT_NO_THROW(add(0, 1, 1.0));
  EXPECT_THROW(add(0, 1, -0.01), std::invalid_argument);
  EXPECT_THROW(add(0, 1, 1.01), std::invalid_argument);
}

TEST_F(SrlgFixture, BlackholeLinkDropsEveryPacketDeterministically) {
  const auto l = add(0, 1, 1.0);
  int callbacks = 0;
  int delivered = 0;
  for (int i = 0; i < 8; ++i) {
    EXPECT_TRUE(spine.send_packet(l, 0, DataSize::bytes(1000),
                                  [&](bool ok) {
                                    ++callbacks;
                                    delivered += ok ? 1 : 0;
                                  }));
  }
  sim.run_until();
  EXPECT_EQ(callbacks, 8);  // loss still reports arrival — sender retries
  EXPECT_EQ(delivered, 0);
  EXPECT_EQ(spine.link_drops(l, 0), 8u);
}

TEST_F(SrlgFixture, SetLinkUpIsIdempotent) {
  const auto l = add(0, 1);
  (void)spine.route(0, 1);  // warm the cache so version bumps are visible
  const auto version = spine.version();

  spine.set_link_up(l, true);  // already up: nothing moves
  EXPECT_EQ(spine.version(), version);
  EXPECT_EQ(count("spine.links_restored"), 0u);

  spine.set_link_up(l, false);
  spine.set_link_up(l, false);  // repeat: no second count, no re-walk
  EXPECT_EQ(count("spine.links_failed"), 1u);
  const auto down_version = spine.version();
  spine.set_link_up(l, false);
  EXPECT_EQ(spine.version(), down_version);

  spine.set_link_up(l, true);
  spine.set_link_up(l, true);
  EXPECT_EQ(count("spine.links_restored"), 1u);
}

TEST_F(SrlgFixture, PreemptionLandsWhileAReservedPacketIsMidSpineHop) {
  // A reserved packet is serialized onto the carve, the link dies
  // before its last bit arrives, and the arrival callback still fires:
  // the handle is stale (preempted exactly once), the packet's fate is
  // already sealed, and nothing corrupts or hangs.
  const auto l = add(0, 1);
  const auto h = spine.book(0, 1, fabric::Carve{0.5});
  ASSERT_TRUE(h.has_value());
  std::optional<bool> outcome;
  EXPECT_TRUE(spine.send_packet(l, 0, DataSize::bytes(1000), *h,
                                [&](bool ok) { outcome = ok; }));
  // Mid-flight (propagation is 1 us): the trench backhoe arrives.
  sim.schedule_at(500_ns, [&] { spine.set_link_up(l, false); });
  sim.run_until();
  ASSERT_TRUE(outcome.has_value());
  EXPECT_TRUE(*outcome);  // the in-flight packet was already committed
  EXPECT_FALSE(spine.booking_active(*h));
  EXPECT_EQ(count("spine.reservation_preemptions"), 1u);
  // Stale-handle sends on the repaired link degrade to the shared
  // residual instead of erroring.
  spine.set_link_up(l, true);
  EXPECT_TRUE(spine.send_packet(l, 0, DataSize::bytes(1000), *h,
                                [](bool) {}));
  sim.run_until();
  EXPECT_EQ(spine.booking_count(), 0u);
}

// ---------------------------------------------------------------------
// Satellite bugfixes at the fleet layer.
// ---------------------------------------------------------------------

FleetConfig two_rack_fleet() {
  FleetConfig fc;
  RuntimeConfig rack;
  rack.shape = RackShape::kGrid;
  rack.rack.width = 4;
  rack.rack.height = 4;
  rack.enable_crc = false;
  fc.racks.push_back(RackSpec{rack, 0});
  fc.racks.push_back(RackSpec{rack, 0});
  return fc;
}

SpineSpec fast_link(std::uint32_t a, std::uint32_t b, double cost, double loss) {
  SpineSpec s;
  s.rack_a = a;
  s.rack_b = b;
  s.rate = phy::DataRate::gbps(25);
  s.latency = 2_us;
  s.cost = cost;
  s.loss_prob = loss;
  return s;
}

TEST(FleetChaosBugfix, FlowOverBlackholeOnlyRouteFailsCleanly) {
  FleetConfig fc = two_rack_fleet();
  fc.spine.push_back(fast_link(0, 1, 1.0, 1.0));  // the only route: a blackhole
  FleetRuntime fleet(fc);

  runtime::FleetFlowSpec spec;
  spec.src = fleet.at(0, 0, 0);
  spec.dst = fleet.at(1, 3, 3);
  spec.size = DataSize::kilobytes(8);
  std::optional<runtime::FleetFlowResult> result;
  fleet.start_flow(spec, [&](const runtime::FleetFlowResult& r) { result = r; });
  fleet.run_until();

  ASSERT_TRUE(result.has_value());
  EXPECT_TRUE(result->failed);  // retry exhaustion, not a hang
  // The eight packets are lost in lockstep, so each spends its whole
  // kMaxRetries budget before the first one exhausts and fails the flow.
  EXPECT_EQ(result->retransmits, 8u * static_cast<std::uint64_t>(fabric::kMaxRetries));
  EXPECT_EQ(fleet.flows_failed(), 1u);
  EXPECT_EQ(fleet.flows_completed(), 0u);
  // The failure path recycled every flow and packet slot.
  EXPECT_EQ(fleet.free_flow_slots(), fleet.flow_slots());
  EXPECT_EQ(fleet.free_packet_slots(), fleet.packet_slots());
}

TEST(FleetChaosBugfix, RetryReresolvesARouteThatDiedInTheSameBatch) {
  // Link 0 is cheap but loses every packet; link 1 is pricier and
  // clean. The source sits on the gateway, so packet 0 goes straight
  // onto link 0 and is lost at the far end one 1 KiB serialization
  // plus the 2 us latency later; its retry fires kRetryDelay after
  // that. Link 0 is cut at exactly that instant, by an event
  // scheduled earlier, so the cut runs first in the retry's own batch:
  // the retry must re-resolve the route (finding link 1) instead of
  // blindly re-entering the dead hop. Two runs must agree byte for
  // byte.
  auto run = [] {
    FleetConfig fc = two_rack_fleet();
    fc.spine.push_back(fast_link(0, 1, 1.0, 1.0));
    fc.spine.push_back(fast_link(0, 1, 3.0, 0.0));
    FleetRuntime fleet(fc);
    const SimTime first_loss =
        2_us + phy::transmission_time(DataSize::bytes(1024), phy::DataRate::gbps(25));
    fleet.sim().schedule_weak_at(first_loss + fabric::kRetryDelay,
                                 [&] { fleet.spine().set_link_up(0, false); });
    runtime::FleetFlowSpec spec;
    spec.src = fleet.at(0, 0, 0);
    spec.dst = fleet.at(1, 3, 3);
    spec.size = DataSize::kilobytes(32);
    std::optional<runtime::FleetFlowResult> result;
    fleet.start_flow(spec, [&](const runtime::FleetFlowResult& r) { result = r; });
    fleet.run_until();
    EXPECT_TRUE(result.has_value());
    if (result) {
      EXPECT_FALSE(result->failed);    // rerouted, not ping-ponged to death
      EXPECT_GE(result->retransmits, 1u);
    }
    EXPECT_EQ(fleet.flows_completed(), 1u);
    EXPECT_EQ(fleet.spine().counters().get("spine.link1.packets"), 32u);
    EXPECT_EQ(fleet.free_packet_slots(), fleet.packet_slots());
    return fleet.metrics_table().to_string();
  };
  const std::string first = run();
  EXPECT_EQ(first, run());
}

TEST(FleetChaosBugfix, KillAndRestartControllerValidateTheirPreconditions) {
  FleetConfig fc = two_rack_fleet();
  fc.spine.push_back(fast_link(0, 1, 1.0, 0.0));
  {
    FleetRuntime fleet(fc);  // no controller configured
    EXPECT_THROW(fleet.kill_controller(), std::logic_error);
    EXPECT_THROW(fleet.restart_controller(), std::logic_error);
  }
  fc.enable_controller = true;
  FleetRuntime fleet(fc);
  EXPECT_TRUE(fleet.has_controller());
  EXPECT_THROW(fleet.restart_controller(), std::logic_error);  // still alive
  fleet.kill_controller();
  EXPECT_FALSE(fleet.has_controller());
  EXPECT_THROW(fleet.kill_controller(), std::logic_error);  // already dead
  fleet.restart_controller();
  EXPECT_TRUE(fleet.has_controller());
  EXPECT_EQ(fleet.metrics().counters("fleet").get("fleet.controller_kills"), 1u);
  EXPECT_EQ(fleet.metrics().counters("fleet").get("fleet.controller_restarts"), 1u);
}

// ---------------------------------------------------------------------
// Controller checkpoint / restore.
// ---------------------------------------------------------------------

FleetControllerConfig hot_pair_config() {
  FleetControllerConfig cfg;
  cfg.epoch = 10_us;
  cfg.booking.discipline = runtime::BookingDiscipline::kCarve;
  cfg.booking.fraction = 0.5;
  cfg.booking.hot_bytes_per_epoch = 1000;
  cfg.booking.idle_bytes_per_epoch = 10;
  cfg.booking.promote_after = 2;
  cfg.booking.demote_after = 100;
  cfg.booking.max_pairs = 1;
  return cfg;
}

TEST(FleetControllerCheckpoint, CheckpointedRestartReearnsTheCarveInOneEpoch) {
  Simulator sim;
  telemetry::Registry registry;
  Interconnect spine(&sim, &registry);
  SpineLinkParams p;
  p.a = {0, 0};
  p.b = {1, 0};
  spine.add_link(p);
  std::uint64_t& demand = spine.pair_demand_slot(0, 1);

  auto ctrl = std::make_unique<FleetController>(&sim, &spine, hot_pair_config(),
                                                &registry);
  ctrl->start();
  for (const auto t : {5_us, 15_us, 25_us}) {
    sim.schedule_at(t, [&] { demand += 100'000; });
  }
  sim.run_until(35_us);
  ASSERT_FALSE(spine.find_bookings(0, 1).empty());  // promoted at 20 us

  const auto ckpt = ctrl->checkpoint();
  ASSERT_EQ(ckpt.pairs.size(), 1u);
  EXPECT_EQ(ckpt.pairs[0].key, std::uint64_t{0} << 32 | 1u);
  EXPECT_TRUE(ckpt.pairs[0].booked);
  EXPECT_GT(ckpt.pairs[0].score, 0.0);
  // A running controller refuses a restore (state would tear mid-epoch).
  EXPECT_THROW(ctrl->restore(ckpt), std::logic_error);

  // The kill: leases expire with their owner.
  ctrl->stop();
  EXPECT_EQ(ctrl->release_bookings(), 1u);
  EXPECT_TRUE(spine.find_bookings(0, 1).empty());
  ctrl.reset();

  // The restarted controller restores intent, not handles — and while
  // the pair is still hot, the first post-restart epoch re-reserves
  // through the normal admission path.
  auto fresh = std::make_unique<FleetController>(&sim, &spine, hot_pair_config(),
                                                 &registry);
  fresh->restore(ckpt);
  sim.schedule_at(40_us, [&] { demand += 100'000; });
  fresh->start();
  sim.run_until(48_us);  // one tick, at 45 us
  EXPECT_EQ(fresh->epochs_completed(), 1u);
  EXPECT_FALSE(spine.find_bookings(0, 1).empty());
  fresh->stop();
}

TEST(FleetControllerCheckpoint, SplitPairThatLostALegIsNotCheckpointedAsBooked) {
  // The live policy forfeits a pair that lost any leg and makes it
  // re-earn its streak; a checkpoint taken between the preemption and
  // the next tick must agree, or a restore would skip the re-earn.
  Simulator sim;
  telemetry::Registry registry;
  Interconnect spine(&sim, &registry);
  SpineLinkParams p;
  p.a = {0, 0};
  p.b = {1, 0};
  spine.add_link(p);
  const SpineLinkId second = spine.add_link(p);
  std::uint64_t& demand = spine.pair_demand_slot(0, 1);
  FleetControllerConfig cfg = hot_pair_config();
  cfg.booking.discipline = runtime::BookingDiscipline::kSlots;
  cfg.booking.period = 4;
  cfg.booking.duty = 2;
  FleetController ctrl(&sim, &spine, cfg, &registry);
  ctrl.start();
  for (const auto t : {5_us, 15_us, 25_us}) {
    sim.schedule_at(t, [&] { demand += 100'000; });
  }
  sim.run_until(21_us);  // promoted at 20 us, split over both links
  ASSERT_EQ(spine.find_bookings(0, 1).size(), 2u);
  ASSERT_EQ(registry.counters("fleet").get("fleet.schedule_splits"), 1u);
  EXPECT_TRUE(ctrl.checkpoint().pairs[0].booked);

  spine.set_link_up(second, false);  // preempts one leg only
  ASSERT_EQ(spine.find_bookings(0, 1).size(), 1u);
  EXPECT_FALSE(ctrl.checkpoint().pairs[0].booked);
  ctrl.stop();
}

TEST(FleetControllerCheckpoint, ColdRestartSeedsBaselinesAndReearnsViaFullStreak) {
  // A cold controller starting on a warm spine must not misread the
  // fleet's entire demand history as one epoch's delta. With baselines
  // seeded at start(), promotion takes the full promote_after streak
  // driven by genuinely fresh demand.
  Simulator sim;
  telemetry::Registry registry;
  Interconnect spine(&sim, &registry);
  SpineLinkParams p;
  p.a = {0, 0};
  p.b = {1, 0};
  spine.add_link(p);
  std::uint64_t& demand = spine.pair_demand_slot(0, 1);
  demand = 50'000'000;  // ancient history from before this controller

  FleetController ctrl(&sim, &spine, hot_pair_config(), &registry);
  ctrl.start();
  sim.schedule_at(5_us, [&] { demand += 100; });  // keep ticks observing
  sim.run_until(12_us);  // first tick at 10 us
  // The pre-existing 50 MB never registered as heat: no promotion.
  EXPECT_TRUE(spine.find_bookings(0, 1).empty());
  EXPECT_EQ(ctrl.promotions(), 0u);

  for (const auto t : {15_us, 25_us}) {
    sim.schedule_at(t, [&] { demand += 100'000; });
  }
  sim.run_until(35_us);  // two hot epochs -> streak 2 -> promote
  EXPECT_FALSE(spine.find_bookings(0, 1).empty());
  ctrl.stop();
}

TEST(FleetControllerCheckpoint, FlapAtThePromotionBoundaryCostsTheFullStreak) {
  // The satellite's race, pinned at event granularity: the pair's hot
  // streak clears promote_after at the tick where the link is flapped
  // down — the promotion *decision* stands, but reserve() finds no
  // route. The policy backs off a full promote window (streak reset)
  // rather than holding a phantom carve, and the up-flap an instant
  // later doesn't resurrect it: the pair re-earns the whole streak.
  Simulator sim;
  telemetry::Registry registry;
  Interconnect spine(&sim, &registry);
  SpineLinkParams p;
  p.a = {0, 0};
  p.b = {1, 0};
  const SpineLinkId link = spine.add_link(p);
  std::uint64_t& demand = spine.pair_demand_slot(0, 1);

  FleetController ctrl(&sim, &spine, hot_pair_config(), &registry);
  // Scheduled before start(): at the 20 us tick instant the down-flap
  // fires first (earlier insertion), the tick runs against the dead
  // link, and the up-flap (inserted from inside the down handler)
  // lands after it — the flap window brackets exactly the
  // decision -> reserve() boundary.
  sim.schedule_at(20_us, [&] {
    spine.set_link_up(link, false);
    sim.schedule_at(20_us, [&] { spine.set_link_up(link, true); });
  });
  ctrl.start();
  for (const auto t : {5_us, 15_us, 25_us, 35_us}) {
    sim.schedule_at(t, [&] { demand += 100'000; });
  }
  sim.run_until(22_us);  // ticks at 10 (streak 1) and 20 (flapped)
  EXPECT_TRUE(spine.find_bookings(0, 1).empty());
  EXPECT_EQ(ctrl.promotions(), 0u);
  EXPECT_EQ(registry.counters("spine").get("spine.links_failed"), 1u);
  EXPECT_EQ(registry.counters("spine").get("spine.links_restored"), 1u);

  // Re-earning takes promote_after = 2 fresh hot epochs: still nothing
  // at the 30 us tick, promoted at 40 us.
  sim.run_until(32_us);
  EXPECT_TRUE(spine.find_bookings(0, 1).empty());
  sim.run_until(42_us);
  EXPECT_FALSE(spine.find_bookings(0, 1).empty());
  EXPECT_EQ(ctrl.promotions(), 1u);
  ctrl.stop();
}

// ---------------------------------------------------------------------
// ChaosScenario: the invariant-verified end-to-end runs.
// ---------------------------------------------------------------------

void expect_invariants(const ChaosScenarioResult& r) {
  EXPECT_TRUE(r.verified());
  EXPECT_TRUE(r.conservation_ok);
  EXPECT_TRUE(r.completed_before_horizon);
  EXPECT_TRUE(r.slots_at_baseline);
  EXPECT_EQ(r.flows_offered, 8u);
  EXPECT_EQ(r.flows_delivered + r.flows_failed + r.flows_inflight_at_cutoff,
            r.flows_offered);
  EXPECT_EQ(r.bytes_delivered + r.bytes_failed + r.bytes_inflight_at_cutoff,
            r.bytes_offered);
}

TEST(ChaosScenario, QuietTimelineDeliversEverythingAndHoldsInvariants) {
  ChaosScenarioConfig cfg;
  ChaosScenario chaos(cfg);
  const ChaosScenarioResult r = chaos.run();
  expect_invariants(r);
  EXPECT_EQ(r.flows_failed, 0u);
  EXPECT_EQ(r.flows_delivered, 8u);
  EXPECT_EQ(r.flows_failed_pct, 0.0);
  EXPECT_GT(r.flow_p99, SimTime::zero());
  EXPECT_GT(r.hot.job_completion, SimTime::zero());
  EXPECT_EQ(r.srlg_cuts, 0u);
  EXPECT_EQ(r.controller_restarts, 0u);
  // The hot incast promotes its pair without any chaos applied.
  EXPECT_GE(r.promotions, 1u);
  EXPECT_THROW(chaos.run(), std::logic_error);  // run() is once
}

TEST(ChaosScenario, TrenchCutDegradesWithoutFailingFlows) {
  // One trench down mid-run: every adjacency keeps its other link, so
  // flows reroute (or retry onto the survivor) and still deliver.
  ChaosScenarioConfig cfg;
  cfg.timeline.push_back({60_us, ChaosAction::kCutGroup, ChaosScenario::kTrenchA});
  cfg.timeline.push_back({200_us, ChaosAction::kRepairGroup, ChaosScenario::kTrenchA});
  ChaosScenario chaos(cfg);
  const ChaosScenarioResult r = chaos.run();
  expect_invariants(r);
  EXPECT_EQ(r.flows_failed, 0u);
  EXPECT_EQ(r.srlg_cuts, 1u);
  // Packets whose next hop rode trench A at the cut re-planned onto
  // the survivor mid-flight instead of failing their flows.
  EXPECT_GE(r.reroutes, 1u);
  EXPECT_EQ(chaos.fleet().spine().counters().get("spine.links_failed"), 3u);
  EXPECT_EQ(chaos.fleet().spine().counters().get("spine.links_restored"), 3u);
}

TEST(ChaosScenario, DoubleTrenchCutPartitionsAndPreemptsButConserves) {
  // Both trenches down at once: every flow is mid-stream with packets
  // transiting rack 1 (the cheapest 1 -> 0 and 2 -> 1 -> 0 routes),
  // so when rack 1 loses all four attachments even the bypass can't
  // save a flow whose packet is stranded inside it — all eight fail
  // deterministically. The invariant story is the point: no hang, no
  // leak, exact conservation, and the hot pair's reservation is
  // preempted while its packets are mid-hop.
  ChaosScenarioConfig cfg;
  cfg.timeline.push_back({60_us, ChaosAction::kCutGroup, ChaosScenario::kTrenchA});
  cfg.timeline.push_back({64_us, ChaosAction::kCutGroup, ChaosScenario::kTrenchB});
  cfg.timeline.push_back({400_us, ChaosAction::kRepairGroup, ChaosScenario::kTrenchA});
  cfg.timeline.push_back({404_us, ChaosAction::kRepairGroup, ChaosScenario::kTrenchB});
  ChaosScenario chaos(cfg);
  const ChaosScenarioResult r = chaos.run();
  expect_invariants(r);
  EXPECT_EQ(r.srlg_cuts, 2u);
  EXPECT_EQ(r.flows_failed, 8u);
  EXPECT_EQ(r.flows_delivered, 0u);
  EXPECT_DOUBLE_EQ(r.flows_failed_pct, 100.0);
  // The promoted hot pair was carrying packets when its route died.
  EXPECT_GE(r.reservation_preemptions, 1u);
}

TEST(ChaosScenario, RackBrownoutDegradesOverTheBypassInsteadOfPartitioning) {
  // Every rack-1 attachment dies. Unlike the double-trench cut this
  // is survivable: 3 -> 0 and 2 -> 0 stay routable over the 0 - 2
  // bypass, so flows whose packets were NOT transiting rack 1 at the
  // cut re-plan mid-flight and deliver. Rack 1's own sources fail
  // (every egress is gone), as do the flows with a packet stranded
  // inside rack 1 — deterministically 5 failed, 3 rerouted and
  // delivered.
  ChaosScenarioConfig cfg;
  cfg.timeline.push_back({80_us, ChaosAction::kBrownoutRack, 1});
  cfg.timeline.push_back({400_us, ChaosAction::kRestoreRack, 1});
  ChaosScenario chaos(cfg);
  const ChaosScenarioResult r = chaos.run();
  expect_invariants(r);
  EXPECT_EQ(r.flows_failed, 5u);
  EXPECT_EQ(r.flows_delivered, 3u);
  EXPECT_DOUBLE_EQ(r.flows_failed_pct, 62.5);
  // Mid-flight packets re-planned around the brownout.
  EXPECT_GE(r.reroutes, 1u);
}

TEST(ChaosScenario, SameSeedRunsAreByteIdenticalAndSeedsDiffer) {
  auto run = [](std::uint64_t seed) {
    ChaosScenarioConfig cfg;
    cfg.seed = seed;
    cfg.loss_prob = 0.02;
    cfg.random.enable = true;
    cfg.random.cuts = 2;
    cfg.random.flap_cycles = 2;
    ChaosScenario chaos(cfg);
    chaos.run();
    return chaos.fleet().metrics_table().to_string();
  };
  const std::string a1 = run(7);
  const std::string a2 = run(7);
  EXPECT_EQ(a1, a2);
  EXPECT_NE(a1, run(8));
}

TEST(ChaosScenario, RandomTimelineIsDeterministicPerSeedAndOrdered) {
  ChaosScenarioConfig cfg;
  cfg.seed = 21;
  cfg.random.enable = true;
  cfg.random.cuts = 3;
  cfg.random.flap_cycles = 1;
  ChaosScenario a(cfg);
  ChaosScenario b(cfg);
  ASSERT_EQ(a.timeline().size(), b.timeline().size());
  // cuts x (1 cut + 1 repair + flap_cycles x 2) events.
  EXPECT_EQ(a.timeline().size(), 12u);
  for (std::size_t i = 0; i < a.timeline().size(); ++i) {
    EXPECT_EQ(a.timeline()[i].at, b.timeline()[i].at);
    EXPECT_EQ(a.timeline()[i].action, b.timeline()[i].action);
    EXPECT_EQ(a.timeline()[i].target, b.timeline()[i].target);
    if (i > 0) EXPECT_LE(a.timeline()[i - 1].at, a.timeline()[i].at);
  }
  ChaosScenarioConfig miss;
  miss.timeline.push_back({1_us, ChaosAction::kCutGroup, 9});  // no such group
  EXPECT_THROW(ChaosScenario{miss}, std::invalid_argument);
}

TEST(ChaosScenario, InvalidTimelinesFailAtConstruction) {
  // An event before time zero fails here, not as a std::logic_error
  // out of run() (the simulator refuses the past).
  ChaosScenarioConfig past;
  past.timeline.push_back(
      {SimTime::zero() - 5_us, ChaosAction::kCutGroup, ChaosScenario::kTrenchA});
  EXPECT_THROW(ChaosScenario{past}, std::invalid_argument);
  // Negative random counts would yield a silently empty timeline.
  ChaosScenarioConfig counts;
  counts.random.enable = true;
  counts.random.cuts = -3;
  counts.random.flap_cycles = -2;
  EXPECT_THROW(ChaosScenario{counts}, std::invalid_argument);
  counts.random.cuts = 1;
  EXPECT_THROW(ChaosScenario{counts}, std::invalid_argument);
  // A negative checkpoint cadence would silently mean "never".
  ChaosScenarioConfig cadence;
  cadence.checkpoint_every = SimTime::zero() - 1_us;
  EXPECT_THROW(ChaosScenario{cadence}, std::invalid_argument);
  ChaosScenarioConfig horizon;
  horizon.horizon = SimTime::zero();
  EXPECT_THROW(ChaosScenario{horizon}, std::invalid_argument);
  ChaosScenarioConfig bytes;
  bytes.hot_bytes = DataSize::zero();
  EXPECT_THROW(ChaosScenario{bytes}, std::invalid_argument);
}

TEST(ChaosScenario, FlapStormUnderSeededLossReplaysByteIdentically) {
  // The hysteresis-defeating flap: trench cuts landing at controller
  // epoch boundaries (so a promotion decision and the cut race at the
  // same instant) plus seeded packet loss — the "flap between the
  // promotion decision and its reserve() call" window. Two runs must
  // agree byte for byte.
  auto run = [] {
    ChaosScenarioConfig cfg;
    cfg.seed = 5;
    cfg.loss_prob = 0.01;
    // Cuts at 40/80/120 us land exactly on 20 us epoch ticks, applied
    // (as earlier-scheduled weak events) just before each tick runs.
    for (const auto t : {40_us, 80_us, 120_us}) {
      cfg.timeline.push_back({t, ChaosAction::kCutGroup, ChaosScenario::kTrenchA});
      cfg.timeline.push_back({t + 10_us, ChaosAction::kRepairGroup,
                              ChaosScenario::kTrenchA});
    }
    ChaosScenario chaos(cfg);
    const ChaosScenarioResult r = chaos.run();
    expect_invariants(r);
    EXPECT_EQ(r.flows_failed, 0u);
    EXPECT_EQ(r.srlg_cuts, 3u);
    return chaos.fleet().metrics_table().to_string();
  };
  const std::string first = run();
  EXPECT_EQ(first, run());
}

TEST(ChaosScenario, AcceptanceSrlgCutFlapAndCheckpointedRestartRelearns) {
  // The acceptance scenario: periodic checkpoints, a trench cut, a
  // mid-epoch controller kill, a checkpointed restart, repair, and a
  // flap tail — conservation holds, the restarted controller re-earns
  // the hot pair's reservation within K epochs, and two runs are
  // byte-identical.
  auto run = [] {
    ChaosScenarioConfig cfg;
    cfg.checkpoint_every = 60_us;
    cfg.timeline.push_back({100_us, ChaosAction::kCutGroup, ChaosScenario::kTrenchA});
    cfg.timeline.push_back({110_us, ChaosAction::kKillController, 0});
    cfg.timeline.push_back({130_us, ChaosAction::kRestartController, 0, true});
    cfg.timeline.push_back({160_us, ChaosAction::kRepairGroup, ChaosScenario::kTrenchA});
    cfg.timeline.push_back({190_us, ChaosAction::kCutGroup, ChaosScenario::kTrenchA});
    cfg.timeline.push_back({202_us, ChaosAction::kRepairGroup, ChaosScenario::kTrenchA});
    ChaosScenario chaos(cfg);
    const ChaosScenarioResult r = chaos.run();
    expect_invariants(r);
    EXPECT_EQ(r.flows_failed, 0u);
    EXPECT_EQ(r.srlg_cuts, 2u);
    EXPECT_EQ(r.controller_restarts, 1u);
    // The checkpointed restart restores the hot pair's intent as a
    // full streak: re-earned on an early post-restart epoch, well
    // inside the K = 6 bound.
    EXPECT_TRUE(r.reservation_relearned);
    EXPECT_GE(r.relearn_epochs, 1);
    EXPECT_LE(r.relearn_epochs, 6);
    return chaos.fleet().metrics_table().to_string();
  };
  const std::string first = run();
  EXPECT_EQ(first, run());
}

TEST(ChaosScenario, ColdRestartRelearnsMoreSlowlyThanCheckpointed) {
  auto relearn = [](bool with_ckpt) {
    ChaosScenarioConfig cfg;
    // Long-lived flows: the cold path needs the hot pair to still be
    // offering demand at restart + promote_after epochs.
    cfg.hot_bytes = DataSize::kilobytes(256);
    cfg.checkpoint_every = with_ckpt ? 60_us : SimTime::zero();
    cfg.timeline.push_back({110_us, ChaosAction::kKillController, 0});
    cfg.timeline.push_back({130_us, ChaosAction::kRestartController, 0, with_ckpt});
    ChaosScenario chaos(cfg);
    const ChaosScenarioResult r = chaos.run();
    expect_invariants(r);
    EXPECT_TRUE(r.reservation_relearned);
    EXPECT_EQ(r.controller_restarts, 1u);
    return r.relearn_epochs;
  };
  const int checkpointed = relearn(true);
  const int cold = relearn(false);
  // Cold: the streak rebuilds from zero (promote_after = 2 epochs);
  // checkpointed: the restored intent promotes on the first hot tick.
  EXPECT_EQ(checkpointed, 1);
  EXPECT_GT(cold, checkpointed);
  EXPECT_LE(cold, 6);
}

}  // namespace
}  // namespace rsf
