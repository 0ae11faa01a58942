// Tests of the PLP execution engine: actuation timing, busy tracking,
// queueing, the plant's adjacency and version, capabilities, and
// failure handling.
#include "plp/engine.hpp"

#include <gtest/gtest.h>

#include <optional>
#include <utility>

namespace rsf::plp {
namespace {

using phy::CableId;
using phy::LinkId;
using rsf::sim::SimTime;
using rsf::sim::Simulator;
using namespace rsf::sim::literals;

struct EngineFixture : ::testing::Test {
  Simulator sim;
  phy::PhysicalPlant plant;
  CableId c01, c12;
  LinkId l01, l12;
  std::optional<PlpEngine> engine;

  void SetUp() override {
    c01 = plant.add_cable(0, 1, 2.0, phy::Medium::kFiber, 4, phy::DataRate::gbps(25));
    c12 = plant.add_cable(1, 2, 2.0, phy::Medium::kFiber, 4, phy::DataRate::gbps(25));
    l01 = plant.create_adjacent_link(c01, {0, 1});
    l12 = plant.create_adjacent_link(c12, {0, 1});
    engine.emplace(&sim, &plant);
    engine->instant_bring_up(l01);
    engine->instant_bring_up(l12);
  }
};

TEST_F(EngineFixture, InstantBringUpMakesReady) {
  EXPECT_TRUE(plant.link(l01).ready());
  EXPECT_FALSE(plant.link_busy(l01));
}

TEST_F(EngineFixture, SplitCompletesAfterActuationTime) {
  std::optional<PlpResult> result;
  engine->submit(SplitCommand{l01, 1}, [&](const PlpResult& r) { result = r; });
  // Plant mutates eagerly but completion waits for the actuation time.
  EXPECT_FALSE(result.has_value());
  EXPECT_FALSE(plant.has_link(l01));
  sim.run_until();
  ASSERT_TRUE(result.has_value());
  EXPECT_TRUE(result->ok);
  EXPECT_EQ(result->created.size(), 2u);
  EXPECT_EQ(result->completed_at, kCommandOverhead + kSplit);
  EXPECT_EQ(plant.link(result->created[0]).lane_count(), 1);
  EXPECT_EQ(plant.link(result->created[1]).lane_count(), 1);
  // Lane states carried over: both halves ready immediately.
  EXPECT_TRUE(plant.link(result->created[0]).ready());
}

TEST_F(EngineFixture, LinksBusyDuringActuation) {
  std::optional<PlpResult> result;
  engine->submit(SplitCommand{l01, 1}, [&](const PlpResult& r) { result = r; });
  // The created links are busy until completion.
  const auto ids = plant.link_ids();
  int busy = 0;
  for (LinkId id : ids) {
    if (plant.link_busy(id)) ++busy;
  }
  EXPECT_EQ(busy, 2);
  sim.run_until();
  for (LinkId id : plant.link_ids()) EXPECT_FALSE(plant.link_busy(id));
}

TEST_F(EngineFixture, BundleRoundTrip) {
  std::optional<PlpResult> split_result;
  engine->submit(SplitCommand{l01, 1}, [&](const PlpResult& r) { split_result = r; });
  sim.run_until();
  ASSERT_TRUE(split_result && split_result->ok);

  std::optional<PlpResult> bundle_result;
  engine->submit(BundleCommand{split_result->created[0], split_result->created[1]},
                 [&](const PlpResult& r) { bundle_result = r; });
  sim.run_until();
  ASSERT_TRUE(bundle_result && bundle_result->ok);
  EXPECT_EQ(plant.link(bundle_result->created[0]).lane_count(), 2);
}

TEST_F(EngineFixture, BypassJoinRetrainsAndReportsReadiness) {
  const std::uint64_t before = plant.version();
  std::optional<PlpResult> result;
  bool usable_at_completion = false;
  engine->submit(BypassJoinCommand{l01, l12}, [&](const PlpResult& r) {
    result = r;
    const LinkId id = r.created.front();
    usable_at_completion = plant.link(id).ready() && !plant.link_busy(id);
  });
  // Immediately after submission the joined link exists but trains,
  // busy, and the plant's version has moved.
  ASSERT_EQ(plant.link_count(), 1u);
  const LinkId joined = plant.link_ids().front();
  EXPECT_FALSE(plant.link(joined).ready());
  EXPECT_TRUE(plant.link_busy(joined));
  const std::uint64_t at_submit = plant.version();
  EXPECT_GT(at_submit, before);

  sim.run_until();
  ASSERT_TRUE(result && result->ok);
  EXPECT_EQ(result->created.front(), joined);
  EXPECT_TRUE(usable_at_completion);
  EXPECT_GT(plant.version(), at_submit);
  EXPECT_EQ(result->completed_at, kCommandOverhead + kBypassSetup + kLaneRetrain);
}

TEST_F(EngineFixture, BypassSeverRestores) {
  engine->submit(BypassJoinCommand{l01, l12});
  sim.run_until();
  const LinkId joined = plant.link_ids().front();

  std::optional<PlpResult> result;
  engine->submit(BypassSeverCommand{joined, 1}, [&](const PlpResult& r) { result = r; });
  sim.run_until();
  ASSERT_TRUE(result && result->ok);
  EXPECT_EQ(result->created.size(), 2u);
  EXPECT_TRUE(plant.link(result->created[0]).ready());
  EXPECT_TRUE(plant.link(result->created[1]).ready());
}

TEST_F(EngineFixture, ShutdownAndBringUpCycle) {
  std::optional<PlpResult> down;
  engine->submit(ShutdownCommand{l01}, [&](const PlpResult& r) { down = r; });
  sim.run_until();
  ASSERT_TRUE(down && down->ok);
  EXPECT_FALSE(plant.link(l01).ready());

  std::optional<PlpResult> up;
  engine->submit(BringUpCommand{l01}, [&](const PlpResult& r) { up = r; });
  sim.run_until();
  ASSERT_TRUE(up && up->ok);
  EXPECT_TRUE(plant.link(l01).ready());
  EXPECT_EQ(up->completed_at - down->completed_at,
            kCommandOverhead + kLanePowerOn + kLaneRetrain);
}

TEST_F(EngineFixture, LaneFailedAndRepairedDuringBringUpStaysDark) {
  // The failure cuts the bring-up's training and the repair leaves the
  // lane off, so the completion finds it not training: it stays dark,
  // the link reports not ready, and a second bring-up retrains it.
  std::optional<PlpResult> up;
  engine->submit(BringUpCommand{l01}, [&](const PlpResult& r) { up = r; });
  plant.fail_lane({c01, 0});
  plant.repair_lane({c01, 0});
  ASSERT_NO_THROW(sim.run_until());
  ASSERT_TRUE(up && up->ok);
  EXPECT_EQ(std::as_const(plant).cable(c01).lane(0).state(), phy::LaneState::kOff);
  EXPECT_EQ(std::as_const(plant).cable(c01).lane(1).state(), phy::LaneState::kUp);
  EXPECT_FALSE(plant.link(l01).ready());

  std::optional<PlpResult> again;
  engine->submit(BringUpCommand{l01}, [&](const PlpResult& r) { again = r; });
  sim.run_until();
  ASSERT_TRUE(again && again->ok);
  EXPECT_TRUE(plant.link(l01).ready());
}

TEST_F(EngineFixture, SetFecSwapsSpec) {
  std::optional<PlpResult> result;
  engine->submit(SetFecCommand{l01, phy::FecScheme::kRsKp4},
                 [&](const PlpResult& r) { result = r; });
  // Not applied until the actuation completes.
  EXPECT_EQ(plant.link(l01).fec().scheme, phy::FecScheme::kNone);
  sim.run_until();
  ASSERT_TRUE(result && result->ok);
  EXPECT_EQ(plant.link(l01).fec().scheme, phy::FecScheme::kRsKp4);
}

TEST_F(EngineFixture, QueryStatsReportsLinkState) {
  plant.set_cable_ber(c01, 1e-7);
  std::optional<PlpResult> result;
  engine->submit(QueryStatsCommand{l01}, [&](const PlpResult& r) { result = r; });
  sim.run_until();
  ASSERT_TRUE(result && result->ok);
  ASSERT_TRUE(result->stats.has_value());
  EXPECT_EQ(result->stats->link, l01);
  EXPECT_EQ(result->stats->lane_count, 2);
  EXPECT_DOUBLE_EQ(result->stats->worst_pre_fec_ber, 1e-7);
  EXPECT_DOUBLE_EQ(result->stats->raw_gbps, 50.0);
  EXPECT_TRUE(result->stats->ready);
}

TEST_F(EngineFixture, CommandsOnBusyLinkQueueFifo) {
  std::vector<int> completion_order;
  engine->submit(SetFecCommand{l01, phy::FecScheme::kRsKr4},
                 [&](const PlpResult&) { completion_order.push_back(1); });
  engine->submit(SetFecCommand{l01, phy::FecScheme::kRsKp4},
                 [&](const PlpResult&) { completion_order.push_back(2); });
  EXPECT_EQ(engine->queued_commands(), 1u);
  sim.run_until();
  EXPECT_EQ(completion_order, (std::vector<int>{1, 2}));
  EXPECT_EQ(plant.link(l01).fec().scheme, phy::FecScheme::kRsKp4);
}

TEST_F(EngineFixture, StatsQueriesBypassBusyQueue) {
  engine->submit(SetFecCommand{l01, phy::FecScheme::kRsKr4});
  bool stats_done = false;
  engine->submit(QueryStatsCommand{l01}, [&](const PlpResult& r) {
    stats_done = true;
    EXPECT_TRUE(r.ok);
  });
  EXPECT_EQ(engine->queued_commands(), 0u);  // not queued behind the busy link
  sim.run_until(kCommandOverhead + kStatsQuery);
  EXPECT_TRUE(stats_done);
  sim.run_until();
}

TEST_F(EngineFixture, QueuedCommandOnDestroyedLinkFails) {
  // Split l01; while busy, queue a bundle referencing l01 (which the
  // split destroys).
  engine->submit(SplitCommand{l01, 1});
  std::optional<PlpResult> result;
  engine->submit(SetFecCommand{l01, phy::FecScheme::kRsKp4},
                 [&](const PlpResult& r) { result = r; });
  sim.run_until();
  ASSERT_TRUE(result.has_value());
  EXPECT_FALSE(result->ok);
  EXPECT_FALSE(result->error.empty());
}

TEST_F(EngineFixture, UnknownLinkFailsCleanly) {
  std::optional<PlpResult> result;
  engine->submit(SplitCommand{9999, 1}, [&](const PlpResult& r) { result = r; });
  ASSERT_TRUE(result.has_value());  // fails synchronously
  EXPECT_FALSE(result->ok);
}

TEST_F(EngineFixture, InvalidSplitFailsViaCallback) {
  std::optional<PlpResult> result;
  engine->submit(SplitCommand{l01, 5}, [&](const PlpResult& r) { result = r; });
  ASSERT_TRUE(result.has_value());
  EXPECT_FALSE(result->ok);
  // The link is untouched and not leaked into the busy set.
  EXPECT_TRUE(plant.has_link(l01));
  EXPECT_FALSE(plant.link_busy(l01));
}

TEST_F(EngineFixture, SplitResultAndPlantAdjacencyShowTheChange) {
  std::optional<PlpResult> result;
  engine->submit(SplitCommand{l01, 1}, [&](const PlpResult& r) { result = r; });
  sim.run_until();
  ASSERT_TRUE(result && result->ok);
  EXPECT_EQ(result->removed, std::vector<LinkId>{l01});
  ASSERT_EQ(result->created.size(), 2u);
  // Both endpoints list the halves, not the split link, in ascending
  // id order.
  const std::vector<LinkId>& halves = result->created;
  EXPECT_EQ(plant.links_at(0), halves);
  EXPECT_EQ(plant.links_at(1), (std::vector<LinkId>{l12, halves[0], halves[1]}));
}

TEST_F(EngineFixture, CountersTrackCommands) {
  engine->submit(SplitCommand{l01, 1});
  engine->submit(SplitCommand{9999, 1});
  sim.run_until();
  EXPECT_EQ(engine->counters().get("plp.submitted.split"), 2u);
  EXPECT_EQ(engine->counters().get("plp.completed.split"), 1u);
  EXPECT_EQ(engine->counters().get("plp.failed.split"), 1u);
}

TEST(PlpCapabilities, UnsupportedPrimitiveRejected) {
  Simulator sim;
  phy::PhysicalPlant plant;
  const CableId c = plant.add_cable(0, 1, 2.0, phy::Medium::kFiber, 4,
                                    phy::DataRate::gbps(25));
  const LinkId l = plant.create_adjacent_link(c, {0, 1});
  PlpCapabilities caps;
  caps.split_bundle = false;
  PlpEngine engine(&sim, &plant, caps);
  std::optional<PlpResult> result;
  engine.submit(SplitCommand{l, 1}, [&](const PlpResult& r) { result = r; });
  ASSERT_TRUE(result.has_value());
  EXPECT_FALSE(result->ok);
  EXPECT_NE(result->error.find("not supported"), std::string::npos);
  EXPECT_TRUE(plant.has_link(l));
}

TEST(PlpCapabilities, SupportsMatrix) {
  PlpCapabilities caps;
  caps.bypass = false;
  EXPECT_TRUE(caps.supports(SplitCommand{}));
  EXPECT_FALSE(caps.supports(BypassJoinCommand{}));
  EXPECT_FALSE(caps.supports(BypassSeverCommand{}));
  EXPECT_TRUE(caps.supports(QueryStatsCommand{}));
}

TEST(PlpCommand, ReferencedLinksAndNames) {
  EXPECT_EQ(referenced_links(BundleCommand{3, 4}), (std::vector<LinkId>{3, 4}));
  EXPECT_EQ(referenced_links(SplitCommand{7, 1}), std::vector<LinkId>{7});
  EXPECT_EQ(command_name(PlpCommand{BypassJoinCommand{}}), "bypass-join");
  EXPECT_EQ(command_name(PlpCommand{ShutdownCommand{}}), "shutdown");
}

TEST_F(EngineFixture, ConcurrentDisjointCommandsOverlap) {
  SimTime done1;
  SimTime done2;
  engine->submit(SetFecCommand{l01, phy::FecScheme::kRsKr4},
                 [&](const PlpResult& r) { done1 = r.completed_at; });
  engine->submit(SetFecCommand{l12, phy::FecScheme::kRsKr4},
                 [&](const PlpResult& r) { done2 = r.completed_at; });
  sim.run_until();
  // Disjoint links actuate in parallel: both complete at the same time.
  EXPECT_EQ(done1, done2);
}

}  // namespace
}  // namespace rsf::plp
