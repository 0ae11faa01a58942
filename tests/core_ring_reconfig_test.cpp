#include <gtest/gtest.h>

#include <optional>
#include <stdexcept>

#include "core/reconfig.hpp"
#include "core/ring.hpp"
#include "fabric/builders.hpp"

namespace rsf::core {
namespace {

using phy::LinkId;
using rsf::sim::SimTime;
using rsf::sim::Simulator;
using namespace rsf::sim::literals;

struct RingFixture : ::testing::Test {
  Simulator sim;
  fabric::Rack rack;

  RingFixture() {
    fabric::RackParams p;
    p.width = 4;
    p.height = 4;
    rack = fabric::build_grid(&sim, p);
  }

  ControlRing make_ring() {
    return ControlRing(&sim, rack.plant.get(), rack.engine.get(), rack.topology.get(),
                       rack.network.get());
  }
};

TEST_F(RingFixture, CirculationTimeScalesWithNodes) {
  ControlRing ring = make_ring();
  const SimTime expected =
      (ControlRing::kHopLatency + ControlRing::kNodeProcessing) * std::int64_t{16};
  EXPECT_EQ(ring.circulation_time(), expected);
}

TEST_F(RingFixture, SnapshotCoversEveryLinkOnce) {
  ControlRing ring = make_ring();
  std::optional<RackSnapshot> snap;
  ring.circulate(100_us, [&](const RackSnapshot& s) { snap = s; });
  // Telemetry events are weak; give them an explicit horizon.
  sim.run_until(sim.now() + ring.circulation_time());
  ASSERT_TRUE(snap.has_value());
  EXPECT_EQ(snap->links.size(), rack.plant->link_count());
  // No duplicates.
  std::set<LinkId> seen;
  for (const auto& o : snap->links) EXPECT_TRUE(seen.insert(o.link).second);
  EXPECT_EQ(snap->taken_at, ring.circulation_time());
  EXPECT_GT(snap->rack_power_watts, 0.0);
}

TEST_F(RingFixture, SnapshotArrivesOnlyAfterCirculation) {
  ControlRing ring = make_ring();
  bool got = false;
  ring.circulate(100_us, [&](const RackSnapshot&) { got = true; });
  sim.run_until(ring.circulation_time() - 1_ns);
  EXPECT_FALSE(got);
  sim.run_until(ring.circulation_time());
  EXPECT_TRUE(got);
}

TEST_F(RingFixture, UtilizationDiffsBetweenEpochs) {
  ControlRing ring = make_ring();
  // Saturate one link for a while.
  fabric::FlowSpec spec;
  spec.id = 1;
  spec.src = 0;
  spec.dst = 1;
  spec.size = phy::DataSize::megabytes(5);
  rack.network->start_flow(spec, nullptr);
  sim.run_until(500_us);

  std::optional<RackSnapshot> snap;
  ring.circulate(500_us, [&](const RackSnapshot& s) { snap = s; });
  sim.run_until(600_us);
  ASSERT_TRUE(snap.has_value());
  const LinkId hot = *rack.topology->link_between(0, 1);
  double hot_util = -1;
  for (const auto& o : snap->links) {
    EXPECT_GE(o.utilization, 0.0);
    EXPECT_LE(o.utilization, 1.0);
    if (o.link == hot) hot_util = o.utilization;
  }
  EXPECT_GT(hot_util, 0.5);

  // Flow finishes; a later epoch must show the link cooling off.
  sim.run_until(2_ms);
  std::optional<RackSnapshot> snap2;
  ring.circulate(1_ms, [&](const RackSnapshot& s) { snap2 = s; });
  sim.run_until(sim.now() + ring.circulation_time());
  ASSERT_TRUE(snap2.has_value());
  for (const auto& o : snap2->links) {
    if (o.link == hot) EXPECT_LT(o.utilization, hot_util);
  }
}

// --- reconfig orchestration ---

TEST_F(RingFixture, SplitManySplitsAll) {
  std::vector<LinkId> row;
  for (int x = 0; x + 1 < 4; ++x) {
    row.push_back(*rack.topology->link_between(rack.node_at(x, 0), rack.node_at(x + 1, 0)));
  }
  std::optional<std::vector<std::optional<SplitOutcome>>> outcomes;
  split_many(rack.engine.get(), row, 1, [&](auto outs) { outcomes = std::move(outs); });
  sim.run_until();
  ASSERT_TRUE(outcomes.has_value());
  ASSERT_EQ(outcomes->size(), 3u);
  for (const auto& o : *outcomes) {
    ASSERT_TRUE(o.has_value());
    EXPECT_EQ(rack.plant->link(o->kept).lane_count(), 1);
    EXPECT_EQ(rack.plant->link(o->spare).lane_count(), 1);
  }
  EXPECT_TRUE(rack.plant->validate().empty());
}

TEST_F(RingFixture, SplitManyEmptyInput) {
  bool called = false;
  split_many(rack.engine.get(), {}, 1, [&](auto outs) {
    called = true;
    EXPECT_TRUE(outs.empty());
  });
  EXPECT_TRUE(called);
}

TEST_F(RingFixture, SplitManyReportsFailures) {
  const LinkId one_lane_target = *rack.topology->link_between(0, 1);
  // First make a 1-lane link that cannot be split again.
  std::optional<SplitOutcome> first;
  split_many(rack.engine.get(), {one_lane_target}, 1, [&](auto outs) { first = outs[0]; });
  sim.run_until();
  ASSERT_TRUE(first.has_value());
  std::optional<std::vector<std::optional<SplitOutcome>>> outcomes;
  split_many(rack.engine.get(), {first->kept}, 1,
             [&](auto outs) { outcomes = std::move(outs); });
  sim.run_until();
  ASSERT_TRUE(outcomes.has_value());
  EXPECT_FALSE((*outcomes)[0].has_value());
}

TEST_F(RingFixture, ChainBypassBuildsWraparound) {
  // Split row 0, chain the spares: 0 <-> 3 wrap link appears.
  std::vector<LinkId> row;
  for (int x = 0; x + 1 < 4; ++x) {
    row.push_back(*rack.topology->link_between(rack.node_at(x, 0), rack.node_at(x + 1, 0)));
  }
  std::vector<LinkId> spares;
  split_many(rack.engine.get(), row, 1, [&](auto outs) {
    for (auto& o : outs) spares.push_back(o->spare);
  });
  sim.run_until();

  std::optional<std::optional<LinkId>> wrap;
  chain_bypass(rack.engine.get(), spares, [&](std::optional<LinkId> l) { wrap = l; });
  sim.run_until();
  ASSERT_TRUE(wrap.has_value());
  ASSERT_TRUE(wrap->has_value());
  const phy::LogicalLink& l = rack.plant->link(**wrap);
  EXPECT_TRUE(l.connects(rack.node_at(0, 0)));
  EXPECT_TRUE(l.connects(rack.node_at(3, 0)));
  EXPECT_EQ(l.bypass_joints(), 2);
  EXPECT_TRUE(l.ready());
  EXPECT_TRUE(rack.plant->validate().empty());
}

TEST_F(RingFixture, ChainBypassSingleLinkIsIdentity) {
  const LinkId id = rack.plant->link_ids().front();
  std::optional<std::optional<LinkId>> out;
  chain_bypass(rack.engine.get(), {id}, [&](std::optional<LinkId> l) { out = l; });
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(**out, id);
}

TEST_F(RingFixture, ChainBypassTreeReductionIsLogDepth) {
  // 8-node chain: 7 links -> ceil(log2 7) = 3 rounds of joins.
  Simulator sim2;
  fabric::Rack chain = fabric::build_chain(&sim2, 8, fabric::RackParams{});
  std::vector<LinkId> links = chain.plant->link_ids();
  SimTime done_at;
  chain_bypass(chain.engine.get(), links, [&](std::optional<LinkId> l) {
    ASSERT_TRUE(l.has_value());
    done_at = sim2.now();
  });
  sim2.run_until();
  const SimTime per_round = plp::kCommandOverhead + plp::kBypassSetup + plp::kLaneRetrain;
  EXPECT_EQ(done_at, per_round * std::int64_t{3});
}

TEST_F(RingFixture, UnchainRestoresAdjacentPieces) {
  Simulator sim2;
  fabric::Rack chain = fabric::build_chain(&sim2, 5, fabric::RackParams{});
  std::vector<LinkId> links = chain.plant->link_ids();
  std::optional<LinkId> joined;
  chain_bypass(chain.engine.get(), links, [&](std::optional<LinkId> l) { joined = l; });
  sim2.run_until();
  ASSERT_TRUE(joined.has_value());
  EXPECT_EQ(interior_joints(*chain.plant, *joined), (std::vector<phy::NodeId>{1, 2, 3}));

  std::optional<std::vector<LinkId>> pieces;
  unchain_bypass(chain.engine.get(), chain.plant.get(), *joined,
                 [&](std::vector<LinkId> p) { pieces = std::move(p); });
  sim2.run_until();
  ASSERT_TRUE(pieces.has_value());
  ASSERT_EQ(pieces->size(), 4u);
  for (LinkId id : *pieces) {
    EXPECT_EQ(chain.plant->link(id).bypass_joints(), 0);
    EXPECT_TRUE(chain.plant->link(id).ready());
  }
  EXPECT_TRUE(chain.plant->validate().empty());
}

// --- TopologyPlanner ---

TEST_F(RingFixture, CloseRowCreatesWrap) {
  TopologyPlanner planner(&sim, rack.engine.get(), rack.plant.get(), rack.topology.get());
  std::optional<std::optional<LinkId>> wrap;
  planner.close_row(1, [&](std::optional<LinkId> l) { wrap = l; });
  sim.run_until();
  ASSERT_TRUE(wrap.has_value());
  ASSERT_TRUE(wrap->has_value());
  const auto& l = rack.plant->link(**wrap);
  EXPECT_TRUE(l.connects(rack.node_at(0, 1)));
  EXPECT_TRUE(l.connects(rack.node_at(3, 1)));
  // Row links are now 1 lane.
  EXPECT_EQ(rack.plant
                ->link(*rack.topology->link_between(rack.node_at(0, 1), rack.node_at(1, 1)))
                .lane_count(),
            1);
}

TEST_F(RingFixture, GridToTorusClosesAllRowsAndColumns) {
  TopologyPlanner planner(&sim, rack.engine.get(), rack.plant.get(), rack.topology.get());
  std::optional<TopologyPlanner::Report> report;
  planner.grid_to_torus([&](const TopologyPlanner::Report& r) { report = r; });
  sim.run_until();
  ASSERT_TRUE(report.has_value());
  EXPECT_EQ(report->rows_closed, 4);
  EXPECT_EQ(report->cols_closed, 4);
  EXPECT_EQ(report->failures, 0);
  EXPECT_EQ(report->wrap_links.size(), 8u);
  EXPECT_TRUE(rack.plant->validate().empty());
  // Torus effect: opposite corners now 3+3 hops at most via wraps
  // instead of 6.
  EXPECT_LT(rack.router->hop_count(rack.node_at(0, 0), rack.node_at(3, 3)), 6);
}

TEST_F(RingFixture, CloseRowFailsOnOneLaneLinks) {
  Simulator sim2;
  fabric::RackParams p;
  p.lanes_per_cable = 1;
  p.lanes_per_link = 1;
  fabric::Rack thin = fabric::build_grid(&sim2, p);
  TopologyPlanner planner(&sim2, thin.engine.get(), thin.plant.get(), thin.topology.get());
  std::optional<std::optional<LinkId>> wrap;
  planner.close_row(0, [&](std::optional<LinkId> l) { wrap = l; });
  sim2.run_until();
  ASSERT_TRUE(wrap.has_value());
  EXPECT_FALSE(wrap->has_value());
}

TEST_F(RingFixture, CloseRowRejectsBadIndex) {
  TopologyPlanner planner(&sim, rack.engine.get(), rack.plant.get(), rack.topology.get());
  std::optional<std::optional<LinkId>> wrap;
  planner.close_row(9, [&](std::optional<LinkId> l) { wrap = l; });
  ASSERT_TRUE(wrap.has_value());
  EXPECT_FALSE(wrap->has_value());
}

}  // namespace
}  // namespace rsf::core
