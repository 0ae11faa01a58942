#include "core/scheduler.hpp"

#include <gtest/gtest.h>

#include <optional>

#include "fabric/builders.hpp"

namespace rsf::core {
namespace {

using phy::DataSize;
using phy::LinkId;
using rsf::sim::SimTime;
using rsf::sim::Simulator;
using namespace rsf::sim::literals;

struct SchedFixture : ::testing::Test {
  Simulator sim;
  fabric::Rack rack;
  std::optional<CircuitScheduler> sched;

  SchedFixture() {
    fabric::RackParams p;
    p.width = 6;
    p.height = 1;  // a chain: long paths, easy circuit reasoning
    rack = fabric::build_grid(&sim, p);
    sched.emplace(&sim, rack.engine.get(), rack.plant.get(), rack.topology.get(),
                  rack.router.get(), rack.network.get());
  }

  fabric::FlowSpec flow(phy::NodeId src, phy::NodeId dst, DataSize size,
                        fabric::FlowId id = 1) {
    fabric::FlowSpec spec;
    spec.id = id;
    spec.src = src;
    spec.dst = dst;
    spec.size = size;
    spec.packet_size = DataSize::bytes(1024);
    return spec;
  }

  /// Circuits pay off when the packet path is contended (a dedicated
  /// lane beats a shared pair): saturate the chain with background
  /// traffic and let utilisation build up.
  void saturate_path() {
    for (fabric::FlowId i = 0; i < 3; ++i) {
      fabric::FlowSpec bg = flow(0, 5, DataSize::megabytes(400), 900 + i);
      rack.network->start_flow(bg, nullptr);
    }
    sim.run_until(sim.now() + 500_us);
  }
};

TEST_F(SchedFixture, DecideSmallFlowStaysOnPacketFabric) {
  const auto d = sched->decide(flow(0, 5, DataSize::kilobytes(16)));
  EXPECT_FALSE(d.use_circuit);
  EXPECT_EQ(d.path_hops, 5);
}

TEST_F(SchedFixture, DecideHugeFlowWantsCircuitUnderLoad) {
  saturate_path();
  const auto d = sched->decide(flow(0, 5, DataSize::megabytes(100)));
  EXPECT_TRUE(d.use_circuit);
  EXPECT_LT(d.est_circuit_completion, d.est_packet_completion);
  ASSERT_TRUE(d.break_even.has_value());
  EXPECT_GT(d.break_even->bit_count(), 0);
}

TEST_F(SchedFixture, DecideUnloadedFabricPrefersPackets) {
  // With two idle lanes on every hop, the shared path out-rates a
  // one-lane dedicated circuit: the scheduler must not reconfigure.
  const auto d = sched->decide(flow(0, 5, DataSize::megabytes(100)));
  EXPECT_FALSE(d.use_circuit);
  EXPECT_GT(d.est_packet_completion, SimTime::zero());
}

TEST_F(SchedFixture, DecideAdjacentPairNeverCircuit) {
  const auto d = sched->decide(flow(0, 1, DataSize::megabytes(100)));
  EXPECT_FALSE(d.use_circuit);
  EXPECT_EQ(d.path_hops, 0);  // no plan
}

TEST_F(SchedFixture, BreakEvenConsistentWithEstimates) {
  saturate_path();
  // At sizes well below the break-even the packet estimate wins; well
  // above, the circuit estimate wins.
  const auto d_big = sched->decide(flow(0, 5, DataSize::megabytes(200)));
  ASSERT_TRUE(d_big.break_even.has_value());
  const auto small = DataSize::bits(d_big.break_even->bit_count() / 4);
  const auto d_small = sched->decide(flow(0, 5, small));
  EXPECT_GT(d_small.est_packet_completion, SimTime::zero());
  EXPECT_LT(d_small.est_packet_completion, d_small.est_circuit_completion);
}

TEST_F(SchedFixture, SmallFlowRunsOnPacketFabric) {
  std::optional<std::pair<bool, bool>> outcome;  // (failed, used_circuit)
  sched->submit(flow(0, 5, DataSize::kilobytes(16)),
                [&](const fabric::FlowResult& r, bool circuit) {
                  outcome = {r.failed, circuit};
                });
  sim.run_until();
  ASSERT_TRUE(outcome.has_value());
  EXPECT_FALSE(outcome->first);
  EXPECT_FALSE(outcome->second);
  EXPECT_EQ(sched->packet_flows(), 1u);
  EXPECT_EQ(sched->circuits_built(), 0u);
}

TEST_F(SchedFixture, LargeFlowBuildsUsesAndTearsDownCircuit) {
  saturate_path();
  EXPECT_EQ(rack.plant->reserved_link_count(), 0u);
  std::optional<std::pair<bool, bool>> outcome;
  std::size_t reserved_at_completion = 0;
  std::uint64_t circuit_packets = 0;
  sched->submit(flow(0, 5, DataSize::megabytes(100)),
                [&](const fabric::FlowResult& r, bool circuit) {
                  outcome = {r.failed, circuit};
                  // The callback runs before teardown: the circuit is
                  // still reserved, and every packet of the flow took it.
                  reserved_at_completion = rack.plant->reserved_link_count();
                  for (LinkId id : rack.plant->link_ids()) {
                    if (rack.plant->link(id).reserved_for() == std::optional<std::uint64_t>(1)) {
                      circuit_packets = rack.network->link_packets(id);
                    }
                  }
                });
  sim.run_until();
  ASSERT_TRUE(outcome.has_value());
  EXPECT_FALSE(outcome->first);
  EXPECT_TRUE(outcome->second);
  EXPECT_EQ(reserved_at_completion, 1u);
  EXPECT_GE(circuit_packets, static_cast<std::uint64_t>(
                                 DataSize::megabytes(100).packet_count(DataSize::bytes(1024))));
  // Teardown severs the circuit without clearing its reservation; the
  // destroyed link stops counting all the same.
  EXPECT_EQ(rack.plant->reserved_link_count(), 0u);
  EXPECT_EQ(sched->circuits_built(), 1u);
  EXPECT_EQ(sched->circuit_flows(), 1u);
  // After teardown the fabric is fully re-bundled: every link 2 lanes,
  // no bypass joints, plant invariants hold.
  EXPECT_EQ(sched->active_circuits(), 0);
  EXPECT_EQ(rack.plant->total_bypass_joints(), 0);
  for (LinkId id : rack.plant->link_ids()) {
    EXPECT_EQ(rack.plant->link(id).lane_count(), 2);
  }
  EXPECT_TRUE(rack.plant->validate().empty());
}

TEST_F(SchedFixture, CircuitBeatsContendedPacketFabricForBulk) {
  // Same bulk flow measured with the scheduler (builds a circuit) and
  // raw on the contended packet fabric.
  const auto size = DataSize::megabytes(100);
  saturate_path();
  std::optional<SimTime> circuit_time;
  sched->submit(flow(0, 5, size, 1), [&](const fabric::FlowResult& r, bool circuit) {
    EXPECT_TRUE(circuit);
    circuit_time = r.completion_time();
  });
  sim.run_until();

  Simulator sim2;
  fabric::RackParams p;
  p.width = 6;
  p.height = 1;
  fabric::Rack rack2 = fabric::build_grid(&sim2, p);
  for (fabric::FlowId i = 0; i < 3; ++i) {
    fabric::FlowSpec bg = flow(0, 5, DataSize::megabytes(400), 900 + i);
    rack2.network->start_flow(bg, nullptr);
  }
  sim2.run_until(500_us);
  std::optional<SimTime> packet_time;
  fabric::FlowSpec spec = flow(0, 5, size, 2);
  rack2.network->start_flow(spec, [&](const fabric::FlowResult& r) {
    packet_time = r.completion_time();
  });
  sim2.run_until();

  ASSERT_TRUE(circuit_time && packet_time);
  // The dedicated lane sidesteps the contention (and pays its own
  // setup time inside the measured completion) yet still wins.
  EXPECT_LT(circuit_time->sec(), packet_time->sec());
}

TEST_F(SchedFixture, ConcurrentCircuitLimitRespected) {
  CircuitSchedulerConfig cfg;
  cfg.max_concurrent_circuits = 1;
  CircuitScheduler limited(&sim, rack.engine.get(), rack.plant.get(), rack.topology.get(),
                           rack.router.get(), rack.network.get(), cfg);
  int circuits = 0;
  int packets = 0;
  auto cb = [&](const fabric::FlowResult&, bool circuit) {
    circuit ? ++circuits : ++packets;
  };
  saturate_path();
  limited.submit(flow(0, 5, DataSize::megabytes(100), 1), cb);
  limited.submit(flow(0, 4, DataSize::megabytes(100), 2), cb);
  sim.run_until();
  EXPECT_EQ(circuits + packets, 2);
  EXPECT_LE(limited.circuits_built(), 2u);
  // The second flow was submitted while the first circuit was active:
  // it must have fallen back (limit 1).
  EXPECT_GE(packets, 1);
  EXPECT_TRUE(rack.plant->validate().empty());
}

TEST_F(SchedFixture, FallsBackWhenNoSpareLanes) {
  Simulator sim2;
  fabric::RackParams p;
  p.width = 6;
  p.height = 1;
  p.lanes_per_cable = 1;
  p.lanes_per_link = 1;  // nothing to split
  fabric::Rack thin = fabric::build_grid(&sim2, p);
  CircuitScheduler s(&sim2, thin.engine.get(), thin.plant.get(), thin.topology.get(),
                     thin.router.get(), thin.network.get());
  std::optional<bool> used_circuit;
  s.submit(flow(0, 5, DataSize::megabytes(100)),
           [&](const fabric::FlowResult& r, bool circuit) {
             EXPECT_FALSE(r.failed);
             used_circuit = circuit;
           });
  sim2.run_until();
  ASSERT_TRUE(used_circuit.has_value());
  EXPECT_FALSE(*used_circuit);
}

}  // namespace
}  // namespace rsf::core
