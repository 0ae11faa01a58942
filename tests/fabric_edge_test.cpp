// Edge-case and robustness tests of the transport and routing layers:
// TTL backstops, reservations, exact idle-path latency, and the
// adaptive-FEC control loop under traffic end to end.
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>

#include "core/controller.hpp"
#include "fabric/builders.hpp"
#include "phy/ber_profile.hpp"
#include "workload/generator.hpp"

namespace rsf {
namespace {

using fabric::kNicLatency;
using fabric::kSwitchLatency;
using fabric::Rack;
using fabric::RackParams;
using phy::DataSize;
using phy::LinkId;
using rsf::sim::SimTime;
using rsf::sim::Simulator;
using namespace rsf::sim::literals;

TEST(FabricEdge, FailedLaneImmediatelyVisibleToRouting) {
  Simulator sim;
  RackParams p;
  p.width = 3;
  p.height = 1;
  Rack rack = fabric::build_grid(&sim, p);
  const std::uint64_t v0 = rack.topology->version();
  const LinkId l01 = *rack.topology->link_between(0, 1);
  rack.plant->fail_lane(phy::LaneRef{rack.plant->link(l01).segments().front().cable, 0});
  // fail_lane bumps the plant's version; routing re-runs
  // Dijkstra and the dead link is excluded.
  EXPECT_GT(rack.topology->version(), v0);
  EXPECT_FALSE(rack.topology->usable(l01));
  EXPECT_FALSE(rack.router->next_hop(0, 2).has_value());  // chain is cut
}

TEST(FabricEdge, TtlBackstopTriggersRetransmitNotOrbit) {
  Simulator sim;
  RackParams p;
  // Corner to corner is 66 hops, past the kMaxHops = 64 backstop.
  p.width = 34;
  p.height = 34;
  Rack rack = fabric::build_grid(&sim, p);
  std::optional<bool> delivered;
  rack.network->send_probe(rack.node_at(0, 0), rack.node_at(33, 33), DataSize::bytes(256),
                           [&](const fabric::ProbeResult& r) { delivered = !r.failed; });
  sim.run_until();
  // The probe keeps being returned to the source until retries
  // exhaust: it is dropped, never delivered, and the simulation
  // terminates (no infinite orbit).
  ASSERT_TRUE(delivered.has_value());
  EXPECT_FALSE(*delivered);
  EXPECT_GT(rack.network->counters().get("net.drops.retries_exhausted") +
                rack.network->counters().get("net.drops.no_route"),
            0u);
}

TEST(FabricEdge, MaxHopsDefaultAdmitsDiameterPaths) {
  Simulator sim;
  RackParams p;
  p.width = 8;
  p.height = 8;
  Rack rack = fabric::build_grid(&sim, p);
  std::optional<bool> delivered;
  rack.network->send_probe(rack.node_at(0, 0), rack.node_at(7, 7), DataSize::bytes(256),
                           [&](const fabric::ProbeResult& r) {
                             delivered = !r.failed;
                             EXPECT_EQ(r.hops, 14);
                           });
  sim.run_until();
  ASSERT_TRUE(delivered.has_value());
  EXPECT_TRUE(*delivered);
}

TEST(FabricEdge, ReservationClearedOnStructuralChange) {
  Simulator sim;
  RackParams p;
  p.width = 3;
  p.height = 1;
  Rack rack = fabric::build_grid(&sim, p);
  const LinkId l01 = *rack.topology->link_between(0, 1);
  rack.plant->set_reservation(l01, 99);
  EXPECT_EQ(rack.plant->link(l01).reserved_for(), std::optional<std::uint64_t>(99));
  // Splitting destroys the link; successors start unreserved.
  const auto [a, b] = rack.plant->split_link(l01, 1);
  EXPECT_FALSE(rack.plant->link(a).reserved_for().has_value());
  EXPECT_FALSE(rack.plant->link(b).reserved_for().has_value());
}

TEST(FabricEdge, ProbeOverReservedOnlyPathIsDropped) {
  // If the only path is a reserved circuit, anonymous traffic cannot
  // cross: reservations really are private.
  Simulator sim;
  RackParams p;
  p.width = 2;
  p.height = 1;
  Rack rack = fabric::build_grid(&sim, p);
  const LinkId only = *rack.topology->link_between(0, 1);
  rack.plant->set_reservation(only, 7);
  std::optional<bool> delivered;
  rack.network->send_probe(0, 1, DataSize::bytes(64),
                           [&](const fabric::ProbeResult& r) { delivered = !r.failed; });
  sim.run_until();
  ASSERT_TRUE(delivered.has_value());
  EXPECT_FALSE(*delivered);
}

TEST(FabricEdge, IdleChainLatencyMatchesClosedFormsToThePicosecond) {
  // An idle 5-node chain (H = 4 hops) has no queueing, so a packet's
  // latency is a closed form. Cut-through forwards once the 64 B head
  // clears each intermediate link and switch, and only the last link
  // waits for the whole packet; store-and-forward buffers the whole
  // packet at every hop. A one-packet flow on the same path must see
  // the same latency as the probe.
  constexpr int kHops = 4;
  const std::int64_t h = kHops;
  for (const bool cut_through : {true, false}) {
    for (const std::int64_t bytes : {64, 1024, 9000}) {
      Simulator sim;
      RackParams p;
      p.net_config.cut_through = cut_through;
      Rack rack = fabric::build_chain(&sim, kHops + 1, p);
      const DataSize size = DataSize::bytes(bytes);
      const auto& l = rack.plant->link(*rack.topology->link_between(0, 1));
      const SimTime ser = l.serialization_delay(size);
      const SimTime head = l.serialization_delay(std::min(DataSize::bytes(64), size));
      const SimTime prop = l.propagation_delay() + l.fec().latency;
      const SimTime expected =
          cut_through
              ? kNicLatency + (head + prop + kSwitchLatency) * (h - 1) + ser + prop + kNicLatency
              : kNicLatency + (ser + prop) * h + kSwitchLatency * (h - 1) + kNicLatency;

      std::optional<SimTime> probe;
      rack.network->send_probe(0, kHops, size, [&](const fabric::ProbeResult& r) {
        EXPECT_FALSE(r.failed);
        EXPECT_EQ(r.hops, kHops);
        probe = r.completion_time();
      });
      sim.run_until();
      ASSERT_TRUE(probe.has_value());
      EXPECT_EQ(*probe, expected) << "cut_through=" << cut_through << " bytes=" << bytes;

      fabric::FlowSpec spec;
      spec.id = 1;
      spec.src = 0;
      spec.dst = kHops;
      spec.size = size;
      spec.packet_size = size;
      std::optional<fabric::FlowResult> flow;
      rack.network->start_flow(spec, [&](const fabric::FlowResult& r) { flow = r; });
      sim.run_until();
      ASSERT_TRUE(flow.has_value());
      EXPECT_EQ(flow->packets, 1u);
      EXPECT_EQ(flow->completion_time(), expected)
          << "cut_through=" << cut_through << " bytes=" << bytes;
    }
  }
}

TEST(FabricEdge, LaneBerDrivesAdaptiveFecUnderTraffic) {
  // Full loop on the lanes' BER with traffic flowing: ramp a cable and
  // check the CRC escalates FEC while frames keep crossing the link.
  Simulator sim;
  RackParams p;
  p.width = 3;
  p.height = 1;
  p.fec = phy::FecScheme::kRsKr4;
  Rack rack = fabric::build_grid(&sim, p);

  core::CrcConfig cfg;
  cfg.epoch = 200_us;
  cfg.enable_adaptive_fec = true;
  core::CrcController crc(&sim, rack.plant.get(), rack.engine.get(), rack.topology.get(),
                          rack.router.get(), rack.network.get(), cfg);
  crc.start();

  const LinkId victim = *rack.topology->link_between(0, 1);
  const phy::CableId cable = rack.plant->link(victim).segments().front().cable;
  phy::BerDriver ber(&sim, rack.plant.get(), cable,
                     phy::ramp_ber(1e-12, 2e-4, 1_ms, 6_ms), 100_us);
  ber.start();

  workload::GeneratorConfig gen_cfg;
  gen_cfg.mean_interarrival = 50_us;
  gen_cfg.horizon = 10_ms;
  gen_cfg.sizes = workload::SizeDistribution::fixed_size(DataSize::kilobytes(64));
  workload::FlowGenerator gen(&sim, rack.network.get(),
                              workload::TrafficMatrix::uniform(3), gen_cfg);
  gen.start();
  sim.run_until(15_ms);
  ber.stop();
  crc.stop();
  sim.run_until();

  const auto link_now = rack.topology->link_between(0, 1);
  ASSERT_TRUE(link_now.has_value());
  EXPECT_EQ(rack.plant->link(*link_now).fec().scheme, phy::FecScheme::kRsKp4);
}

TEST(FabricEdge, RepeatedSplitBundleCyclesAreStable) {
  Simulator sim;
  RackParams p;
  p.width = 2;
  p.height = 1;
  p.lanes_per_cable = 4;
  p.lanes_per_link = 4;
  Rack rack = fabric::build_grid(&sim, p);
  LinkId current = rack.plant->link_ids().front();
  for (int i = 0; i < 10; ++i) {
    std::optional<plp::PlpResult> split;
    rack.engine->submit(plp::SplitCommand{current, 2},
                        [&](const plp::PlpResult& r) { split = r; });
    sim.run_until();
    ASSERT_TRUE(split && split->ok) << "iteration " << i;
    std::optional<plp::PlpResult> bundle;
    rack.engine->submit(plp::BundleCommand{split->created[0], split->created[1]},
                        [&](const plp::PlpResult& r) { bundle = r; });
    sim.run_until();
    ASSERT_TRUE(bundle && bundle->ok) << "iteration " << i;
    current = bundle->created.front();
    ASSERT_TRUE(rack.plant->validate().empty());
  }
  EXPECT_EQ(rack.plant->link(current).lane_count(), 4);
  EXPECT_TRUE(rack.plant->link(current).ready());
}

}  // namespace
}  // namespace rsf
