// FleetRuntime: sharded multi-rack simulation on one clock. A 1-shard
// fleet must be byte-identical to a standalone FabricRuntime, cross-
// rack flows must cross the spine correctly (including multi-hop and
// failure), and the fleet registry must expose every shard's
// metrics under its "rack<N>." prefix next to the live "spine.*" set.
#include <gtest/gtest.h>

#include <optional>
#include <string>

#include "runtime/fleet.hpp"
#include "runtime/runtime.hpp"
#include "workload/crossrack.hpp"
#include "workload/generator.hpp"

namespace rsf {
namespace {

using phy::DataSize;
using rsf::sim::SimTime;
using runtime::FabricRuntime;
using runtime::FleetConfig;
using runtime::FleetRuntime;
using runtime::RackShape;
using runtime::RackSpec;
using runtime::RuntimeConfig;
using runtime::SpineSpec;
using namespace rsf::sim::literals;

RuntimeConfig grid_config(int w = 4, int h = 4) {
  RuntimeConfig cfg;
  cfg.shape = RackShape::kGrid;
  cfg.rack.width = w;
  cfg.rack.height = h;
  return cfg;
}

/// A fixed-seed workload driven identically against a standalone
/// runtime and a 1-shard fleet's rack.
workload::GeneratorConfig workload_config() {
  workload::GeneratorConfig cfg;
  cfg.seed = 99;
  cfg.mean_interarrival = 60_us;
  cfg.horizon = 2_ms;
  cfg.sizes = workload::SizeDistribution::fixed_size(DataSize::kilobytes(8));
  return cfg;
}

TEST(FleetRuntime, OneShardFleetIsByteIdenticalToStandaloneRuntime) {
  // Standalone.
  FabricRuntime rt(grid_config());
  auto& gen = rt.add_generator(workload::TrafficMatrix::uniform(rt.node_count()),
                               workload_config());
  rt.start();
  gen.start();
  rt.run_until();
  rt.stop();
  rt.run_until();

  // 1-shard fleet, same rack config, same workload.
  FleetConfig fc;
  fc.racks.push_back(RackSpec{grid_config(), 0});
  FleetRuntime fleet(fc);
  auto& fgen = fleet.rack(0).add_generator(
      workload::TrafficMatrix::uniform(fleet.rack(0).node_count()), workload_config());
  fleet.start();
  fgen.start();
  fleet.run_until();
  fleet.stop();
  fleet.run_until();

  EXPECT_EQ(rt.sim().executed(), fleet.sim().executed());
  // Byte-identical metrics: the shard's rendered table equals the
  // standalone runtime's, row for row.
  EXPECT_EQ(rt.metrics_table().to_string(), fleet.rack(0).metrics_table().to_string());
}

TEST(FleetRuntime, CrossRackFlowDelivers) {
  FleetConfig fc;
  fc.racks.push_back(RackSpec{grid_config(), 0});
  fc.racks.push_back(RackSpec{grid_config(), 0});
  SpineSpec s;
  s.rack_a = 0;
  s.rack_b = 1;
  s.latency = 3_us;
  fc.spine.push_back(s);
  FleetRuntime fleet(fc);

  runtime::FleetFlowSpec spec;
  spec.src = fleet.at(0, 3, 3);
  spec.dst = fleet.at(1, 2, 2);
  spec.size = DataSize::kilobytes(64);
  std::optional<runtime::FleetFlowResult> result;
  fleet.start_flow(spec, [&](const runtime::FleetFlowResult& r) { result = r; });
  fleet.run_until();

  ASSERT_TRUE(result.has_value());
  EXPECT_FALSE(result->failed);
  EXPECT_EQ(result->spine_hops, 1);
  EXPECT_EQ(result->rack_legs, 2);  // src->gw in rack 0, gw->dst in rack 1
  // The payload crossed the spine at least once: serialization + the
  // 3 us propagation put completion past the pure-latency floor.
  EXPECT_GT(result->completion_time(), 3_us);
  EXPECT_EQ(fleet.flows_completed(), 1u);
  // Per-packet transport: every one of the 63 packets (64 kB SI at
  // 1024 B) crossed both rack fabrics (as probes) and the spine
  // individually.
  EXPECT_EQ(fleet.rack(0).network().counters().get("net.probes"), 63u);
  EXPECT_EQ(fleet.rack(1).network().counters().get("net.probes"), 63u);
  EXPECT_EQ(fleet.spine().counters().get("spine.packets"), 63u);
  EXPECT_EQ(fleet.spine().counters().get("spine.link0.packets"), 63u);
  EXPECT_EQ(fleet.spine().link_packets(0, 0), 63u);
  EXPECT_EQ(fleet.spine().link_packets(0, 1), 0u);  // one-directional flow
}

TEST(FleetRuntime, CrossRackFlowPeaksAtExactlyTheFlowWindow) {
  // The fleet pump keeps at most fabric::kFlowWindow packets of a flow
  // in flight across the whole path, so a 63-packet flow fills exactly
  // that many fleet packet slots at its start and never grows past.
  FleetConfig fc;
  fc.racks.push_back(RackSpec{grid_config(), 0});
  fc.racks.push_back(RackSpec{grid_config(), 0});
  SpineSpec s;
  s.rack_a = 0;
  s.rack_b = 1;
  fc.spine.push_back(s);
  FleetRuntime fleet(fc);

  runtime::FleetFlowSpec spec;
  spec.src = fleet.at(0, 3, 3);
  spec.dst = fleet.at(1, 2, 2);
  spec.size = DataSize::kilobytes(64);
  std::optional<runtime::FleetFlowResult> result;
  fleet.start_flow(spec, [&](const runtime::FleetFlowResult& r) { result = r; });
  const auto window = static_cast<std::size_t>(fabric::kFlowWindow);
  fleet.run_until(1_ns);  // the start event has pumped a full window
  EXPECT_EQ(fleet.packet_slots(), window);
  EXPECT_EQ(fleet.free_packet_slots(), 0u);
  fleet.run_until();

  ASSERT_TRUE(result.has_value());
  EXPECT_FALSE(result->failed);
  EXPECT_EQ(fleet.spine().counters().get("spine.packets"), 63u);
  EXPECT_EQ(fleet.packet_slots(), window);
  EXPECT_EQ(fleet.free_packet_slots(), window);
}

TEST(FleetRuntime, MultiHopSpineRoutesThroughIntermediateRack) {
  // Line 0 - 1 - 2 with distinct entry/exit gateways on rack 1, so the
  // payload must cross rack 1's fabric between them.
  FleetConfig fc;
  for (int i = 0; i < 3; ++i) fc.racks.push_back(RackSpec{grid_config(), 0});
  SpineSpec s01;
  s01.rack_a = 0;
  s01.rack_b = 1;
  fc.spine.push_back(s01);
  SpineSpec s12;
  s12.rack_a = 1;
  s12.rack_b = 2;
  s12.gateway_a = 15;  // far corner of rack 1
  fc.spine.push_back(s12);
  FleetRuntime fleet(fc);

  runtime::FleetFlowSpec spec;
  spec.src = fleet.at(0, 1, 1);
  spec.dst = fleet.at(2, 2, 2);
  spec.size = DataSize::kilobytes(32);
  std::optional<runtime::FleetFlowResult> result;
  fleet.start_flow(spec, [&](const runtime::FleetFlowResult& r) { result = r; });
  fleet.run_until();

  ASSERT_TRUE(result.has_value());
  EXPECT_FALSE(result->failed);
  EXPECT_EQ(result->spine_hops, 2);
  EXPECT_EQ(result->rack_legs, 3);  // rack0 egress, rack1 transit, rack2 ingress
  // Packets transited rack 1's fabric between its two gateways.
  EXPECT_GT(fleet.rack(1).network().counters().get("net.probes"), 0u);
  EXPECT_GT(fleet.rack(1).network().counters().get("net.packets_delivered"), 0u);
}

TEST(FleetRuntime, DownSpineLinkFailsOrReroutes) {
  // Triangle 0-1, 1-2, 0-2: killing 0-2 reroutes through rack 1;
  // killing both 0-2 and 1-2 leaves rack 2 unreachable.
  FleetConfig fc;
  for (int i = 0; i < 3; ++i) fc.racks.push_back(RackSpec{grid_config(), 0});
  for (auto [a, b] : {std::pair{0, 1}, {1, 2}, {0, 2}}) {
    SpineSpec s;
    s.rack_a = static_cast<std::uint32_t>(a);
    s.rack_b = static_cast<std::uint32_t>(b);
    fc.spine.push_back(s);
  }
  FleetRuntime fleet(fc);
  fleet.spine().set_link_up(2, false);  // 0-2 down

  runtime::FleetFlowSpec spec;
  spec.src = fleet.at(0, 0, 0);
  spec.dst = fleet.at(2, 0, 1);
  spec.size = DataSize::kilobytes(16);
  std::optional<runtime::FleetFlowResult> result;
  fleet.start_flow(spec, [&](const runtime::FleetFlowResult& r) { result = r; });
  fleet.run_until();
  ASSERT_TRUE(result.has_value());
  EXPECT_FALSE(result->failed);
  EXPECT_EQ(result->spine_hops, 2);  // took the detour via rack 1

  fleet.spine().set_link_up(1, false);  // 1-2 down too: rack 2 cut off
  spec.id = 2;
  spec.start = fleet.now();
  std::optional<runtime::FleetFlowResult> cut;
  fleet.start_flow(spec, [&](const runtime::FleetFlowResult& r) { cut = r; });
  fleet.run_until();
  ASSERT_TRUE(cut.has_value());
  EXPECT_TRUE(cut->failed);
  EXPECT_EQ(fleet.flows_failed(), 1u);
}

TEST(FleetRuntime, CrossRackShuffleCompletesAndCountsSpineHops) {
  FleetConfig fc;
  fc.racks.push_back(RackSpec{grid_config(), 0});
  fc.racks.push_back(RackSpec{grid_config(), 0});
  SpineSpec s;
  s.rack_a = 0;
  s.rack_b = 1;
  fc.spine.push_back(s);
  FleetRuntime fleet(fc);

  workload::CrossRackShuffleConfig cfg;
  for (int x = 0; x < 3; ++x) cfg.mappers.push_back(fleet.at(0, x, 0));
  for (int x = 0; x < 2; ++x) cfg.reducers.push_back(fleet.at(1, x, 3));
  cfg.bytes_per_pair = DataSize::kilobytes(32);
  auto& job = fleet.add_shuffle(cfg);
  std::optional<workload::CrossRackResult> result;
  job.run([&](const workload::CrossRackResult& r) { result = r; });
  fleet.run_until();

  ASSERT_TRUE(job.finished());
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->flows, 6u);  // 3 mappers x 2 reducers
  EXPECT_EQ(result->failed, 0u);
  EXPECT_EQ(result->cross_rack_flows, 6u);
  EXPECT_EQ(result->spine_hops, 6u);
  EXPECT_GE(result->straggler_ratio(), 1.0);
  EXPECT_GT(result->job_completion, SimTime::zero());
}

TEST(FleetRuntime, RegistryExposesPrefixedRackAndSpineMetrics) {
  FleetConfig fc;
  fc.racks.push_back(RackSpec{grid_config(), 0});
  fc.racks.push_back(RackSpec{grid_config(), 0});
  SpineSpec s;
  s.rack_a = 0;
  s.rack_b = 1;
  fc.spine.push_back(s);
  FleetRuntime fleet(fc);

  runtime::FleetFlowSpec spec;
  spec.src = fleet.at(0, 0, 1);
  spec.dst = fleet.at(1, 1, 0);
  spec.size = DataSize::kilobytes(16);
  fleet.start_flow(spec);
  fleet.run_until();

  auto& metrics = fleet.metrics();
  for (const std::string rack : {"rack0", "rack1"}) {
    const auto* pkt = metrics.find_histogram(rack + ".net.packet_latency");
    ASSERT_NE(pkt, nullptr) << rack;
    EXPECT_GT(pkt->count(), 0u) << rack;
    const auto* counters = metrics.find_counters(rack + ".net");
    ASSERT_NE(counters, nullptr) << rack;
    EXPECT_GT(counters->get(rack + ".net.packets_delivered"), 0u) << rack;
  }
  EXPECT_NE(metrics.find_counters("spine"), nullptr);
  EXPECT_EQ(metrics.find_counters("spine")->get("spine.packets"), 16u);  // 16 kB / 1 KiB
  EXPECT_NE(metrics.find_histogram("spine.transfer_latency"), nullptr);

  // The snapshot matches the shard's own registry, and re-collecting
  // refreshes in place (no double counting, stable instruments).
  const auto* before = metrics.find_histogram("rack0.net.packet_latency");
  const auto count = before->count();
  EXPECT_EQ(count, fleet.rack(0).network().packet_latency().count());
  auto& again = fleet.metrics();
  EXPECT_EQ(before, again.find_histogram("rack0.net.packet_latency"));
  EXPECT_EQ(before->count(), count);

  // The fleet table carries rows from every prefix.
  const std::string table = fleet.metrics_table().to_string();
  EXPECT_NE(table.find("rack0.net.packet_latency"), std::string::npos);
  EXPECT_NE(table.find("rack1.net.packet_latency"), std::string::npos);
  EXPECT_NE(table.find("spine.packets"), std::string::npos);
}

TEST(FleetRuntime, SameRackFleetFlowCollapsesToPlainNetworkFlow) {
  FleetConfig fc;
  fc.racks.push_back(RackSpec{grid_config(), 0});
  FleetRuntime fleet(fc);

  runtime::FleetFlowSpec spec;
  spec.src = fleet.at(0, 0, 0);
  spec.dst = fleet.at(0, 3, 3);
  spec.size = DataSize::kilobytes(16);
  spec.start = 5_us;
  std::optional<runtime::FleetFlowResult> result;
  fleet.start_flow(spec, [&](const runtime::FleetFlowResult& r) { result = r; });
  fleet.run_until();

  ASSERT_TRUE(result.has_value());
  EXPECT_FALSE(result->failed);
  EXPECT_EQ(result->spine_hops, 0);
  EXPECT_EQ(result->rack_legs, 1);
  EXPECT_EQ(fleet.spine().counters().get("spine.packets"), 0u);

  // The same flow on a standalone rack of the same config: the fleet
  // flow is that Network flow, started at its start, not a staged copy.
  FabricRuntime rt(grid_config());
  fabric::FlowSpec plain;
  plain.id = 1;
  plain.src = spec.src.node;
  plain.dst = spec.dst.node;
  plain.size = spec.size;
  plain.packet_size = spec.packet_size;
  plain.start = spec.start;
  std::optional<fabric::FlowResult> reference;
  rt.network().start_flow(plain, [&](const fabric::FlowResult& r) { reference = r; });
  rt.run_until();
  ASSERT_TRUE(reference.has_value());
  ASSERT_FALSE(reference->failed);
  EXPECT_EQ(result->started, spec.start);
  EXPECT_EQ(result->completion_time(), reference->completion_time());
  // One event more than the standalone run, the fleet flow's start: the
  // leg starts from it directly.
  EXPECT_EQ(fleet.sim().executed(), rt.sim().executed() + 1);

  // A flow to its own node is done at its start: no leg, not failed.
  runtime::FleetFlowSpec self = spec;
  self.dst = spec.src;
  self.start = fleet.now() + 3_us;
  std::optional<runtime::FleetFlowResult> self_result;
  fleet.start_flow(self, [&](const runtime::FleetFlowResult& r) { self_result = r; });
  fleet.run_until();
  ASSERT_TRUE(self_result.has_value());
  EXPECT_FALSE(self_result->failed);
  EXPECT_EQ(self_result->rack_legs, 0);
  EXPECT_EQ(self_result->started, self.start);
  EXPECT_EQ(self_result->finished, self.start);
}

TEST(FleetRuntime, MidFlowSpineFailureReroutesInFlightPackets) {
  // Triangle 0-1 (link 0), 1-2 (link 1), 0-2 (link 2). A long flow
  // 0 -> 2 starts on the direct link; killing it mid-flow must re-plan
  // the remaining packets through rack 1 and still complete.
  FleetConfig fc;
  for (int i = 0; i < 3; ++i) fc.racks.push_back(RackSpec{grid_config(), 0});
  for (auto [a, b] : {std::pair{0, 1}, {1, 2}, {0, 2}}) {
    SpineSpec s;
    s.rack_a = static_cast<std::uint32_t>(a);
    s.rack_b = static_cast<std::uint32_t>(b);
    fc.spine.push_back(s);
  }
  FleetRuntime fleet(fc);

  runtime::FleetFlowSpec spec;
  spec.src = fleet.at(0, 3, 3);
  spec.dst = fleet.at(2, 2, 2);
  spec.size = DataSize::megabytes(1);  // ~1024 packets: far from done at 50 us
  std::optional<runtime::FleetFlowResult> result;
  fleet.start_flow(spec, [&](const runtime::FleetFlowResult& r) { result = r; });
  fleet.sim().schedule_at(50_us, [&] { fleet.spine().set_link_up(2, false); });
  fleet.run_until();

  ASSERT_TRUE(result.has_value());
  EXPECT_FALSE(result->failed);
  // Early packets took the direct hop, post-failure packets the detour.
  EXPECT_EQ(result->spine_hops, 2);
  const auto& c = fleet.spine().counters();
  EXPECT_GT(c.get("spine.link2.packets"), 0u);
  EXPECT_GT(c.get("spine.link0.packets"), 0u);
  EXPECT_GT(c.get("spine.link1.packets"), 0u);
  // At least one in-flight packet hit the dead hop and re-planned.
  EXPECT_GE(c.get("spine.packet_reroutes"), 1u);
  EXPECT_EQ(fleet.flows_completed(), 1u);
}

TEST(FleetRuntime, MidFlowSpinePartitionFailsDeterministically) {
  // Two racks, one spine link: killing it mid-flow leaves no route.
  // The flow must fail cleanly (callback fires, simulation drains).
  FleetConfig fc;
  fc.racks.push_back(RackSpec{grid_config(), 0});
  fc.racks.push_back(RackSpec{grid_config(), 0});
  SpineSpec s;
  s.rack_a = 0;
  s.rack_b = 1;
  fc.spine.push_back(s);
  FleetRuntime fleet(fc);

  runtime::FleetFlowSpec spec;
  spec.src = fleet.at(0, 3, 3);
  spec.dst = fleet.at(1, 2, 2);
  spec.size = DataSize::megabytes(1);
  std::optional<runtime::FleetFlowResult> result;
  fleet.start_flow(spec, [&](const runtime::FleetFlowResult& r) { result = r; });
  fleet.sim().schedule_at(50_us, [&] { fleet.spine().set_link_up(0, false); });
  fleet.run_until();  // must terminate, not hang on a stuck window

  ASSERT_TRUE(result.has_value());
  EXPECT_TRUE(result->failed);
  EXPECT_EQ(fleet.flows_failed(), 1u);
  EXPECT_TRUE(fleet.sim().idle());
}

TEST(FleetRuntime, SpineLossRetransmitsUntilDelivered) {
  FleetConfig fc;
  fc.racks.push_back(RackSpec{grid_config(), 0});
  fc.racks.push_back(RackSpec{grid_config(), 0});
  SpineSpec s;
  s.rack_a = 0;
  s.rack_b = 1;
  s.loss_prob = 0.05;
  fc.spine.push_back(s);
  fc.seed = 7;
  FleetRuntime fleet(fc);

  runtime::FleetFlowSpec spec;
  spec.src = fleet.at(0, 1, 1);
  spec.dst = fleet.at(1, 2, 2);
  spec.size = DataSize::kilobytes(256);  // 250 packets: losses certain
  std::optional<runtime::FleetFlowResult> result;
  fleet.start_flow(spec, [&](const runtime::FleetFlowResult& r) { result = r; });
  fleet.run_until();

  ASSERT_TRUE(result.has_value());
  EXPECT_FALSE(result->failed);
  EXPECT_GT(result->retransmits, 0u);
  const auto& c = fleet.spine().counters();
  EXPECT_GT(c.get("spine.packet_drops"), 0u);
  EXPECT_EQ(c.get("spine.retransmits"), result->retransmits);
  // Every drop was re-sent: packets on the wire = clean packets + drops.
  EXPECT_EQ(c.get("spine.packets"), 250u + c.get("spine.packet_drops"));
  EXPECT_EQ(fleet.spine().link_drops(0, 0), c.get("spine.packet_drops"));
}

/// Drive one fixed cross-rack workload against `fleet`; used by the
/// determinism regressions below.
void run_reference_shuffle(FleetRuntime& fleet) {
  workload::CrossRackShuffleConfig cfg;
  for (int x = 0; x < 3; ++x) cfg.mappers.push_back(fleet.at(0, x, 0));
  for (int x = 0; x < 2; ++x) cfg.reducers.push_back(fleet.at(1, x, 3));
  cfg.bytes_per_pair = DataSize::kilobytes(64);
  auto& gen = fleet.rack(0).add_generator(
      workload::TrafficMatrix::uniform(fleet.rack(0).node_count()), workload_config());
  fleet.start();
  gen.start();
  fleet.add_shuffle(cfg).run(nullptr);
  fleet.run_until();
  fleet.stop();
  fleet.run_until();
}

TEST(FleetRuntime, SameSeedRunsRenderByteIdenticalMetricsTables) {
  // Loss on the spine exercises the spine RNG; the controller
  // exercises repricing; both must be bit-for-bit reproducible.
  auto make_config = [] {
    FleetConfig fc;
    fc.racks.push_back(RackSpec{grid_config(), 0});
    fc.racks.push_back(RackSpec{grid_config(), 0});
    SpineSpec s;
    s.rack_a = 0;
    s.rack_b = 1;
    s.loss_prob = 0.02;
    fc.spine.push_back(s);
    fc.seed = 42;
    fc.enable_controller = true;
    fc.controller.epoch = 20_us;
    return fc;
  };
  FleetRuntime a(make_config());
  run_reference_shuffle(a);
  FleetRuntime b(make_config());
  run_reference_shuffle(b);
  EXPECT_EQ(a.sim().executed(), b.sim().executed());
  EXPECT_EQ(a.metrics_table().to_string(), b.metrics_table().to_string());
}

TEST(FleetRuntime, AddingARackDoesNotPerturbExistingRacksStreams) {
  // The same workload runs in a 2-rack fleet and a 3-rack fleet (the
  // extra rack idles): racks 0 and 1 must render byte-identical
  // metrics, because every rack derives its own child streams
  // (sim/random independence at fleet scope).
  auto make_config = [](int racks) {
    FleetConfig fc;
    for (int i = 0; i < racks; ++i) fc.racks.push_back(RackSpec{grid_config(), 0});
    SpineSpec s;
    s.rack_a = 0;
    s.rack_b = 1;
    s.loss_prob = 0.02;
    fc.spine.push_back(s);
    fc.seed = 42;
    return fc;
  };
  FleetRuntime two(make_config(2));
  run_reference_shuffle(two);
  FleetRuntime three(make_config(3));
  run_reference_shuffle(three);
  EXPECT_EQ(two.rack(0).metrics_table().to_string(),
            three.rack(0).metrics_table().to_string());
  EXPECT_EQ(two.rack(1).metrics_table().to_string(),
            three.rack(1).metrics_table().to_string());
}

TEST(FleetRuntime, RejectsBadConfigs) {
  EXPECT_THROW(FleetRuntime(FleetConfig{}), std::invalid_argument);

  FleetConfig bad_gateway;
  bad_gateway.racks.push_back(RackSpec{grid_config(), 99});
  EXPECT_THROW(FleetRuntime{bad_gateway}, std::invalid_argument);

  FleetConfig bad_spine;
  bad_spine.racks.push_back(RackSpec{grid_config(), 0});
  SpineSpec s;
  s.rack_a = 0;
  s.rack_b = 7;  // no such rack
  bad_spine.spine.push_back(s);
  EXPECT_THROW(FleetRuntime{bad_spine}, std::invalid_argument);

  // Bad flow specs fail at the call site, not mid-simulation.
  FleetConfig ok;
  ok.racks.push_back(RackSpec{grid_config(), 0});
  FleetRuntime fleet(ok);
  runtime::FleetFlowSpec empty_flow;
  empty_flow.src = fleet.at(0, 0, 0);
  empty_flow.dst = fleet.at(0, 1, 1);
  empty_flow.size = DataSize::bytes(0);
  EXPECT_THROW(fleet.start_flow(empty_flow), std::invalid_argument);
}

}  // namespace
}  // namespace rsf
