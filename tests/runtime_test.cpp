// FabricRuntime facade: config-driven wiring must be byte-identical to
// the hand-wired stack it replaced (builder parity for a fixed seed),
// and the runtime's registry must expose every component's metrics.
#include <gtest/gtest.h>

#include <optional>
#include <tuple>

#include "fabric/builders.hpp"
#include "runtime/runtime.hpp"
#include "workload/generator.hpp"

namespace rsf {
namespace {

using phy::DataSize;
using rsf::sim::SimTime;
using runtime::FabricRuntime;
using runtime::RackShape;
using runtime::RuntimeConfig;
using namespace rsf::sim::literals;

/// Fingerprint of a fixed-seed uniform workload run: event count,
/// completed flows, and the flow-completion/packet-latency moments.
using Fingerprint = std::tuple<std::uint64_t, std::uint64_t, double, double>;

workload::GeneratorConfig workload_config() {
  workload::GeneratorConfig cfg;
  cfg.seed = 42;
  cfg.mean_interarrival = 80_us;
  cfg.horizon = 3_ms;
  cfg.sizes = workload::SizeDistribution::fixed_size(DataSize::kilobytes(16));
  return cfg;
}

Fingerprint fingerprint(rsf::sim::Simulator& sim, fabric::Network& net,
                        workload::FlowGenerator& gen) {
  gen.start();
  sim.run_until();
  return {sim.executed(), net.flows_completed(), net.flow_completion().mean(),
          net.packet_latency().mean()};
}

Fingerprint run_runtime(RackShape shape, int w, int h, int nodes = 0) {
  RuntimeConfig cfg;
  cfg.shape = shape;
  cfg.rack.width = w;
  cfg.rack.height = h;
  cfg.nodes = nodes;
  cfg.enable_crc = false;
  FabricRuntime rt(cfg);
  auto& gen = rt.add_generator(workload::TrafficMatrix::uniform(rt.node_count()),
                               workload_config());
  return fingerprint(rt.sim(), rt.network(), gen);
}

Fingerprint run_hand_wired(RackShape shape, int w, int h, int nodes = 0) {
  rsf::sim::Simulator sim;
  fabric::RackParams p;
  p.width = w;
  p.height = h;
  fabric::Rack rack = shape == RackShape::kGrid    ? fabric::build_grid(&sim, p)
                      : shape == RackShape::kTorus ? fabric::build_torus(&sim, p)
                      : shape == RackShape::kRing  ? fabric::build_ring(&sim, nodes, p)
                                                   : fabric::build_chain(&sim, nodes, p);
  workload::FlowGenerator gen(&sim, rack.network.get(),
                              workload::TrafficMatrix::uniform(rack.topology->node_count()),
                              workload_config());
  return fingerprint(sim, *rack.network, gen);
}

TEST(FabricRuntime, GridParityWithHandWiring) {
  EXPECT_EQ(run_runtime(RackShape::kGrid, 4, 4), run_hand_wired(RackShape::kGrid, 4, 4));
}

TEST(FabricRuntime, TorusParityWithHandWiring) {
  EXPECT_EQ(run_runtime(RackShape::kTorus, 4, 4), run_hand_wired(RackShape::kTorus, 4, 4));
}

TEST(FabricRuntime, RingParityWithHandWiring) {
  EXPECT_EQ(run_runtime(RackShape::kRing, 4, 4, /*nodes=*/8),
            run_hand_wired(RackShape::kRing, 4, 4, /*nodes=*/8));
}

TEST(FabricRuntime, RuntimeRunsAreDeterministic) {
  EXPECT_EQ(run_runtime(RackShape::kGrid, 4, 4), run_runtime(RackShape::kGrid, 4, 4));
}

TEST(FabricRuntime, ControllerLifecycle) {
  RuntimeConfig cfg;
  cfg.rack.width = 3;
  cfg.rack.height = 3;
  FabricRuntime rt(cfg);
  ASSERT_TRUE(rt.has_controller());
  rt.start();
  EXPECT_TRUE(rt.controller().running());
  rt.run_until(1_ms);
  rt.stop();
  EXPECT_FALSE(rt.controller().running());
  rt.run_until();
  EXPECT_GT(rt.controller().epochs_completed(), 0u);
}

TEST(FabricRuntime, ControllerAccessThrowsWhenDisabled) {
  RuntimeConfig cfg;
  cfg.rack.width = 3;
  cfg.rack.height = 3;
  cfg.enable_crc = false;
  FabricRuntime rt(cfg);
  EXPECT_FALSE(rt.has_controller());
  EXPECT_THROW(static_cast<void>(rt.controller()), std::logic_error);
}

TEST(FabricRuntime, RegistryExposesComponentMetrics) {
  RuntimeConfig cfg;
  cfg.rack.width = 4;
  cfg.rack.height = 4;
  FabricRuntime rt(cfg);
  rt.start();

  fabric::FlowSpec spec;
  spec.id = 1;
  spec.src = rt.node_at(0, 0);
  spec.dst = rt.node_at(3, 3);
  spec.size = DataSize::kilobytes(64);
  std::optional<fabric::FlowResult> result;
  rt.network().start_flow(spec, [&](const fabric::FlowResult& r) { result = r; });
  rt.run_until(2_ms);
  rt.stop();
  rt.run_until();
  ASSERT_TRUE(result && !result->failed);

  // The network's instruments ARE the registry's: same objects.
  const auto* pkt = rt.metrics().find_histogram("net.packet_latency");
  ASSERT_NE(pkt, nullptr);
  EXPECT_EQ(pkt, &rt.network().packet_latency());
  EXPECT_GT(pkt->count(), 0u);

  // Controller metrics land in the same registry ("crc.*").
  const auto* power = rt.metrics().find_series("crc.rack_power_w");
  ASSERT_NE(power, nullptr);
  EXPECT_EQ(power, &rt.controller().power_series());
  EXPECT_FALSE(power->empty());

  const auto* net_counters = rt.metrics().find_counters("net");
  ASSERT_NE(net_counters, nullptr);
  EXPECT_GT(net_counters->get("net.packets_delivered"), 0u);

  // Unknown names stay absent (find does not create).
  EXPECT_EQ(rt.metrics().find_histogram("no.such.metric"), nullptr);

  // The unified dump carries every instrument registered above.
  const telemetry::Table table = rt.metrics_table();
  EXPECT_GE(table.num_rows(), rt.metrics().size());
}

TEST(FabricRuntime, StandaloneNetworkStillOwnsPrivateMetrics) {
  // Unit-test construction without a registry keeps working: the
  // network owns a private registry and its accessors stay live.
  rsf::sim::Simulator sim;
  fabric::RackParams p;
  p.width = 3;
  p.height = 3;
  fabric::Rack rack = fabric::build_grid(&sim, p);
  std::optional<SimTime> latency;
  rack.network->send_probe(0, 1, DataSize::bytes(1024),
                           [&](const fabric::ProbeResult& r) {
                             if (!r.failed) latency = r.completion_time();
                           });
  sim.run_until();
  ASSERT_TRUE(latency.has_value());
  EXPECT_GT(rack.network->packet_latency().count(), 0u);
  EXPECT_GT(rack.network->counters().get("net.probes"), 0u);
}

}  // namespace
}  // namespace rsf
