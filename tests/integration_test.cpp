// End-to-end scenarios across all modules, driven through the
// FabricRuntime facade: the paper's Figure 2 move under live traffic,
// adaptive vs static comparisons, and circuit reservation semantics.
#include <gtest/gtest.h>

#include <optional>

#include "phy/ber_profile.hpp"
#include "runtime/runtime.hpp"

namespace rsf {
namespace {

using phy::DataSize;
using phy::LinkId;
using rsf::sim::SimTime;
using runtime::FabricRuntime;
using runtime::RuntimeConfig;
using namespace rsf::sim::literals;

TEST(Integration, Figure2GridToTorusUnderLiveTraffic) {
  RuntimeConfig cfg;
  cfg.rack.width = 6;
  cfg.rack.height = 6;
  FabricRuntime rt(cfg);
  rt.start();

  // Live background traffic across the conversion.
  workload::GeneratorConfig gen_cfg;
  gen_cfg.mean_interarrival = 100_us;
  gen_cfg.horizon = 10_ms;
  gen_cfg.sizes = workload::SizeDistribution::fixed_size(DataSize::kilobytes(32));
  auto& gen = rt.add_generator(workload::TrafficMatrix::uniform(36), gen_cfg);
  gen.start();

  const int hops_before = rt.router().hop_count(rt.node_at(0, 0), rt.node_at(5, 5));
  EXPECT_EQ(hops_before, 10);

  std::optional<core::TopologyPlanner::Report> report;
  rt.sim().schedule_at(1_ms, [&] {
    rt.controller().request_grid_to_torus(
        [&](const core::TopologyPlanner::Report& r) { report = r; });
  });
  rt.run_until();
  rt.stop();
  rt.run_until();

  ASSERT_TRUE(report.has_value());
  EXPECT_EQ(report->failures, 0);
  EXPECT_EQ(report->wrap_links.size(), 12u);
  // Hop count between far corners roughly halves (paper Figure 2's
  // point: torus halves worst-case distance within the lane budget).
  const int hops_after = rt.router().hop_count(rt.node_at(0, 0), rt.node_at(5, 5));
  EXPECT_LE(hops_after, hops_before / 2 + 1);
  // No traffic was lost for good: every generated flow completed.
  EXPECT_EQ(rt.network().flows_failed(), 0u);
  EXPECT_EQ(gen.results().size(), gen.flows_generated());
  EXPECT_TRUE(rt.plant().validate().empty());
}

TEST(Integration, TorusConversionPreservesLanePowerBudget) {
  // Figure 2: "torus topology running at one lane per link" — the
  // conversion must not light additional lanes.
  RuntimeConfig cfg;
  cfg.rack.width = 4;
  cfg.rack.height = 4;
  FabricRuntime rt(cfg);
  const double power_before = rt.plant().total_power_watts();

  std::optional<core::TopologyPlanner::Report> report;
  rt.controller().request_grid_to_torus(
      [&](const core::TopologyPlanner::Report& r) { report = r; });
  rt.run_until();
  ASSERT_TRUE(report && report->failures == 0);

  // Same lanes up, plus only the bypass elements.
  const double power_after = rt.plant().total_power_watts();
  const double bypass_w = phy::kBypassPowerW * rt.plant().total_bypass_joints();
  EXPECT_NEAR(power_after, power_before + bypass_w, 1e-6);
  // Fewer logical links than a native torus would need ports for:
  // switching-port count drops (that is the power win of PLP #2).
  EXPECT_GT(rt.plant().total_bypass_joints(), 0);
}

TEST(Integration, LatencyBoundMapReduceFasterOnTorus) {
  // The torus conversion reorganises capacity (same lanes, shorter
  // paths); it cannot add bandwidth. A *latency-bound* shuffle (small
  // transfers, completion dominated by hop count) therefore speeds up,
  // while a bandwidth-bound one roughly ties — EXT1 shows both.
  const auto run_shuffle = [](bool convert) {
    RuntimeConfig cfg;
    cfg.rack.width = 6;
    cfg.rack.height = 6;
    // The paper's architecture keeps the CRC loop running: congestion
    // prices spread the shuffle across the torus's path diversity
    // (without them, deterministic single-path routing would hotspot
    // the one-lane links and squander the conversion).
    cfg.crc.epoch = 50_us;
    FabricRuntime rt(cfg);
    rt.start();
    if (convert) {
      bool done = false;
      rt.controller().request_grid_to_torus(
          [&](const core::TopologyPlanner::Report&) { done = true; });
      rt.run_until(rt.now() + 10_ms);
      EXPECT_TRUE(done);
    }
    workload::ShuffleConfig shuffle_cfg;
    // Mappers on the top row, reducers on the bottom row: max-distance
    // traffic, the case wraparounds help most.
    for (int x = 0; x < 6; ++x) {
      shuffle_cfg.mappers.push_back(rt.node_at(x, 0));
      shuffle_cfg.reducers.push_back(rt.node_at(x, 5));
    }
    shuffle_cfg.bytes_per_pair = DataSize::kilobytes(4);
    shuffle_cfg.start = rt.now();
    auto& job = rt.add_shuffle(shuffle_cfg);
    std::optional<workload::ShuffleResult> result;
    job.run([&](const workload::ShuffleResult& r) { result = r; });
    rt.run_until();
    rt.stop();
    EXPECT_TRUE(result.has_value());
    EXPECT_EQ(result->failed, 0u);
    // The torus run must also show the halved path lengths.
    if (convert) {
      EXPECT_LT(rt.network().hop_counts().mean(), 5.0);
    }
    return result->job_completion;
  };
  const SimTime grid = run_shuffle(false);
  const SimTime torus = run_shuffle(true);
  EXPECT_LT(torus, grid);
}

TEST(Integration, ReservedCircuitInvisibleToOtherTraffic) {
  RuntimeConfig cfg;
  cfg.rack.width = 5;
  cfg.rack.height = 1;
  cfg.enable_crc = false;
  FabricRuntime rt(cfg);

  // Hand-build a circuit 0 -> 4 and reserve it for flow 42.
  std::vector<LinkId> spares;
  std::vector<LinkId> path;
  for (int x = 0; x + 1 < 5; ++x) {
    path.push_back(*rt.topology().link_between(static_cast<phy::NodeId>(x),
                                               static_cast<phy::NodeId>(x + 1)));
  }
  core::split_many(&rt.engine(), path, 1, [&](auto outs) {
    for (auto& o : outs) spares.push_back(o->spare);
  });
  rt.run_until();
  std::optional<LinkId> circuit;
  core::chain_bypass(&rt.engine(), spares,
                     [&](std::optional<LinkId> l) { circuit = l; });
  rt.run_until();
  ASSERT_TRUE(circuit.has_value());
  rt.plant().set_reservation(*circuit, 42);

  // Public routing 0 -> 4 must not use the reserved direct link.
  const auto public_path = rt.router().path(0, 4);
  EXPECT_EQ(public_path.size(), 4u);
  for (LinkId id : public_path) EXPECT_NE(id, *circuit);

  // The owning flow crosses in one hop.
  fabric::FlowSpec spec;
  spec.id = 42;
  spec.src = 0;
  spec.dst = 4;
  spec.size = DataSize::kilobytes(64);
  std::optional<fabric::FlowResult> result;
  rt.network().start_flow(spec, [&](const fabric::FlowResult& r) { result = r; });
  rt.run_until();
  ASSERT_TRUE(result && !result->failed);
  // All its packets took the 1-hop circuit.
  EXPECT_EQ(rt.network().link_packets(*circuit), result->packets);
}

TEST(Integration, AdaptiveFecKeepsGoodputUnderDegradation) {
  // BER ramp on every cable; adaptive CRC vs a static no-FEC fabric.
  const auto run = [](bool adaptive) {
    RuntimeConfig cfg;
    cfg.rack.width = 3;
    cfg.rack.height = 3;
    cfg.rack.fec = phy::FecScheme::kNone;
    cfg.crc.epoch = 200_us;
    cfg.crc.enable_adaptive_fec = adaptive;
    FabricRuntime rt(cfg);
    std::vector<std::unique_ptr<phy::BerDriver>> drivers;
    for (std::size_t c = 0; c < rt.plant().cable_count(); ++c) {
      drivers.push_back(std::make_unique<phy::BerDriver>(
          &rt.sim(), &rt.plant(), static_cast<phy::CableId>(c),
          phy::ramp_ber(1e-12, 3e-5, 500_us, 2_ms), 100_us));
      drivers.back()->start();
    }
    rt.start();

    workload::GeneratorConfig gen_cfg;
    gen_cfg.mean_interarrival = 200_us;
    gen_cfg.horizon = 5_ms;
    gen_cfg.sizes = workload::SizeDistribution::fixed_size(DataSize::kilobytes(64));
    auto& gen = rt.add_generator(workload::TrafficMatrix::uniform(9), gen_cfg);
    gen.start();
    rt.run_until(20_ms);
    rt.stop();
    for (auto& d : drivers) d->stop();
    rt.run_until();
    std::uint64_t retx = 0;
    for (const auto& r : gen.results()) retx += r.retransmits;
    return retx;
  };
  const std::uint64_t static_retx = run(false);
  const std::uint64_t adaptive_retx = run(true);
  // Adaptive FEC absorbs the BER ramp; the static fabric pays in
  // retransmissions.
  EXPECT_LT(adaptive_retx, static_retx / 2 + 1);
}

TEST(Integration, DeterministicEndToEnd) {
  const auto run = [] {
    RuntimeConfig cfg;
    cfg.rack.width = 4;
    cfg.rack.height = 4;
    cfg.crc.epoch = 100_us;
    FabricRuntime rt(cfg);
    rt.start();
    workload::GeneratorConfig gen_cfg;
    gen_cfg.mean_interarrival = 50_us;
    gen_cfg.horizon = 2_ms;
    auto& gen = rt.add_generator(workload::TrafficMatrix::uniform(16), gen_cfg);
    gen.start();
    rt.run_until(5_ms);
    rt.stop();
    rt.run_until();
    return std::make_pair(rt.sim().executed(), rt.network().packet_latency().mean());
  };
  const auto a = run();
  const auto b = run();
  EXPECT_EQ(a.first, b.first);
  EXPECT_DOUBLE_EQ(a.second, b.second);
}

}  // namespace
}  // namespace rsf
