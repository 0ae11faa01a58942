// EXT6 — §3.2 price-tag routing under a hotspot.
//
// The CRC "uses per-link price tags, with respect to metrics such as
// latency, congestion, link health etc." We aim a hotspot at one node
// of a 6x6 torus and compare:
//   dimension-order    : the static baseline (no prices at all);
//   min-cost unloaded  : static shortest-latency paths;
//   CRC latency-only   : prices = latency (ablation: no congestion term);
//   CRC balanced       : latency + congestion + health prices.
// Congestion-aware prices spread flows around the saturated links,
// which shows up in the P99 and in goodput.
#include "bench_common.hpp"

namespace {

using namespace rsf;
using namespace rsf::sim::literals;
using phy::DataSize;
using sim::SimTime;

struct Mode {
  const char* name;
  fabric::RoutingPolicy policy;
  bool crc;
  core::PriceWeights weights;
};

rsf::bench::RunMetrics run_mode(const Mode& mode) {
  runtime::RuntimeConfig cfg;
  cfg.shape = runtime::RackShape::kTorus;
  cfg.rack.width = 6;
  cfg.rack.height = 6;
  cfg.rack.routing = mode.policy;
  cfg.enable_crc = mode.crc;
  cfg.crc.epoch = 100_us;
  cfg.crc.weights = mode.weights;
  runtime::FabricRuntime rt(cfg);
  rt.start();

  workload::GeneratorConfig gen_cfg;
  gen_cfg.mean_interarrival = 12_us;
  gen_cfg.horizon = 8_ms;
  gen_cfg.sizes = workload::SizeDistribution::heavy_tail(1.3, 4e3, 5e5);
  gen_cfg.seed = 99;
  auto& gen = rt.add_generator(
      workload::TrafficMatrix::hotspot(36, /*hot_node=*/14, /*hot_fraction=*/0.5), gen_cfg);
  gen.start();
  rt.run_until(40_ms);
  rt.stop();
  rt.run_until();
  return rsf::bench::collect(gen, rt.network());
}

}  // namespace

int main() {
  rsf::bench::print_header("EXT6", "§3.2 price-tag routing",
                           "congestion-aware prices beat static routing under hotspots");
  telemetry::Table table(
      "Hotspot (50% of demand -> node 14) on a 6x6 torus, heavy-tailed flows",
      {"routing", "goodput_gbps", "fct_p50_us", "fct_p99_us", "pkt_p99_us", "mean_hops",
       "retransmits"});
  const Mode modes[] = {
      {"dimension-order", fabric::RoutingPolicy::kDimensionOrder, false, {}},
      {"min-cost unloaded", fabric::RoutingPolicy::kMinCost, false, {}},
      {"crc latency-only", fabric::RoutingPolicy::kMinCost, true,
       core::PriceWeights::latency_only()},
      {"crc balanced", fabric::RoutingPolicy::kMinCost, true,
       core::PriceWeights::balanced()},
  };
  for (const Mode& mode : modes) {
    const auto m = run_mode(mode);
    table.row()
        .cell(mode.name)
        .cell(m.goodput_gbps, 3)
        .cell(m.fct_p50_us, 1)
        .cell(m.fct_p99_us, 1)
        .cell(m.pkt_p99_us, 1)
        .cell(m.mean_hops, 2)
        .cell(m.retransmits);
  }
  table.print();
  std::printf("Shape check: 'crc balanced' should post the best P99 (it detours around\n"
              "the hotspot's saturated links at the cost of slightly longer paths);\n"
              "'crc latency-only' ablates the congestion term and behaves like static\n"
              "min-cost routing.\n");
  return 0;
}
