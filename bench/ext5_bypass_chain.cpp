// EXT5 — PLP #2, high-speed bypass.
//
// "High speed bypass — connecting two links at the lowest possible
// physical level." The CRC's latency win comes from packets crossing
// intermediate nodes without touching their switching logic. We sweep
// the number of intermediate nodes k and measure one probe end to end:
// over switched hops, and over a bypass chain built from the same
// cables' spare lanes. The switched line grows ~450 ns per hop; the
// bypass line grows only ~35 ns per hop (media + bypass element).
#include "bench_common.hpp"

#include "core/reconfig.hpp"

namespace {

using namespace rsf;
using namespace rsf::sim::literals;
using phy::DataSize;
using phy::LinkId;

double probe_us(runtime::FabricRuntime& rt, phy::NodeId dst) {
  double out = -1;
  rt.network().send_probe(0, dst, DataSize::bytes(1024), [&](const fabric::ProbeResult& r) {
    if (!r.failed) out = r.completion_time().us();
  });
  rt.run_until();
  return out;
}

}  // namespace

int main() {
  rsf::bench::print_header("EXT5", "PLP #2 (high-speed bypass)",
                           "bypass makes end-to-end latency almost flat in path length");
  telemetry::Table table(
      "1024B probe latency across k intermediate nodes (2 m per hop)",
      {"intermediate_nodes", "switched_us", "bypass_us", "saving_us", "saving_per_node_ns"});

  for (int k = 1; k <= 15; k += (k < 4 ? 1 : 2)) {
    const int nodes = k + 2;
    runtime::RuntimeConfig cfg;
    cfg.shape = runtime::RackShape::kChain;
    cfg.nodes = nodes;
    cfg.enable_crc = false;
    runtime::FabricRuntime rt(cfg);
    const auto dst = static_cast<phy::NodeId>(nodes - 1);

    const double switched = probe_us(rt, dst);

    // Build the bypass chain from spare lanes (split each hop link).
    std::vector<LinkId> path;
    for (int i = 0; i + 1 < nodes; ++i) {
      path.push_back(*rt.topology().link_between(static_cast<phy::NodeId>(i),
                                                 static_cast<phy::NodeId>(i + 1)));
    }
    std::vector<LinkId> spares;
    core::split_many(&rt.engine(), path, 1, [&](auto outs) {
      for (auto& o : outs) {
        if (o) spares.push_back(o->spare);
      }
    });
    rt.run_until();
    std::optional<LinkId> circuit;
    core::chain_bypass(&rt.engine(), spares,
                       [&](std::optional<LinkId> l) { circuit = l; });
    rt.run_until();
    if (!circuit) continue;

    const double bypass = probe_us(rt, dst);
    table.row()
        .cell(k)
        .cell(switched, 3)
        .cell(bypass, 3)
        .cell(switched - bypass, 3)
        .cell((switched - bypass) * 1000.0 / k, 1);
  }
  table.print();
  std::printf("Shape check: the per-intermediate-node saving approaches the switch\n"
              "pipeline latency (~450 ns) minus the bypass joint cost (~25 ns); the\n"
              "bypass series stays nearly flat while the switched series climbs.\n");
  return 0;
}
