// Quickstart: build an adaptive rack, start the Closed Ring Control,
// push traffic through it, and read the statistics back.
//
//   $ ./build/examples/quickstart
//
// Walks the whole public API surface in one page: the FabricRuntime
// facade, the PLP engine, the CRC controller, flows, probes, and the
// unified telemetry registry.
#include <cstdio>

#include "runtime/runtime.hpp"

using namespace rsf;
using namespace rsf::sim::literals;

int main() {
  // 1. One RuntimeConfig wires the whole stack: a simulated clock and
  //    a 4x4 rack — grid topology, every cable has 2 lanes of 25G,
  //    nodes 2 m apart, RS(528,514) FEC — plus the Closed Ring
  //    Control: telemetry circulates the control ring every epoch,
  //    prices every link, and publishes the prices to the router so
  //    forwarding is cost-aware.
  runtime::RuntimeConfig cfg;
  cfg.shape = runtime::RackShape::kGrid;
  cfg.rack.width = 4;
  cfg.rack.height = 4;
  cfg.crc.epoch = 100_us;
  runtime::FabricRuntime rt(cfg);
  std::printf("rack: %u nodes, %zu links, %.1f W\n", rt.node_count(),
              rt.plant().link_count(), rt.total_power_watts());

  // 2. Arm the control loop.
  rt.start();

  // 3. A latency probe: one 1 KB packet corner to corner.
  rt.network().send_probe(rt.node_at(0, 0), rt.node_at(3, 3), phy::DataSize::bytes(1024),
                          [](const fabric::ProbeResult& r) {
                            std::printf("probe: %s over %d hops (%s)\n",
                                        r.completion_time().to_string().c_str(), r.hops,
                                        r.failed ? "dropped" : "delivered");
                          });

  // 4. A 1 MB flow with a completion callback.
  fabric::FlowSpec flow;
  flow.id = 1;
  flow.src = rt.node_at(0, 0);
  flow.dst = rt.node_at(3, 3);
  flow.size = phy::DataSize::megabytes(1);
  rt.network().start_flow(flow, [](const fabric::FlowResult& r) {
    std::printf("flow: %s in %s (%llu packets, %llu retransmits)\n",
                r.spec.size.to_string().c_str(), r.completion_time().to_string().c_str(),
                static_cast<unsigned long long>(r.packets),
                static_cast<unsigned long long>(r.retransmits));
  });

  // 5. Issue a PLP command directly: split a link into two halves.
  const phy::LinkId some_link = rt.plant().link_ids().front();
  rt.engine().submit(plp::SplitCommand{some_link, 1}, [](const plp::PlpResult& r) {
    std::printf("plp split: %s -> created links %u and %u\n", r.ok ? "ok" : "failed",
                r.created.size() == 2 ? r.created[0] : 0,
                r.created.size() == 2 ? r.created[1] : 0);
  });

  // 6. Run the simulation until everything completes.
  rt.run_until(10_ms);
  rt.stop();
  rt.run_until();

  // 7. Telemetry: every component published into the runtime's
  //    registry, so one lookup (or one table) covers the whole rack.
  std::printf("packet latency: %s\n",
              rt.network().packet_latency().summary_time().c_str());
  std::printf("crc: %llu epochs, last rack power %.1f W\n",
              static_cast<unsigned long long>(rt.controller().epochs_completed()),
              rt.controller().last_snapshot()
                  ? rt.controller().last_snapshot()->rack_power_watts
                  : 0.0);
  rt.metrics_table().print();
  return 0;
}
