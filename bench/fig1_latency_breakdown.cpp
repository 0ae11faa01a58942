// FIG1 — reproduces Figure 1 of the paper.
//
// "The latency due to propagation of packets in the media vs. the
// latency due to packet traversing a layer 2 state-of-the-art cut
// through switch. We assume a switch every 2 meters. In the scale of
// a rack, the latency due to packet switching is dominant, and hence
// is bottlenecking scalability."
//
// We sweep end-to-end distance over a chain of nodes spaced 2 m apart
// and decompose a measured probe's latency into media propagation,
// switching pipeline, and serialization+FEC. The analytic columns come
// from the same models the simulator uses; the measured column is an
// actual packet pushed through the transport engine, verifying the two
// agree.
#include "bench_common.hpp"

namespace {

using namespace rsf;
using namespace rsf::sim::literals;
using phy::DataSize;

void run(bool cut_through) {
  const int kMaxNodes = 21;  // 0..20 -> up to 40 m
  runtime::RuntimeConfig cfg;
  cfg.shape = runtime::RackShape::kChain;
  cfg.nodes = kMaxNodes;
  cfg.rack.net_config.cut_through = cut_through;
  cfg.enable_crc = false;
  runtime::FabricRuntime rt(cfg);
  const auto& params = rt.rack_params();

  const DataSize probe = DataSize::bytes(1024);
  telemetry::Table table(
      std::string("Figure 1 — media vs switching latency (") +
          (cut_through ? "cut-through" : "store-and-forward") + " switches every 2 m)",
      {"distance_m", "hops", "media_ns", "switching_ns", "ser+fec_ns", "measured_total_ns",
       "switching_share_%"});

  for (int k = 1; k < kMaxNodes; ++k) {
    double measured_ns = 0;
    rt.network().send_probe(0, static_cast<phy::NodeId>(k), probe,
                            [&](const fabric::ProbeResult& r) {
                              if (!r.failed) measured_ns = r.completion_time().ns();
                            });
    rt.run_until();

    const double distance_m = 2.0 * k;
    const double media_ns = phy::propagation_delay(params.medium, distance_m).ns();
    // Every intermediate node is a switching element; both end NICs
    // also pay their pipeline.
    const double switching_ns =
        fabric::kSwitchLatency.ns() * (k - 1) + fabric::kNicLatency.ns() * 2;
    const phy::LogicalLink& l = rt.plant().link(*rt.topology().link_between(0, 1));
    // Cut-through pays serialization once plus a header per extra hop;
    // store-and-forward pays it on every hop.
    const double ser_once = l.serialization_delay(probe).ns() + l.fec().latency.ns();
    const double ser_header =
        l.serialization_delay(DataSize::bytes(64)).ns() + l.fec().latency.ns();
    const double ser_ns =
        cut_through ? ser_once + ser_header * (k - 1) : ser_once * k;
    const double share = 100.0 * switching_ns / measured_ns;

    table.row()
        .cell(distance_m, 1)
        .cell(k)
        .cell(media_ns, 1)
        .cell(switching_ns, 1)
        .cell(ser_ns, 1)
        .cell(measured_ns, 1)
        .cell(share, 1);
  }
  table.print();
}

}  // namespace

int main() {
  rsf::bench::print_header(
      "FIG1", "Figure 1",
      "switching dominates media latency at rack scale (switch every 2 m)");
  run(/*cut_through=*/true);
  run(/*cut_through=*/false);
  std::printf(
      "\nShape check: media grows 10 ns per 2 m hop while switching grows ~450 ns per\n"
      "hop — at 40 m the switching term should exceed media by >40x.\n");
  return 0;
}
