// FIG2 — reproduces Figure 2 of the paper.
//
// "An example of the adaptive rack-scale network operation. Initially,
// the rack is configured using a grid topology of two lanes per link.
// Internal indications are fed to the Closed Ring Control (CRC), that
// issues commands to the Physical Layer Primitives (PLP). These result
// in a torus topology running at one lane per link."
//
// Part A runs the conversion under live traffic and reports the fabric
// before/after: hop counts, latency, logical link widths, power.
// Part B sweeps the control epoch and reports the CRC's reaction time
// (trigger -> torus complete), the control-freshness ablation DESIGN.md
// calls out.
#include "bench_common.hpp"

namespace {

using namespace rsf;
using namespace rsf::sim::literals;
using phy::DataSize;
using sim::SimTime;

struct PhaseMetrics {
  double mean_pkt_us = 0;
  double p99_pkt_us = 0;
  double mean_hops = 0;
  int corner_hops = 0;
  double power_w = 0;
  std::size_t links = 0;
  int max_lanes = 0;
};

PhaseMetrics snapshot_phase(runtime::FabricRuntime& rt, SimTime window) {
  // Run a measurement window of uniform traffic and collect stats.
  workload::GeneratorConfig cfg;
  cfg.mean_interarrival = 30_us;
  cfg.horizon = rt.now() + window;
  cfg.seed = 1234 + static_cast<std::uint64_t>(rt.now().ps());
  cfg.first_flow_id = 1 + static_cast<fabric::FlowId>(rt.now().ps());
  // Small flows: the measurement probes hop-count latency, which is
  // what the conversion buys (bandwidth is reorganised, not added).
  cfg.sizes = workload::SizeDistribution::fixed_size(DataSize::kilobytes(2));
  auto& gen = rt.add_generator(workload::TrafficMatrix::uniform(rt.node_count()), cfg);
  auto& net = rt.network();
  const bench::NetSnapshot before = bench::NetSnapshot::of(net);
  gen.start(rt.now());
  rt.run_until(cfg.horizon + 5_ms);

  PhaseMetrics m;
  const telemetry::Histogram pkt_window = before.packets_since(net);
  m.mean_pkt_us = pkt_window.mean() * 1e-6;
  // Window p99, not cumulative: the torus phase's tail must not be
  // diluted by grid-phase samples still in the histogram.
  m.p99_pkt_us = pkt_window.p99() * 1e-6;
  m.mean_hops = before.hops_since(net).mean();
  const auto& params = rt.rack_params();
  m.corner_hops = rt.router().hop_count(rt.node_at(0, 0),
                                        rt.node_at(params.width - 1, params.height - 1));
  m.power_w = rt.total_power_watts();
  m.links = rt.plant().link_count();
  for (phy::LinkId id : rt.plant().link_ids()) {
    m.max_lanes = std::max(m.max_lanes, rt.plant().link(id).lane_count());
  }
  return m;
}

void part_a() {
  runtime::RuntimeConfig cfg;
  cfg.rack.width = 8;
  cfg.rack.height = 8;
  cfg.rack.lanes_per_cable = 2;
  cfg.rack.lanes_per_link = 2;  // "grid topology of two lanes per link"
  runtime::FabricRuntime rt(cfg);
  rt.start();

  const PhaseMetrics before = snapshot_phase(rt, 2_ms);

  // The internal indication: request the move (Part B shows the
  // autonomous trigger) and time its completion.
  const SimTime t0 = rt.now();
  SimTime t_done;
  core::TopologyPlanner::Report report;
  rt.controller().request_grid_to_torus([&](const core::TopologyPlanner::Report& r) {
    report = r;
    t_done = rt.now();
  });
  rt.run_until();

  const PhaseMetrics after = snapshot_phase(rt, 2_ms);
  rt.stop();
  rt.run_until();

  telemetry::Table table("Figure 2 — grid (2 lanes/link) -> torus (1 lane/link), 8x8 rack",
                         {"phase", "mean_pkt_us", "p99_pkt_us", "mean_hops", "corner_hops",
                          "links", "lanes/link", "power_w"});
  table.row()
      .cell("grid 2-lane")
      .cell(before.mean_pkt_us, 2)
      .cell(before.p99_pkt_us, 2)
      .cell(before.mean_hops, 2)
      .cell(before.corner_hops)
      .cell(static_cast<std::uint64_t>(before.links))
      .cell(before.max_lanes)
      .cell(before.power_w, 1);
  table.row()
      .cell("torus 1-lane")
      .cell(after.mean_pkt_us, 2)
      .cell(after.p99_pkt_us, 2)
      .cell(after.mean_hops, 2)
      .cell(after.corner_hops)
      .cell(static_cast<std::uint64_t>(after.links))
      .cell(after.max_lanes)
      .cell(after.power_w, 1);
  table.print();
  std::printf("Conversion: %d rows + %d cols closed, %d failures, %zu wrap links, "
              "actuation time %s\n",
              report.rows_closed, report.cols_closed, report.failures,
              report.wrap_links.size(), (t_done - t0).to_string().c_str());
}

void part_b() {
  telemetry::Table table("Figure 2b — CRC reaction time vs control epoch (autonomous trigger)",
                         {"epoch_us", "ring_circulation_us", "trigger_at_us",
                          "torus_done_us", "reaction_us"});
  for (double epoch_us : {50.0, 100.0, 250.0, 500.0, 1000.0}) {
    runtime::RuntimeConfig cfg;
    cfg.rack.width = 6;
    cfg.rack.height = 6;
    cfg.crc.epoch = sim::SimTime::microseconds(epoch_us);
    cfg.crc.enable_auto_torus = true;
    cfg.crc.torus_util_threshold = 0.25;
    cfg.crc.torus_trigger_epochs = 2;
    runtime::FabricRuntime rt(cfg);
    auto& sim = rt.sim();
    rt.start();

    // Sudden sustained max-distance load from t = 0.
    workload::GeneratorConfig gen_cfg;
    gen_cfg.mean_interarrival = 20_us;
    gen_cfg.horizon = 5_ms;
    gen_cfg.sizes = workload::SizeDistribution::fixed_size(DataSize::kilobytes(64));
    auto& gen = rt.add_generator(workload::TrafficMatrix::opposite(36), gen_cfg);
    gen.start();

    // Watch for the wrap links appearing (weak: observation only).
    SimTime done = SimTime::infinity();
    std::function<void()> poll = [&] {
      if (rt.plant().total_bypass_joints() >= 8 && done == SimTime::infinity()) {
        done = sim.now();
        return;
      }
      if (sim.now() < 10_ms) sim.schedule_weak_after(50_us, poll);
    };
    sim.schedule_weak_after(50_us, poll);
    rt.run_until(10_ms);
    rt.stop();
    rt.run_until();

    const auto ring_us =
        (sim::SimTime::nanoseconds(300) * std::int64_t{36}).us();
    table.row()
        .cell(epoch_us, 0)
        .cell(ring_us, 1)
        .cell(0.0, 0)
        .cell(done == SimTime::infinity() ? -1.0 : done.us(), 1)
        .cell(done == SimTime::infinity() ? -1.0 : done.us(), 1);
  }
  table.print();
  std::printf("Shape check: reaction time grows with the control epoch — fresher\n"
              "telemetry buys faster adaptation, at more control-ring traffic.\n");
}

}  // namespace

int main() {
  rsf::bench::print_header("FIG2", "Figure 2",
                           "CRC + PLP convert a 2-lane grid into a 1-lane torus in place");
  part_a();
  part_b();
  return 0;
}
