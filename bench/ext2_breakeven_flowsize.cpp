// EXT2 — the paper's §3.2 optimisation question, answered end to end.
//
// "The problem that arises in all reconfigurable fabrics is finding
// the minimum flow size for which reconfiguration is worth the cost."
//
// Part A: the closed-form break-even size as a function of the
// reconfiguration dead time (the knob real systems differ on most) —
// pure model, no simulation.
// Part B: the CRC flow scheduler faced with real flows on a loaded
// 6-node chain: its estimates, its decision, and the measured
// completion, showing the decision flips at the predicted size.
// Part C ablates the design choice DESIGN.md calls out: estimating
// the packet path with nominal vs measured (utilisation-discounted)
// bandwidth.
#include "bench_common.hpp"

namespace {

using namespace rsf;
using namespace rsf::sim::literals;
using phy::DataRate;
using phy::DataSize;
using sim::SimTime;

void part_a() {
  telemetry::Table table(
      "Break-even flow size vs reconfiguration cost (25G dedicated vs 5G available share)",
      {"reconfig_cost_us", "break_even_KB", "break_even_@50%share_KB"});
  for (double cost_us : {1.0, 10.0, 56.0, 100.0, 1000.0, 10000.0}) {
    // A loaded pair of lanes leaves ~5G available; the spare-lane
    // circuit gives a dedicated 25G.
    const auto heavy = core::break_even_size(DataRate::gbps(5), DataRate::gbps(25),
                                             SimTime::microseconds(cost_us));
    const auto light = core::break_even_size(DataRate::gbps(12.5), DataRate::gbps(25),
                                             SimTime::microseconds(cost_us));
    table.row()
        .cell(cost_us, 0)
        .cell(heavy ? heavy->byte_count() / 1e3 : -1.0, 1)
        .cell(light ? light->byte_count() / 1e3 : -1.0, 1);
  }
  table.print();
  std::printf("Shape check: one crossover, threshold linear in the reconfiguration cost\n"
              "and lower when the packet fabric is more congested.\n");
}

/// A 6-node storage chain with competing bulk traffic (the load the
/// scheduler must beat).
runtime::RuntimeConfig chain_config() {
  runtime::RuntimeConfig cfg;
  cfg.rack.width = 6;
  cfg.rack.height = 1;
  return cfg;
}

void add_background_load(runtime::FabricRuntime& rt) {
  for (fabric::FlowId i = 0; i < 3; ++i) {
    fabric::FlowSpec bg;
    bg.id = 900 + i;
    bg.src = 0;
    bg.dst = 5;
    bg.size = DataSize::megabytes(60);
    rt.network().start_flow(bg, nullptr);
  }
}

struct Measured {
  core::ScheduleDecision decision;
  double measured_ms = 0;
  bool used_circuit = false;
};

Measured run_flow(DataSize size) {
  runtime::FabricRuntime rt(chain_config());
  core::CircuitScheduler& sched = rt.controller().circuits();
  add_background_load(rt);
  rt.run_until(500_us);

  fabric::FlowSpec spec;
  spec.id = 1;
  spec.src = 0;
  spec.dst = 5;
  spec.size = size;
  Measured out;
  out.decision = sched.decide(spec);
  sched.submit(spec, [&](const fabric::FlowResult& r, bool circuit) {
    out.measured_ms = r.completion_time().ms();
    out.used_circuit = circuit;
  });
  rt.run_until();
  return out;
}

void part_b() {
  telemetry::Table table(
      "CRC scheduler decisions on a loaded 6-node chain (3 competing bulk flows)",
      {"flow_size", "est_packet_ms", "est_circuit_ms", "break_even_MB", "choice",
       "measured_ms"});
  for (double mb : {0.25, 0.5, 1.0, 4.0, 16.0, 64.0}) {
    const Measured m = run_flow(DataSize::megabytes(mb));
    table.row()
        .cell(DataSize::megabytes(mb).to_string())
        .cell(m.decision.est_packet_completion.ms(), 3)
        .cell(m.decision.est_circuit_completion.ms(), 3)
        .cell(m.decision.break_even ? m.decision.break_even->byte_count() / 1e6 : -1.0, 3)
        .cell(m.used_circuit ? "circuit" : "packet")
        .cell(m.measured_ms, 3);
  }
  table.print();
  std::printf("Shape check: the choice flips from packet to circuit once the flow size\n"
              "crosses the printed break-even, and the measured times agree with the\n"
              "chosen estimate's ordering.\n");
}

void part_c() {
  // Ablation: nominal-bandwidth estimation believes the packet fabric
  // is fast and never builds a circuit on a loaded path.
  telemetry::Table table("Ablation — nominal vs measured bandwidth in the decision",
                         {"flow_size", "measured_est_ms(load-aware)", "nominal_est_ms",
                          "load-aware_choice", "nominal_choice"});
  for (double mb : {4.0, 16.0, 64.0}) {
    runtime::FabricRuntime rt(chain_config());
    core::CircuitScheduler& sched = rt.controller().circuits();
    fabric::FlowSpec spec;
    spec.id = 1;
    spec.src = 0;
    spec.dst = 5;
    spec.size = DataSize::megabytes(mb);
    // Nominal = decide before any load exists (utilisation 0).
    const auto nominal = sched.decide(spec);
    add_background_load(rt);
    rt.run_until(500_us);
    const auto aware = sched.decide(spec);
    table.row()
        .cell(DataSize::megabytes(mb).to_string())
        .cell(aware.est_packet_completion.ms(), 3)
        .cell(nominal.est_packet_completion.ms(), 3)
        .cell(aware.use_circuit ? "circuit" : "packet")
        .cell(nominal.use_circuit ? "circuit" : "packet");
  }
  table.print();
  std::printf("Shape check: with nominal bandwidth the scheduler never reconfigures on a\n"
              "loaded fabric; PLP #5 measurements are what make the break-even usable.\n");
}

}  // namespace

int main() {
  rsf::bench::print_header("EXT2", "§3.2 minimum-flow-size question",
                           "reconfigure iff the flow exceeds the break-even size");
  part_a();
  part_b();
  part_c();
  return 0;
}
