// EXT3 — the paper's power-budget constraint (§2, §1).
//
// "Rack-scale systems inherit the power budget of a traditional rack,
// and [power] is factored into our proposed architecture."
//
// The CRC's power manager sheds lanes (PLP #1 split + PLP #3 off) when
// the rack exceeds a cap and restores them under demand pressure. We
// sweep the cap and report achieved power, lanes shed, and what the
// degradation costs in goodput and tail latency — the graceful-
// degradation curve a hard budget demands.
#include "bench_common.hpp"

namespace {

using namespace rsf;
using namespace rsf::sim::literals;
using phy::DataSize;
using sim::SimTime;

struct CapResult {
  double cap_w = 0;
  double achieved_w = 0;
  std::uint64_t lanes_shed = 0;
  double goodput_gbps = 0;
  double p99_us = 0;
  std::uint64_t failed = 0;
};

runtime::RuntimeConfig rack_config() {
  runtime::RuntimeConfig cfg;
  cfg.rack.width = 6;
  cfg.rack.height = 6;
  return cfg;
}

CapResult run_cap(double cap_fraction) {
  // Uncapped draw of the identical rack (no controller) sets the cap.
  runtime::RuntimeConfig probe = rack_config();
  probe.enable_crc = false;
  const double uncapped = runtime::FabricRuntime(probe).total_power_watts();

  runtime::RuntimeConfig cfg = rack_config();
  cfg.crc.epoch = 100_us;
  cfg.crc.enable_power_manager = true;
  cfg.crc.power.cap_watts = cap_fraction >= 1.0 ? 1e18 : uncapped * cap_fraction;
  cfg.crc.power.max_ops_per_epoch = 4;
  runtime::FabricRuntime rt(cfg);
  rt.start();

  workload::GeneratorConfig gen_cfg;
  gen_cfg.mean_interarrival = 60_us;
  gen_cfg.horizon = 8_ms;
  gen_cfg.sizes = workload::SizeDistribution::fixed_size(DataSize::kilobytes(64));
  auto& gen = rt.add_generator(workload::TrafficMatrix::uniform(36), gen_cfg);
  gen.start();
  rt.run_until(20_ms);
  rt.stop();
  rt.run_until();

  auto& crc = rt.controller();
  CapResult r;
  r.cap_w = cfg.crc.power.cap_watts >= 1e18 ? uncapped : cfg.crc.power.cap_watts;
  // Time-weighted power over the steady half of the run.
  r.achieved_w = crc.power_series().time_weighted_mean(8_ms, 20_ms, uncapped);
  r.lanes_shed = crc.power_manager().sheds() - crc.power_manager().restores();
  const auto m = rsf::bench::collect(gen, rt.network());
  r.goodput_gbps = m.goodput_gbps;
  r.p99_us = m.fct_p99_us;
  r.failed = m.failed;
  return r;
}

}  // namespace

int main() {
  rsf::bench::print_header("EXT3", "the §2 power-budget constraint",
                           "a hard cap degrades bandwidth gracefully via lane shedding");
  telemetry::Table table("Power-capped operation, 6x6 rack under uniform load",
                         {"cap", "cap_w", "achieved_w", "net_lanes_shed", "goodput_gbps",
                          "fct_p99_us", "flows_failed"});
  for (double f : {1.0, 0.95, 0.9, 0.8, 0.7}) {
    const CapResult r = run_cap(f);
    table.row()
        .cell(f >= 1.0 ? "none" : std::to_string(static_cast<int>(f * 100)) + "%")
        .cell(r.cap_w, 1)
        .cell(r.achieved_w, 1)
        .cell(r.lanes_shed)
        .cell(r.goodput_gbps, 3)
        .cell(r.p99_us, 1)
        .cell(r.failed);
  }
  table.print();
  std::printf("Shape check: achieved power tracks the cap; tighter caps shed more lanes\n"
              "and trade goodput / tail latency, with no flow failures (graceful).\n");
  return 0;
}
