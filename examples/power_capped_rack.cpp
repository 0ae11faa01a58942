// Power-capped rack — the paper's §2 power constraint in action.
//
// The rack starts over its power budget; the CRC sheds lanes (PLP #1
// split + PLP #3 off) until it fits, then restores capacity when load
// spikes and the budget allows. This example prints the power timeline
// so you can watch the control loop settle.
#include <cstdio>

#include "runtime/runtime.hpp"

using namespace rsf;
using namespace rsf::sim::literals;

int main() {
  // Build without the controller first to read the uncapped draw, then
  // the real run with the cap set 15% below it. Both racks are wired
  // identically from the same config.
  runtime::RuntimeConfig cfg;
  cfg.rack.width = 6;
  cfg.rack.height = 6;
  cfg.enable_crc = false;
  const double uncapped = runtime::FabricRuntime(cfg).total_power_watts();

  cfg.enable_crc = true;
  cfg.crc.epoch = 100_us;
  cfg.crc.enable_power_manager = true;
  cfg.crc.power.cap_watts = uncapped * 0.85;  // 15% cut
  cfg.crc.power.max_ops_per_epoch = 3;
  runtime::FabricRuntime rt(cfg);
  std::printf("rack power %.1f W, cap %.1f W (-15%%)\n\n", uncapped,
              cfg.crc.power.cap_watts);
  rt.start();

  // Light background load while the manager sheds.
  workload::GeneratorConfig gen_cfg;
  gen_cfg.mean_interarrival = 150_us;
  gen_cfg.horizon = 10_ms;
  gen_cfg.sizes = workload::SizeDistribution::fixed_size(phy::DataSize::kilobytes(32));
  auto& gen = rt.add_generator(workload::TrafficMatrix::uniform(36), gen_cfg);
  gen.start();
  rt.run_until(12_ms);
  rt.stop();
  rt.run_until();

  std::printf("time_ms  rack_power_w\n");
  sim::SimTime next_print = sim::SimTime::zero();
  for (const auto& sample : rt.controller().power_series().samples()) {
    if (sample.time < next_print) continue;
    std::printf("%7.2f  %8.1f%s\n", sample.time.ms(), sample.value,
                sample.value <= cfg.crc.power.cap_watts ? "" : "  (over cap)");
    next_print = sample.time + 500_us;
  }

  std::printf("\nlanes shed: %llu, restored: %llu, final power %.1f W (cap %.1f W)\n",
              static_cast<unsigned long long>(rt.controller().power_manager().sheds()),
              static_cast<unsigned long long>(rt.controller().power_manager().restores()),
              rt.total_power_watts(), cfg.crc.power.cap_watts);
  std::printf("traffic: %llu flows, %llu failed, goodput %.2f Gbps\n",
              static_cast<unsigned long long>(gen.flows_generated()),
              static_cast<unsigned long long>(rt.network().flows_failed()),
              gen.goodput_gbps());
  return 0;
}
