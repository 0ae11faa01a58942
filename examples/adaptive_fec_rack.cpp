// Adaptive FEC under lane degradation — PLP #4 driven by the CRC.
//
// A cable's bit error rate climbs four decades over a few
// milliseconds (thermal drift, ageing, a marginal connector). The CRC
// watches per-lane statistics (PLP #5) on the closed control ring and
// walks the link up the FEC ladder exactly as far as the target frame
// loss requires. This example prints each mode change as it happens.
#include <cstdio>

#include "phy/ber_profile.hpp"
#include "runtime/runtime.hpp"

using namespace rsf;
using namespace rsf::sim::literals;

int main() {
  runtime::RuntimeConfig cfg;
  cfg.rack.width = 3;
  cfg.rack.height = 3;
  cfg.rack.fec = phy::FecScheme::kNone;  // start with the cheapest mode
  cfg.crc.epoch = 200_us;
  cfg.crc.enable_adaptive_fec = true;
  runtime::FabricRuntime rt(cfg);
  auto& sim = rt.sim();

  // Degrade the cable between nodes 0 and 1.
  const phy::LinkId victim = *rt.topology().link_between(0, 1);
  const phy::CableId cable = rt.plant().link(victim).segments().front().cable;
  phy::BerDriver ber(&sim, &rt.plant(), cable, phy::ramp_ber(1e-12, 1e-4, 1_ms, 9_ms),
                     100_us);
  ber.start();

  rt.start();

  // Watch the victim link's mode.
  std::printf("time_ms  ber        fec_mode   post_fec_ber\n");
  phy::FecScheme last = phy::FecScheme::kNone;
  std::function<void()> watch = [&] {
    if (rt.plant().has_link(victim)) {
      const auto& l = rt.plant().link(victim);
      if (l.fec().scheme != last || sim.now() == sim::SimTime::zero()) {
        last = l.fec().scheme;
        std::printf("%7.2f  %.2e  %-9s  %.2e\n", sim.now().ms(), l.worst_pre_fec_ber(),
                    std::string(phy::to_string(last)).c_str(), l.post_fec_ber());
      }
    }
    if (sim.now() < 12_ms) sim.schedule_after(50_us, watch);
  };
  sim.schedule_at(sim::SimTime::zero(), watch);

  // Keep traffic flowing through the degradation.
  workload::GeneratorConfig gen_cfg;
  gen_cfg.mean_interarrival = 200_us;
  gen_cfg.horizon = 12_ms;
  gen_cfg.sizes = workload::SizeDistribution::fixed_size(phy::DataSize::kilobytes(64));
  auto& gen = rt.add_generator(workload::TrafficMatrix::uniform(9), gen_cfg);
  gen.start();

  rt.run_until(15_ms);
  ber.stop();
  rt.stop();
  rt.run_until();

  std::uint64_t retx = 0;
  for (const auto& r : gen.results()) retx += r.retransmits;
  std::printf("\n%llu flows, %llu retransmits, goodput %.2f Gbps, %llu FEC changes\n",
              static_cast<unsigned long long>(gen.flows_generated()),
              static_cast<unsigned long long>(retx), gen.goodput_gbps(),
              static_cast<unsigned long long>(
                  rt.controller().fec_adapter().changes_submitted()));
  return 0;
}
