// Bulk transfers over CRC-scheduled circuits — §3.2's flow scheduling.
//
// The CRC "schedules flows according to the availability of PLPs": a
// flow big enough to repay the reconfiguration cost gets a dedicated
// physical-layer circuit (spare lanes split off every hop and chained
// with bypasses), everything else rides the packet fabric. This
// example submits a mixed batch and prints what the scheduler decided
// for each flow and why (the break-even math).
#include <cstdio>

#include "runtime/runtime.hpp"

using namespace rsf;
using namespace rsf::sim::literals;

int main() {
  runtime::RuntimeConfig cfg;
  cfg.rack.width = 8;
  cfg.rack.height = 1;  // a storage shelf: one long chain
  runtime::FabricRuntime rt(cfg);
  core::CircuitScheduler& sched = rt.controller().circuits();

  // Keep the packet fabric busy so circuits have something to beat.
  for (fabric::FlowId i = 0; i < 3; ++i) {
    fabric::FlowSpec bg;
    bg.id = 900 + i;
    bg.src = 0;
    bg.dst = 7;
    bg.size = phy::DataSize::megabytes(80);
    rt.network().start_flow(bg, nullptr);
  }
  rt.run_until(500_us);

  std::printf("%-10s %-14s %-14s %-12s %-8s %s\n", "size", "est_packet", "est_circuit",
              "break_even", "choice", "measured");
  const double sizes_mb[] = {0.064, 0.5, 2.0, 8.0, 32.0};
  fabric::FlowId id = 1;
  for (double mb : sizes_mb) {
    fabric::FlowSpec spec;
    spec.id = id++;
    spec.src = 0;
    spec.dst = 7;
    spec.size = phy::DataSize::megabytes(mb);
    const auto d = sched.decide(spec);
    sched.submit(spec, [d, size = spec.size](const fabric::FlowResult& r, bool circuit) {
      std::printf("%-10s %-14s %-14s %-12s %-8s %s\n", size.to_string().c_str(),
                  d.est_packet_completion.to_string().c_str(),
                  d.est_circuit_completion.to_string().c_str(),
                  d.break_even ? d.break_even->to_string().c_str() : "-",
                  circuit ? "circuit" : "packet", r.completion_time().to_string().c_str());
    });
    rt.run_until();  // one at a time so the printout reads in order
  }

  std::printf("\ncircuits built %llu, circuit flows %llu, packet flows %llu\n",
              static_cast<unsigned long long>(sched.circuits_built()),
              static_cast<unsigned long long>(sched.circuit_flows()),
              static_cast<unsigned long long>(sched.packet_flows()));
  std::printf("fabric restored: %d bypass joints, plant %s\n",
              rt.plant().total_bypass_joints(),
              rt.plant().validate().empty() ? "valid" : "INVALID");
  return 0;
}
