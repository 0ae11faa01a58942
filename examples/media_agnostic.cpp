// Media-agnostic operation — the paper's §2 design goal.
//
// "The specific underlying media is irrelevant. We only expect it to
// provide some subset of the Physical Layer Primitives that we define."
//
// This example runs the same CRC against two racks with different
// media capabilities:
//   * an optical fabric exposing every primitive, and
//   * an electrical backplane that cannot do physical-layer bypass
//     (no PLP #2) but still splits lanes and adapts FEC.
// The CRC issues the same requests to both; the electrical fabric
// rejects what its PHY cannot do and keeps everything else working —
// no code changes, just a different capability subset.
#include <cstdio>

#include "phy/ber_profile.hpp"
#include "runtime/runtime.hpp"

using namespace rsf;
using namespace rsf::sim::literals;

namespace {

void run_fabric(const char* name, phy::Medium medium, plp::PlpCapabilities caps) {
  runtime::RuntimeConfig cfg;
  cfg.rack.width = 4;
  cfg.rack.height = 4;
  cfg.rack.medium = medium;
  cfg.rack.plp_caps = caps;
  cfg.rack.fec = phy::FecScheme::kNone;
  cfg.crc.epoch = 100_us;
  cfg.crc.enable_adaptive_fec = true;
  runtime::FabricRuntime rt(cfg);
  rt.start();

  // Ask for the Figure-2 move: needs PLP #1 (split) and #2 (bypass).
  std::optional<core::TopologyPlanner::Report> report;
  rt.controller().request_grid_to_torus(
      [&](const core::TopologyPlanner::Report& r) { report = r; });
  rt.run_until(rt.now() + 5_ms);

  // Degrade a cable: needs PLP #4 (adaptive FEC) + #5 (stats).
  const phy::LinkId victim = *rt.topology().link_between(0, 1);
  const phy::CableId cable = rt.plant().link(victim).segments().front().cable;
  rt.plant().set_cable_ber(cable, 1e-5);
  rt.run_until(rt.now() + 2_ms);
  rt.stop();
  rt.run_until();

  std::printf("%-28s medium=%s\n", name, std::string(phy::to_string(medium)).c_str());
  if (report) {
    std::printf("  grid->torus : %d rows + %d cols closed, %d failures\n",
                report->rows_closed, report->cols_closed, report->failures);
  } else {
    std::printf("  grid->torus : still pending (should not happen)\n");
  }
  std::printf("  adaptive FEC: link 0-1 now %s (BER 1e-5)\n",
              std::string(phy::to_string(
                              rt.plant().link(*rt.topology().link_between(0, 1)).fec().scheme))
                  .c_str());
  std::printf("  PLP failures rejected by media: %llu bypass-join\n\n",
              static_cast<unsigned long long>(
                  rt.engine().counters().get("plp.failed.bypass-join")));
}

}  // namespace

int main() {
  std::printf("Same CRC, two media (paper §2: media agnostic)\n\n");

  run_fabric("optical (full PLP)", phy::Medium::kFiber, plp::PlpCapabilities::all());

  plp::PlpCapabilities electrical;
  electrical.bypass = false;  // copper backplane: no physical bypass
  run_fabric("electrical (no bypass)", phy::Medium::kCopper, electrical);

  std::printf("The electrical fabric keeps lane splitting, FEC adaptation and\n"
              "telemetry; only the bypass-dependent torus conversion degrades —\n"
              "and it degrades by *refusing*, not by breaking.\n");
  return 0;
}
