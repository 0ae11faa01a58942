// EXT4 — PLP #4, adaptive forward error correction.
//
// The paper lists "adaptive forward error correction" as a Physical
// Layer Primitive and per-lane BER among the statistics the CRC prices
// links with. We subject a rack to a BER ramp (healthy 1e-12 up to a
// failing 1e-4) and compare static FEC choices against the CRC's
// adaptive policy on three axes: delivered goodput, retransmissions,
// and the latency overhead paid when the channel was still clean.
#include "bench_common.hpp"

#include "phy/ber_profile.hpp"

namespace {

using namespace rsf;
using namespace rsf::sim::literals;
using phy::DataSize;
using phy::FecScheme;
using sim::SimTime;

struct PolicyResult {
  double goodput_gbps = 0;
  std::uint64_t retransmits = 0;
  std::uint64_t corrupted = 0;
  double clean_pkt_us = 0;  // packet latency while the channel is clean
  std::string final_modes;
};

PolicyResult run_policy(bool adaptive, FecScheme static_scheme) {
  runtime::RuntimeConfig cfg;
  cfg.rack.width = 3;
  cfg.rack.height = 3;
  cfg.rack.fec = static_scheme;
  cfg.crc.epoch = 200_us;
  cfg.crc.enable_adaptive_fec = adaptive;
  runtime::FabricRuntime rt(cfg);
  auto& sim = rt.sim();

  std::vector<std::unique_ptr<phy::BerDriver>> drivers;
  for (std::size_t c = 0; c < rt.plant().cable_count(); ++c) {
    drivers.push_back(std::make_unique<phy::BerDriver>(
        &sim, &rt.plant(), static_cast<phy::CableId>(c),
        phy::ramp_ber(1e-12, 1e-4, 2_ms, 10_ms), 100_us));
    drivers.back()->start();
  }

  rt.start();

  workload::GeneratorConfig gen_cfg;
  gen_cfg.mean_interarrival = 100_us;
  gen_cfg.horizon = 15_ms;
  gen_cfg.sizes = workload::SizeDistribution::fixed_size(DataSize::kilobytes(64));
  auto& gen = rt.add_generator(workload::TrafficMatrix::uniform(9), gen_cfg);
  gen.start();

  // Sample clean-channel latency before the ramp starts.
  PolicyResult r;
  rt.run_until(2_ms);
  r.clean_pkt_us = rt.network().packet_latency().mean() * 1e-6;
  rt.run_until(40_ms);
  rt.stop();
  for (auto& d : drivers) d->stop();
  rt.run_until();

  r.goodput_gbps = gen.goodput_gbps();
  for (const auto& res : gen.results()) r.retransmits += res.retransmits;
  r.corrupted = rt.network().counters().get("net.frames_corrupted");
  std::map<std::string, int> modes;
  for (phy::LinkId id : rt.plant().link_ids()) {
    ++modes[std::string(phy::to_string(rt.plant().link(id).fec().scheme))];
  }
  for (const auto& [name, count] : modes) {
    if (!r.final_modes.empty()) r.final_modes += ", ";
    r.final_modes += name + "x" + std::to_string(count);
  }
  return r;
}

}  // namespace

int main() {
  rsf::bench::print_header("EXT4", "PLP #4 (adaptive FEC)",
                           "adaptive FEC tracks the best static mode at every BER");
  telemetry::Table table(
      "BER ramp 1e-12 -> 1e-4 over 8 ms, 3x3 rack, uniform 64KB flows",
      {"policy", "goodput_gbps", "retransmits", "frames_corrupted", "clean_pkt_us",
       "final_fec_modes"});
  struct Case {
    const char* name;
    bool adaptive;
    FecScheme scheme;
  };
  for (const Case& c : {Case{"static none", false, FecScheme::kNone},
                        Case{"static fire-code", false, FecScheme::kFireCode},
                        Case{"static rs-kr4", false, FecScheme::kRsKr4},
                        Case{"static rs-kp4", false, FecScheme::kRsKp4},
                        Case{"adaptive (CRC)", true, FecScheme::kNone}}) {
    const PolicyResult r = run_policy(c.adaptive, c.scheme);
    table.row()
        .cell(c.name)
        .cell(r.goodput_gbps, 3)
        .cell(r.retransmits)
        .cell(r.corrupted)
        .cell(r.clean_pkt_us, 3)
        .cell(r.final_modes);
  }
  table.print();
  std::printf(
      "Shape check: 'none' melts down at high BER (retransmit storm); 'rs-kp4' is\n"
      "clean but pays overhead+latency from the start (highest clean_pkt_us);\n"
      "adaptive starts light (clean latency ~ none) and ends at rs-kp4 with few\n"
      "retransmissions — tracking the best static mode at each point of the ramp.\n");
  return 0;
}
