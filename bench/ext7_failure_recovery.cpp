// EXT7 — link health: failure detection and dark-lane self-healing.
//
// The CRC prices links by "link health" (§3.2) and PLP #5 exposes
// per-lane statistics for exactly this purpose. This bench kills a
// lane of a busy link mid-run and reports the millisecond-by-
// millisecond timeline for three fabrics:
//   static         : no CRC — traffic on the broken path blackholes
//                    until retries exhaust;
//   crc-prices     : the closed loop prices the dark link infinite and
//                    routes around it (degraded but alive);
//   crc-healing    : health manager additionally re-provisions the
//                    link from dark spare lanes (full capacity back).
#include "bench_common.hpp"

namespace {

using namespace rsf;
using namespace rsf::sim::literals;
using phy::DataSize;
using sim::SimTime;

struct Timeline {
  std::vector<double> p99_us_per_ms;  // packet p99 per 1 ms bucket
  std::uint64_t failed_flows = 0;
  std::uint64_t reroute_waits = 0;
  double recovery_ms = -1;  // when a full-width 0-1 link was back
};

Timeline run_mode(bool use_crc, bool healing) {
  runtime::RuntimeConfig cfg;
  cfg.rack.width = 4;
  cfg.rack.height = 4;
  cfg.rack.lanes_per_cable = 4;  // dark spares available
  cfg.rack.lanes_per_link = 2;
  cfg.enable_crc = use_crc;
  cfg.crc.epoch = 100_us;
  cfg.crc.enable_health_manager = healing;
  runtime::FabricRuntime rt(cfg);
  auto& sim = rt.sim();
  rt.start();

  workload::GeneratorConfig gen_cfg;
  gen_cfg.mean_interarrival = 60_us;
  gen_cfg.horizon = 12_ms;
  gen_cfg.sizes = workload::SizeDistribution::fixed_size(DataSize::kilobytes(32));
  auto& gen = rt.add_generator(workload::TrafficMatrix::uniform(16), gen_cfg);
  gen.start();

  // Kill a lane of the (0,0)-(1,0) link at t = 4 ms.
  sim.schedule_at(4_ms, [&rt] {
    const auto victim = rt.topology().link_between(0, 1);
    if (victim) {
      rt.plant().fail_lane(
          phy::LaneRef{rt.plant().link(*victim).segments().front().cable, 0});
    }
  });

  Timeline tl;
  // Millisecond buckets of packet p99 (weak sampling loop).
  std::function<void()> sample = [&sim, &rt, &tl, &sample] {
    // Bucket p99 approximated from the cumulative histogram delta via
    // a fresh histogram would need full samples; report cumulative p99
    // trend instead (monotone under degradation, relaxes on recovery).
    tl.p99_us_per_ms.push_back(rt.network().packet_latency().p99() * 1e-6);
    if (sim.now() < 12_ms) sim.schedule_weak_after(1_ms, sample);
  };
  sim.schedule_weak_after(1_ms, sample);

  // Detect recovery: full-width ready link between 0 and 1 after the
  // failure instant.
  std::function<void()> watch = [&sim, &rt, &tl, &watch] {
    if (sim.now() > 4_ms && tl.recovery_ms < 0) {
      const auto l = rt.topology().link_between(0, 1);
      if (l && rt.plant().link(*l).lane_count() == 2 && rt.plant().link(*l).ready() &&
          rt.plant().failed_lanes_of_link(*l).empty()) {
        tl.recovery_ms = sim.now().ms();
      }
    }
    if (sim.now() < 12_ms) sim.schedule_weak_after(100_us, watch);
  };
  sim.schedule_weak_after(100_us, watch);

  rt.run_until(15_ms);
  rt.stop();
  rt.run_until();

  tl.failed_flows = rt.network().flows_failed();
  tl.reroute_waits = rt.network().counters().get("net.reroute_waits");
  return tl;
}

}  // namespace

int main() {
  rsf::bench::print_header("EXT7", "§3.2 link health",
                           "the fabric heals a hard lane failure from dark spares");
  telemetry::Table table("Lane failure at t=4ms on a busy 4x4 rack (uniform load)",
                         {"fabric", "failed_flows", "reroute_waits",
                          "full_width_back_ms", "p99_us@3ms", "p99_us@12ms"});
  struct Mode {
    const char* name;
    bool crc;
    bool heal;
  };
  for (const Mode& m : {Mode{"static", false, false}, Mode{"crc-prices", true, false},
                        Mode{"crc-healing", true, true}}) {
    const Timeline tl = run_mode(m.crc, m.heal);
    table.row()
        .cell(m.name)
        .cell(tl.failed_flows)
        .cell(tl.reroute_waits)
        .cell(tl.recovery_ms, 2)
        .cell(tl.p99_us_per_ms.size() > 2 ? tl.p99_us_per_ms[2] : -1.0, 2)
        .cell(!tl.p99_us_per_ms.empty() ? tl.p99_us_per_ms.back() : -1.0, 2);
  }
  table.print();
  std::printf(
      "Shape check: only 'crc-healing' reports a full-width recovery time (~one\n"
      "epoch + provision time after the failure). 'static' dimension-less routing\n"
      "still detours via min-cost but keeps the broken link priced attractive;\n"
      "'crc-prices' prices it out. Flow failures should be zero for both CRC modes.\n");
  return 0;
}
