// Multi-rack quickstart: one page from zero to a 3-rack fleet.
//
// Three independently configured racks — an adaptive 4x4 grid, a
// native 4x4 torus baseline, and an 8-node storage ring — are joined
// by spine links into a line (rack0 - rack1 - rack2), all driven from
// ONE shared simulation clock. Cross-rack traffic is per-packet:
// every packet streams over its rack legs and spine hops with
// cut-through pipelining, and the spine-aware FleetController
// reprices hot spine links each epoch so later packets re-plan. A
// cross-rack MapReduce shuffle moves data from mappers in rack 0 to
// reducers in rack 2 (every flow crosses two spine hops via rack 1's
// gateways), an all-to-all incast converges on a single sink, and the
// fleet metrics table shows every rack's telemetry under its
// "rack<N>." prefix next to the spine's and the controller's.
#include <cstdio>

#include "runtime/fleet.hpp"

using namespace rsf;
using namespace rsf::sim::literals;

int main() {
  // --- 1. Describe the fleet: three racks, three shapes ---
  runtime::FleetConfig cfg;

  runtime::RackSpec compute;  // adaptive grid, CRC on
  compute.config.shape = runtime::RackShape::kGrid;
  compute.config.rack.width = 4;
  compute.config.rack.height = 4;
  compute.gateway = 0;  // node (0,0) attaches to the spine
  cfg.racks.push_back(compute);

  runtime::RackSpec transit;  // torus baseline in the middle
  transit.config.shape = runtime::RackShape::kTorus;
  transit.config.rack.width = 4;
  transit.config.rack.height = 4;
  cfg.racks.push_back(transit);

  runtime::RackSpec storage;  // 8-node ring
  storage.config.shape = runtime::RackShape::kRing;
  storage.config.nodes = 8;
  cfg.racks.push_back(storage);

  // Spine: a line 0 - 1 - 2 (rack 0 reaches rack 2 through rack 1).
  runtime::SpineSpec s01;
  s01.rack_a = 0;
  s01.rack_b = 1;
  s01.rate = phy::DataRate::gbps(400);
  s01.latency = 2_us;
  cfg.spine.push_back(s01);
  runtime::SpineSpec s12;
  s12.rack_a = 1;
  s12.rack_b = 2;
  // Exit rack 1 at the far corner, so transit payloads actually cross
  // the torus between the two gateways.
  s12.gateway_a = 15;
  s12.rate = phy::DataRate::gbps(400);
  s12.latency = 2_us;
  cfg.spine.push_back(s12);

  // The fleet controller: observe spine utilisation every 50 us,
  // reprice links that run hot, let the route cache re-plan packets —
  // and promote persistently hot rack pairs into spine circuit
  // reservations (a carved per-direction slice their packets ride,
  // bypassing the shared FIFO), demoting them when they go idle.
  cfg.enable_controller = true;
  cfg.controller.epoch = 50_us;
  cfg.controller.utilization_weight = 8.0;
  cfg.controller.booking.discipline = runtime::BookingDiscipline::kCarve;
  cfg.controller.booking.fraction = 0.5;

  runtime::FleetRuntime fleet(cfg);
  fleet.start();  // arm every rack's control loop + the fleet's
  std::printf("fleet: %zu racks, %zu spine links, one clock\n\n", fleet.rack_count(),
              fleet.spine().link_count());

  // --- 2. Shuffle between racks: mappers in rack 0, reducers in rack 2 ---
  workload::CrossRackShuffleConfig shuffle;
  for (int x = 0; x < 4; ++x) shuffle.mappers.push_back(fleet.at(0, x, 3));
  for (phy::NodeId n = 2; n <= 5; ++n) shuffle.reducers.push_back({2, n});
  shuffle.bytes_per_pair = phy::DataSize::kilobytes(256);
  auto& job = fleet.add_shuffle(shuffle);
  job.run([](const workload::CrossRackResult& r) {
    std::printf("shuffle done: %llu flows (%llu cross-rack, %llu spine hops), "
                "job %.1f us, straggler x%.2f\n",
                static_cast<unsigned long long>(r.flows),
                static_cast<unsigned long long>(r.cross_rack_flows),
                static_cast<unsigned long long>(r.spine_hops), r.job_completion.us(),
                r.straggler_ratio());
  });

  // --- 3. All-to-all incast: everyone piles onto one storage node
  //        (a shuffle with one reducer) ---
  workload::CrossRackShuffleConfig incast;
  for (int x = 0; x < 4; ++x) incast.mappers.push_back(fleet.at(0, x, 0));
  for (int x = 0; x < 4; ++x) incast.mappers.push_back(fleet.at(1, x, 0));
  incast.reducers = {{2, 0}};
  incast.bytes_per_pair = phy::DataSize::kilobytes(128);
  incast.start = 50_us;
  auto& sink_job = fleet.add_shuffle(incast);
  sink_job.run([](const workload::CrossRackResult& r) {
    std::printf("incast done:  %llu flows (%llu cross-rack), job %.1f us, "
                "straggler x%.2f\n",
                static_cast<unsigned long long>(r.flows),
                static_cast<unsigned long long>(r.cross_rack_flows), r.job_completion.us(),
                r.straggler_ratio());
  });

  // --- 4. Run the shared clock until both jobs drain ---
  fleet.run_until(20_ms);
  fleet.stop();
  fleet.run_until();

  // --- 5. One registry for the whole fleet ---
  auto& metrics = fleet.metrics();
  std::printf("\nper-rack packet latency (one clock, three fabrics):\n");
  for (std::size_t i = 0; i < fleet.rack_count(); ++i) {
    const auto* h =
        metrics.find_histogram("rack" + std::to_string(i) + ".net.packet_latency");
    std::printf("  rack%zu: %s\n", i, h ? h->summary_time().c_str() : "(none)");
  }
  const auto* spine = metrics.find_counters("spine");
  std::printf("  spine: %llu packets, %llu bytes, %llu retransmits\n",
              static_cast<unsigned long long>(spine->get("spine.packets")),
              static_cast<unsigned long long>(spine->get("spine.bytes")),
              static_cast<unsigned long long>(spine->get("spine.retransmits")));
  std::printf("  controller: %llu epochs, %llu reprices, peak spine util %.2f\n",
              static_cast<unsigned long long>(fleet.controller().epochs_completed()),
              static_cast<unsigned long long>(fleet.controller().reprices()),
              fleet.controller().utilization_series().max_value());
  std::printf("  circuits: %llu promotions, %llu demotions, %llu bytes on slices\n\n",
              static_cast<unsigned long long>(fleet.controller().promotions()),
              static_cast<unsigned long long>(fleet.controller().demotions()),
              static_cast<unsigned long long>(spine->get("spine.reserved_bytes")));

  fleet.metrics_table().print();
  return 0;
}
