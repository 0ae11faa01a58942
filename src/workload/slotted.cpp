#include "workload/slotted.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "runtime/fleet.hpp"

namespace rsf::workload {

using rsf::sim::SimTime;

namespace {

// The churn arm splits each hot source's bytes into this many waves,
// started on a fixed cadence. The inter-wave gap (cadence minus the
// wave's transfer time) is what the regimes disagree about: it exceeds
// the fabric's slot inactivity timeout — slots self-expire and hand
// the capacity back — but stays inside the carve's demote window, so
// the carve holds its fraction through every gap.
constexpr int kChurnWaves = 3;
constexpr SimTime kChurnCadence = SimTime::microseconds(240);

// Flap cycle on the first hot leg: down inside the steady state, back
// up well before the jobs drain, twice. Schedules crossing the leg
// are preempted on every cut; the controller re-books on the next
// epoch, split across whatever legs are still up.
constexpr SimTime kFlapDown1 = SimTime::microseconds(100);
constexpr SimTime kFlapUp1 = SimTime::microseconds(170);
constexpr SimTime kFlapDown2 = SimTime::microseconds(280);
constexpr SimTime kFlapUp2 = SimTime::microseconds(350);

runtime::RackSpec grid_rack(int w, int h) {
  runtime::RackSpec rack;
  rack.config.shape = runtime::RackShape::kGrid;
  rack.config.rack.width = w;
  rack.config.rack.height = h;
  rack.config.enable_crc = false;  // isolate the fleet-scope control loop
  return rack;
}

runtime::SpineSpec spine_link(std::uint32_t a, std::uint32_t b, double gbps,
                              double loss_prob) {
  runtime::SpineSpec s;
  s.rack_a = a;
  s.rack_b = b;
  s.rate = phy::DataRate::gbps(gbps);
  s.latency = SimTime::microseconds(2);
  s.loss_prob = loss_prob;
  return s;
}

runtime::FleetConfig scenario_fleet(const SlottedScenarioConfig& cfg) {
  runtime::FleetConfig fc;
  // Racks 0, 1, 2 with two parallel 25 Gbps legs 1 <-> 0 (link ids 0
  // and 1) and two parallel 50 Gbps feeders 2 <-> 1 (ids 2 and 3).
  // The hot transit pair (2 -> 0) crosses one feeder and one leg; its
  // multipath split lands on the fully disjoint other pair of links.
  // Frozen prices put every default route on the lowest-id link of a
  // tie, so the background (1 -> 0) and the hot primary share leg 0 —
  // and leg 0 is the flap target.
  for (int i = 0; i < 3; ++i) fc.racks.push_back(grid_rack(4, 4));
  fc.spine.push_back(spine_link(1, 0, 25, cfg.loss_prob));
  fc.spine.push_back(spine_link(1, 0, 25, cfg.loss_prob));
  fc.spine.push_back(spine_link(2, 1, 50, cfg.loss_prob));
  fc.spine.push_back(spine_link(2, 1, 50, cfg.loss_prob));
  fc.seed = cfg.seed;
  fc.enable_controller = true;
  fc.controller.epoch = SimTime::microseconds(20);
  // Freeze prices (backlog term included): the three regimes must
  // differ only in how they share the hot leg, not in where the route
  // cache lands after a repricing epoch.
  fc.controller.utilization_weight = 0.0;
  fc.controller.backlog_weight_per_us = 0.0;
  // One policy, two disciplines, a shared hysteresis shape: promote
  // fast, demote slower than the churn arm's wave gap — the carve is
  // *supposed* to sit on its fraction through every gap while the
  // fabric-level slot timeout returns the slotted capacity on its own.
  // Both cap at two grants: the background pair's sustained demand
  // earns promotion alongside the hot transit pair, and the regimes
  // split on admission — two 0.6 carves cannot share a leg
  // (headroom), but two duty-3 slot masks tile the same calendar
  // collision-free. The policy reads only its discipline's shape
  // (the fraction, or the period and duty).
  runtime::FleetBookingPolicy& bp = fc.controller.booking;
  switch (cfg.regime) {
    case SlottedRegime::kPacket:
      return fc;
    case SlottedRegime::kCarve:
      bp.discipline = runtime::BookingDiscipline::kCarve;
      break;
    case SlottedRegime::kSlotted:
      bp.discipline = runtime::BookingDiscipline::kSlots;
      break;
  }
  bp.fraction = cfg.carve_fraction;
  bp.period = cfg.slot_period;
  bp.duty = cfg.slot_duty;
  bp.hot_bytes_per_epoch = 8 * 1024;
  bp.idle_bytes_per_epoch = 1024;
  bp.promote_after = 2;
  bp.demote_after = 8;
  bp.max_pairs = 2;
  return fc;
}

// Fold one job's result into a running aggregate: byte/flow tallies
// add, completion times take the max across waves, and the median is
// the worst wave's median (the sweep only compares job completions,
// which the max makes exact).
void fold(CrossRackResult& into, const CrossRackResult& r) {
  into.job_completion = std::max(into.job_completion, r.job_completion);
  into.median_flow = std::max(into.median_flow, r.median_flow);
  into.max_flow = std::max(into.max_flow, r.max_flow);
  into.flows += r.flows;
  into.failed += r.failed;
  into.cross_rack_flows += r.cross_rack_flows;
  into.spine_hops += r.spine_hops;
  into.retransmits += r.retransmits;
}

}  // namespace

SlottedFleetScenario::SlottedFleetScenario(SlottedScenarioConfig config)
    : config_(config),
      fleet_(std::make_unique<runtime::FleetRuntime>(scenario_fleet(config))) {
  if (config_.hot_bytes.bit_count() <= 0) {
    throw std::invalid_argument("SlottedFleetScenario: non-positive hot_bytes");
  }
  fleet_->spine().set_slot_timeout(config_.slot_timeout);
}

SlottedFleetScenario::~SlottedFleetScenario() = default;

SlottedScenarioResult SlottedFleetScenario::run() {
  if (ran_) throw std::logic_error("SlottedFleetScenario: run() called twice");
  ran_ = true;
  runtime::FleetRuntime& f = *fleet_;

  // Hot: two full rows of the transit rack swarm one sink in rack 0.
  // Two hops per packet make this the fleet's biggest byte·hops
  // consumer — the pair both policies' demand ranking promotes. The
  // churn arm splits the same bytes into waves on a fixed cadence;
  // the other arms send them in one continuous job.
  std::vector<CrossRackJob*> hot_jobs;
  const int waves = config_.arm == SlottedArm::kChurn ? kChurnWaves : 1;
  const phy::DataSize wave_bytes =
      phy::DataSize::bits(config_.hot_bytes.bit_count() / waves);
  for (int w = 0; w < waves; ++w) {
    CrossRackIncastConfig hot_cfg;
    hot_cfg.sources.reserve(8);
    for (int y = 0; y < 2; ++y) {
      for (int x = 0; x < 4; ++x) hot_cfg.sources.push_back(f.at(kHotSrcRack, x, y));
    }
    hot_cfg.sink = f.at(kHotDstRack, 0, 0);
    hot_cfg.bytes_per_source = wave_bytes;
    hot_cfg.start = SimTime::picoseconds(kChurnCadence.ps() * w);
    hot_jobs.push_back(&f.add_incast(hot_cfg));
  }

  // Background: rack 1 -> rack 0, one hop on the leg the hot primary
  // crosses — the traffic the carve starves and the slot calendar
  // admits beside the hot pair. Two full rows at twice the hot
  // per-source bytes: enough demand to outlast every hot wave on the
  // shared leg while its single hop keeps it below the hot pair in
  // byte·hops.
  CrossRackIncastConfig bg_cfg;
  bg_cfg.sources.reserve(8);
  for (int y = 0; y < 2; ++y) {
    for (int x = 0; x < 4; ++x) bg_cfg.sources.push_back(f.at(1, x, y));
  }
  bg_cfg.sink = f.at(kHotDstRack, 3, 3);
  bg_cfg.bytes_per_source = phy::DataSize::bits(config_.hot_bytes.bit_count() * 2);
  CrossRackJob& background = f.add_incast(bg_cfg);

  SlottedScenarioResult result;
  std::vector<CrossRackResult> hot_results(hot_jobs.size());
  for (std::size_t w = 0; w < hot_jobs.size(); ++w) {
    hot_jobs[w]->run([&hot_results, w](const CrossRackResult& r) { hot_results[w] = r; });
  }
  background.run([&result](const CrossRackResult& r) { result.background = r; });

  if (config_.arm == SlottedArm::kFlap) {
    // Weak events: the flap never keeps a drained fleet alive.
    fabric::Interconnect& spine = f.spine();
    for (const auto& [at, up] :
         {std::pair{kFlapDown1, false}, std::pair{kFlapUp1, true},
          std::pair{kFlapDown2, false}, std::pair{kFlapUp2, true}}) {
      f.sim().schedule_weak_at(
          at, [&spine, up = up] { spine.set_link_up(kFlapLink, up); });
    }
  }

  f.start();
  f.run_until();
  f.stop();
  f.run_until();  // drain anything the stop released
  for (CrossRackJob* job : hot_jobs) {
    if (!job->finished()) {
      throw std::logic_error("SlottedFleetScenario: hot job did not drain");
    }
  }
  if (!background.finished()) {
    throw std::logic_error("SlottedFleetScenario: background did not drain");
  }
  for (const CrossRackResult& r : hot_results) fold(result.hot, r);

  result.promotions = f.controller().promotions();
  result.demotions = f.controller().demotions();
  result.schedule_splits = f.controller().counters().get("fleet.schedule_splits");
  const telemetry::CounterSet& c = f.spine().counters();
  result.slot_reservations = c.get("spine.slot_reservations");
  result.slot_expirations = c.get("spine.slot_expirations");
  result.slot_preemptions = c.get("spine.slot_preemptions");
  result.slot_refusals = c.get("spine.slot_refusals");
  result.slotted_bytes = c.get("spine.slotted_bytes");
  result.reserved_bytes = c.get("spine.reserved_bytes");
  result.reservation_preemptions = c.get("spine.reservation_preemptions");
  return result;
}

}  // namespace rsf::workload
