#include "workload/slotted.hpp"

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
constexpr SimTime kSlotTimeout = SimTime::microseconds(30);

// Flap cycle on the first hot leg: down inside the steady state, back
// up well before the jobs drain, twice. Schedules crossing the leg
// are preempted on every cut; the controller re-books on the next
// epoch, split across whatever legs are still up.
constexpr SimTime kFlapDown1 = SimTime::microseconds(100);
constexpr SimTime kFlapUp1 = SimTime::microseconds(170);
constexpr SimTime kFlapDown2 = SimTime::microseconds(280);
constexpr SimTime kFlapUp2 = SimTime::microseconds(350);

runtime::BookingDiscipline discipline(SlottedRegime regime) {
  switch (regime) {
    case SlottedRegime::kCarve:
      return runtime::BookingDiscipline::kCarve;
    case SlottedRegime::kSlotted:
      return runtime::BookingDiscipline::kSlots;
    case SlottedRegime::kPacket:
      break;
  }
  return runtime::BookingDiscipline::kNone;
}

runtime::FleetConfig slotted_fleet(const SlottedScenarioConfig& cfg) {
  // Prices frozen (backlog term included): the three regimes must
  // differ only in how they share the hot leg, not in where the route
  // cache lands after a repricing epoch. Demote slower than the churn
  // arm's wave gap — the carve is *supposed* to sit on its fraction
  // through every gap while the fabric-level slot timeout returns the
  // slotted capacity on its own. Both disciplines cap at two grants:
  // the background pair's sustained demand earns promotion alongside
  // the hot transit pair, and the regimes split on admission — two
  // 0.6 carves cannot share a leg (headroom), but two duty-3 slot
  // masks tile the same calendar collision-free.
  runtime::FleetConfig fc = scenario_fleet(cfg.seed, /*utilization_weight=*/0.0,
                                           discipline(cfg.regime), /*demote_after=*/8,
                                           /*max_pairs=*/2);
  // Racks 0, 1, 2 with two parallel 25 Gbps legs 1 <-> 0 (link ids 0
  // and 1) and two parallel 50 Gbps feeders 2 <-> 1 (ids 2 and 3).
  // The hot transit pair (2 -> 0) crosses one feeder and one leg; its
  // multipath split lands on the fully disjoint other pair of links.
  // Frozen prices put every default route on the lowest-id link of a
  // tie, so the background (1 -> 0) and the hot primary share leg 0 —
  // and leg 0 is the flap target.
  for (int i = 0; i < 3; ++i) fc.racks.push_back(grid_rack(4, 4));
  const double loss = cfg.loss_prob;
  fc.spine = {spine_link(1, 0, 25, loss), spine_link(1, 0, 25, loss),
              spine_link(2, 1, 50, loss), spine_link(2, 1, 50, loss)};
  return fc;
}

}  // namespace

SlottedFleetScenario::SlottedFleetScenario(SlottedScenarioConfig config)
    : FleetScenario("SlottedFleetScenario", slotted_fleet(config), config.hot_bytes),
      config_(config) {
  fleet().spine().set_slot_timeout(kSlotTimeout);
}

FleetScenario::Jobs SlottedFleetScenario::make_jobs(runtime::FleetRuntime& f) {
  // Hot: two full rows of the transit rack swarm one sink in rack 0.
  // Two hops per packet make this the fleet's biggest byte·hops
  // consumer — the pair both policies' demand ranking promotes. The
  // churn arm splits the same bytes into waves on a fixed cadence;
  // the other arms send them in one continuous job.
  Jobs jobs;
  const int waves = config_.arm == SlottedArm::kChurn ? kChurnWaves : 1;
  const phy::DataSize wave_bytes =
      phy::DataSize::bits(config_.hot_bytes.bit_count() / waves);
  for (int w = 0; w < waves; ++w) {
    CrossRackShuffleConfig hot;
    hot.mappers.reserve(8);
    for (int y = 0; y < 2; ++y) {
      for (int x = 0; x < 4; ++x) hot.mappers.push_back(f.at(kHotSrcRack, x, y));
    }
    hot.reducers = {f.at(kHotDstRack, 0, 0)};
    hot.bytes_per_pair = wave_bytes;
    hot.start = SimTime::picoseconds(kChurnCadence.ps() * w);
    jobs.hot.push_back(&f.add_shuffle(hot));
  }

  // Background: rack 1 -> rack 0, one hop on the leg the hot primary
  // crosses — the traffic the carve starves and the slot calendar
  // admits beside the hot pair. Two full rows at twice the hot
  // per-source bytes: enough demand to outlast every hot wave on the
  // shared leg while its single hop keeps it below the hot pair in
  // byte·hops.
  CrossRackShuffleConfig bg;
  bg.mappers.reserve(8);
  for (int y = 0; y < 2; ++y) {
    for (int x = 0; x < 4; ++x) bg.mappers.push_back(f.at(1, x, y));
  }
  bg.reducers = {f.at(kHotDstRack, 3, 3)};
  bg.bytes_per_pair = phy::DataSize::bits(config_.hot_bytes.bit_count() * 2);
  jobs.background.push_back(&f.add_shuffle(bg));
  return jobs;
}

void SlottedFleetScenario::schedule_timeline() {
  if (config_.arm != SlottedArm::kFlap) return;
  fabric::Interconnect& spine = fleet().spine();
  for (const auto& [at, up] :
       {std::pair{kFlapDown1, false}, std::pair{kFlapUp1, true},
        std::pair{kFlapDown2, false}, std::pair{kFlapUp2, true}}) {
    fleet().sim().schedule_weak_at(at, [&spine, up = up] { spine.set_link_up(kFlapLink, up); });
  }
}

}  // namespace rsf::workload
