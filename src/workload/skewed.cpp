#include "workload/skewed.hpp"

#include <stdexcept>

namespace rsf::workload {

namespace {

runtime::FleetConfig skewed_fleet(const SkewedScenarioConfig& cfg) {
  // One scarce circuit (max_pairs 1): the hottest pair wins it,
  // everyone else shares the residual — the crossover the ext9 sweep
  // quantifies.
  runtime::FleetConfig fc = scenario_fleet(
      cfg.seed, cfg.utilization_weight,
      cfg.reservations ? runtime::BookingDiscipline::kCarve : runtime::BookingDiscipline::kNone,
      /*demote_after=*/6, /*max_pairs=*/1);
  const double loss = cfg.loss_prob;
  switch (cfg.kind) {
    case SkewedScenarioKind::kHotRackIncast:
      // A line 0 - 1 - 2 - 3: rack 3 swarms rack 0 while racks 1 and
      // 2 feed background into the same inbound legs — the 1 -> 0 leg
      // carries everything and the hot pair's statistical share there
      // drops to half.
      for (int i = 0; i < 4; ++i) fc.racks.push_back(grid_rack(4, 4));
      fc.spine = {spine_link(0, 1, 25, loss), spine_link(1, 2, 25, loss),
                  spine_link(2, 3, 25, loss)};
      break;
    case SkewedScenarioKind::kSlowSpineLeg:
      // A ring whose 0 <-> 1 leg runs at a fifth of its siblings':
      // the hot pair's 1-hop route crosses the slow leg while a 2-hop
      // detour through rack 2 exists. Without repricing a reservation
      // pins the (then-cheapest) slow leg — the circuit pitfall; with
      // repricing the promotion lands on the detour and contends with
      // the background on the 2 -> 0 leg instead.
      for (int i = 0; i < 3; ++i) fc.racks.push_back(grid_rack(4, 4));
      fc.spine = {spine_link(0, 1, 5, loss), spine_link(1, 2, 25, loss),
                  spine_link(2, 0, 25, loss)};
      break;
    case SkewedScenarioKind::kMixedRackSizes:
      // Mixed sizes on a line 0 - 1 - 2: a small edge rack, a big
      // compute rack, and a mid-size rack — the skew the single
      // spanning shuffle runs on, with a background incast transiting
      // the big rack into the same 1 -> 0 leg.
      fc.racks = {grid_rack(2, 2), grid_rack(4, 4), grid_rack(3, 3)};
      fc.spine = {spine_link(0, 1, 25, loss), spine_link(1, 2, 25, loss)};
      break;
  }
  return fc;
}

}  // namespace

SkewedFleetScenario::SkewedFleetScenario(SkewedScenarioConfig config)
    : FleetScenario("SkewedFleetScenario", skewed_fleet(config), config.hot_bytes),
      config_(config) {}

FleetScenario::Jobs SkewedFleetScenario::make_jobs(runtime::FleetRuntime& f) {
  switch (config_.kind) {
    case SkewedScenarioKind::kHotRackIncast: {
      const auto [hot, background] = hot_rack_incast(f, config_.hot_bytes);
      return {{hot}, {background}};
    }
    case SkewedScenarioKind::kSlowSpineLeg: {
      // Hot: rack 1 -> rack 0 across the slow leg (or its detour).
      CrossRackShuffleConfig hot;
      for (int x = 0; x < 4; ++x) hot.mappers.push_back(f.at(1, x, 0));
      hot.reducers = {f.at(0, 0, 0)};
      hot.bytes_per_pair = config_.hot_bytes;
      // Background: rack 2 -> rack 0 on the fast 2 -> 0 leg — the
      // detour's victim when repricing pushes hot traffic around.
      CrossRackShuffleConfig bg;
      bg.mappers = {f.at(2, 0, 0), f.at(2, 1, 0), f.at(2, 2, 0)};
      bg.reducers = {f.at(0, 3, 3)};
      bg.bytes_per_pair = config_.hot_bytes;
      return {{&f.add_shuffle(hot)}, {&f.add_shuffle(bg)}};
    }
    case SkewedScenarioKind::kMixedRackSizes: {
      // Hot: the mid rack transits the big rack into the edge rack's
      // sink — pair (2, 0) crosses two legs, the fleet's biggest
      // spine consumer in byte·hops and the promotion target.
      CrossRackShuffleConfig hot;
      hot.mappers = {f.at(2, 0, 0), f.at(2, 1, 0), f.at(2, 2, 0)};
      hot.reducers = {f.at(0, 0, 0)};
      hot.bytes_per_pair = config_.hot_bytes;
      // Background: one shuffle spanning all three rack sizes — the
      // big rack's mappers fan out to reducers in the small and mid
      // racks (pairs (1, 0) and (1, 2)); its (1, 0) flows share the
      // 1 -> 0 leg with the hot transit pair.
      CrossRackShuffleConfig bg;
      bg.mappers = {f.at(1, 0, 0), f.at(1, 1, 0), f.at(1, 2, 0)};
      bg.reducers = {f.at(0, 1, 1), f.at(2, 2, 2)};
      bg.bytes_per_pair = config_.hot_bytes;
      return {{&f.add_shuffle(hot)}, {&f.add_shuffle(bg)}};
    }
  }
  throw std::logic_error("SkewedFleetScenario: unknown kind");
}

}  // namespace rsf::workload
