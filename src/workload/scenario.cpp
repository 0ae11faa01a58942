#include "workload/scenario.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <utility>

namespace rsf::workload {

using rsf::sim::SimTime;

namespace {

// The families' booking shape: a majority carve (the circuit only
// beats statistical sharing when the carve exceeds the share the hot
// pair would win in the shared FIFO) or 6 of every 8 slots (split
// across parallel legs by the controller).
constexpr double kCarveFraction = 0.6;
constexpr int kSlotPeriod = 8;
constexpr int kSlotDuty = 6;

// Fold one job's result into a running aggregate: tallies add,
// completion times take the max across jobs, and the median is the
// worst job's median (the sweeps compare job completions, which the
// max makes exact).
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

runtime::RackSpec grid_rack(int w, int h) {
  runtime::RackSpec rack;
  rack.config.shape = runtime::RackShape::kGrid;
  rack.config.rack.width = w;
  rack.config.rack.height = h;
  rack.config.enable_crc = false;
  return rack;
}

runtime::SpineSpec spine_link(std::uint32_t a, std::uint32_t b, double gbps, double loss_prob,
                              double cost) {
  runtime::SpineSpec s;
  s.rack_a = a;
  s.rack_b = b;
  s.rate = phy::DataRate::gbps(gbps);
  s.latency = SimTime::microseconds(2);
  s.loss_prob = loss_prob;
  s.cost = cost;
  return s;
}

runtime::FleetConfig scenario_fleet(std::uint64_t seed, double utilization_weight,
                                    runtime::BookingDiscipline discipline, int demote_after,
                                    std::size_t max_pairs) {
  runtime::FleetConfig fc;
  fc.seed = seed;
  fc.enable_controller = true;
  fc.controller.epoch = SimTime::microseconds(20);
  fc.controller.utilization_weight = utilization_weight;
  // "Weight 0 freezes prices" must mean it: zero the backlog term too,
  // or its 0.25 default keeps repricing behind the sweep's back.
  if (utilization_weight == 0.0) fc.controller.backlog_weight_per_us = 0.0;
  runtime::FleetBookingPolicy& bp = fc.controller.booking;
  bp.discipline = discipline;
  bp.fraction = kCarveFraction;
  bp.period = kSlotPeriod;
  bp.duty = kSlotDuty;
  // Low enough that a multi-hop pair still filling its pipeline keeps
  // its hot streak; the cumulative-demand ranking picks the winner.
  bp.hot_bytes_per_epoch = 8 * 1024;
  bp.idle_bytes_per_epoch = 1024;
  bp.promote_after = 2;
  bp.demote_after = demote_after;
  bp.max_pairs = max_pairs;
  return fc;
}

std::pair<CrossRackShuffle*, CrossRackShuffle*> hot_rack_incast(runtime::FleetRuntime& f,
                                                                phy::DataSize bytes) {
  // Hot: rack 3's row-0 nodes swarm one sink in rack 0 — the (3, 0)
  // pair crosses every inbound leg, the fleet's hottest pair.
  CrossRackShuffleConfig hot;
  for (int x = 0; x < 4; ++x) hot.mappers.push_back(f.at(3, x, 0));
  hot.reducers = {f.at(0, 0, 0)};
  hot.bytes_per_pair = bytes;
  // Background: racks 1 and 2 feed a second sink in rack 0, sharing
  // the 1 -> 0 leg with everything the hot pair sends.
  CrossRackShuffleConfig bg;
  bg.mappers = {f.at(1, 0, 3), f.at(1, 3, 3), f.at(2, 0, 3), f.at(2, 3, 3)};
  bg.reducers = {f.at(0, 3, 3)};
  bg.bytes_per_pair = bytes;
  return {&f.add_shuffle(hot), &f.add_shuffle(bg)};
}

FleetScenario::FleetScenario(const char* name, runtime::FleetConfig config,
                             phy::DataSize hot_bytes)
    : name_(name),
      fleet_(std::make_unique<runtime::FleetRuntime>(std::move(config))),
      fleet_counters_(&fleet_->controller().counters()) {
  if (hot_bytes.bit_count() <= 0) {
    throw std::invalid_argument(std::string(name_) + ": non-positive hot_bytes");
  }
}

FleetScenario::~FleetScenario() = default;

FleetScenarioResult FleetScenario::drive(OnViolation on_violation, SimTime horizon) {
  if (ran_) throw std::logic_error(std::string(name_) + ": run() called twice");
  ran_ = true;
  runtime::FleetRuntime& f = *fleet_;
  jobs_ = make_jobs(f);
  // Scheduling order is part of the byte-identity contract: every
  // flow's start event (hot jobs first), the timeline, then start().
  for (CrossRackShuffle* job : jobs_.hot) job->run(nullptr);
  for (CrossRackShuffle* job : jobs_.background) job->run(nullptr);
  schedule_timeline();
  f.start();
  f.run_until(horizon);
  f.stop();
  f.run_until(horizon);  // drain anything the stop released

  FleetScenarioResult r;
  auto tally = [&r](const std::vector<CrossRackShuffle*>& side, CrossRackResult& into) {
    for (const CrossRackShuffle* job : side) {
      fold(into, job->result());
      r.flows_offered += job->offered();
    }
  };
  tally(jobs_.hot, r.hot);
  tally(jobs_.background, r.background);
  const std::uint64_t terminal = r.hot.flows + r.background.flows;
  r.flows_failed = r.hot.failed + r.background.failed;
  r.flows_delivered = terminal - r.flows_failed;
  r.completed_before_horizon = terminal == r.flows_offered;
  r.flows_inflight_at_cutoff = terminal <= r.flows_offered ? r.flows_offered - terminal : 0;
  // A lost callback, a double completion or a leaked flow breaks one
  // of the two: the jobs' own sums, or their agreement with the
  // runtime's completion accounting.
  r.conservation_ok = terminal <= r.flows_offered &&
                      r.flows_delivered == f.flows_completed() &&
                      r.flows_failed == f.flows_failed();
  r.slots_at_baseline = r.completed_before_horizon &&
                        f.free_flow_slots() == f.flow_slots() &&
                        f.free_packet_slots() == f.packet_slots();

  const telemetry::CounterSet& fc = *fleet_counters_;
  r.promotions = fc.get("fleet.promotions") + fc.get("fleet.schedule_promotions");
  r.demotions = fc.get("fleet.demotions") + fc.get("fleet.schedule_demotions");
  r.schedule_splits = fc.get("fleet.schedule_splits");
  const telemetry::CounterSet& sc = f.spine().counters();
  r.slot_reservations = sc.get("spine.slot_reservations");
  r.slot_expirations = sc.get("spine.slot_expirations");
  r.slot_preemptions = sc.get("spine.slot_preemptions");
  r.slot_refusals = sc.get("spine.slot_refusals");
  r.slotted_bytes = sc.get("spine.slotted_bytes");
  r.reserved_bytes = sc.get("spine.reserved_bytes");
  r.reservation_preemptions = sc.get("spine.reservation_preemptions");

  if (on_violation == OnViolation::kThrow && !r.verified()) {
    const char* what = !r.completed_before_horizon ? "jobs did not drain"
                       : !r.conservation_ok        ? "flow conservation violated"
                                                   : "slot pools did not quiesce";
    throw std::logic_error(std::string(name_) + ": " + what);
  }
  return r;
}

}  // namespace rsf::workload
