#include "workload/chaos.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "runtime/fleet.hpp"
#include "sim/random.hpp"

namespace rsf::workload {

using rsf::sim::SimTime;

namespace {

constexpr std::uint32_t kRacks = 4;
constexpr std::uint32_t kGroups = 2;  // trench A, trench B

std::uint64_t byte_count(phy::DataSize size) {
  return static_cast<std::uint64_t>(std::max<std::int64_t>(0, size.bit_count() / 8));
}

runtime::RackSpec chaos_rack() {
  runtime::RackSpec rack;
  rack.config.shape = runtime::RackShape::kGrid;
  rack.config.rack.width = 4;
  rack.config.rack.height = 4;
  rack.config.enable_crc = false;  // isolate the fleet-scope story
  return rack;
}

runtime::SpineSpec chaos_link(std::uint32_t a, std::uint32_t b, double cost) {
  runtime::SpineSpec s;
  s.rack_a = a;
  s.rack_b = b;
  s.rate = phy::DataRate::gbps(25);
  s.latency = SimTime::microseconds(2);
  s.cost = cost;
  return s;
}

/// The fixed chaos fleet: a four-rack line 0 - 1 - 2 - 3 with TWO
/// parallel links per adjacency — links 0, 2, 4 ride trench A and
/// links 1, 3, 5 trench B — plus link 6, a pricier 0 - 2 bypass
/// outside both trenches. Cutting one trench leaves the line whole on
/// the other; cutting both partitions rack 3; a rack-1 brownout
/// (links 0..3) still leaves 2 -> 0 and 3 -> 0 routable over the
/// bypass. Every latency is equal.
runtime::FleetConfig chaos_fleet(const ChaosScenarioConfig& cfg) {
  runtime::FleetConfig fc;
  for (std::uint32_t i = 0; i < kRacks; ++i) fc.racks.push_back(chaos_rack());
  fc.spine.push_back(chaos_link(0, 1, 1.0));  // 0: trench A
  fc.spine.push_back(chaos_link(0, 1, 1.0));  // 1: trench B
  fc.spine.push_back(chaos_link(1, 2, 1.0));  // 2: trench A
  fc.spine.push_back(chaos_link(1, 2, 1.0));  // 3: trench B
  fc.spine.push_back(chaos_link(2, 3, 1.0));  // 4: trench A
  fc.spine.push_back(chaos_link(2, 3, 1.0));  // 5: trench B
  fc.spine.push_back(chaos_link(0, 2, 2.5));  // 6: the brownout bypass
  for (runtime::SpineSpec& s : fc.spine) s.loss_prob = cfg.loss_prob;
  fc.seed = cfg.seed;
  fc.enable_controller = true;
  fc.controller.epoch = SimTime::microseconds(20);
  runtime::FleetBookingPolicy& bp = fc.controller.booking;
  bp.discipline = cfg.reservations ? runtime::BookingDiscipline::kCarve
                                   : runtime::BookingDiscipline::kNone;
  bp.fraction = 0.6;
  bp.hot_bytes_per_epoch = 8 * 1024;
  bp.idle_bytes_per_epoch = 1024;
  bp.promote_after = 2;
  bp.demote_after = 6;
  bp.max_pairs = 1;
  return fc;
}

/// Merge the scripted timeline with the seeded-random one and sort by
/// time (stable: scripted events keep their relative order on ties,
/// random events follow in draw order). Pure — same config and seed,
/// same timeline.
std::vector<ChaosEvent> resolve_timeline(const ChaosScenarioConfig& cfg) {
  std::vector<ChaosEvent> events = cfg.timeline;
  if (cfg.random.enable) {
    const ChaosRandomTimeline& r = cfg.random;
    if (r.window_end < r.window_start || r.repair_delay <= SimTime::zero()) {
      throw std::invalid_argument("ChaosScenario: bad random timeline window");
    }
    rsf::sim::RandomStream rng(cfg.seed, "chaos");
    for (int i = 0; i < r.cuts; ++i) {
      const std::int64_t span = (r.window_end - r.window_start).ps();
      const SimTime cut =
          r.window_start + SimTime::picoseconds(span > 0 ? rng.uniform_int(0, span) : 0);
      const auto group =
          static_cast<std::uint32_t>(rng.uniform_int(0, static_cast<std::int64_t>(kGroups) - 1));
      events.push_back({cut, ChaosAction::kCutGroup, group});
      SimTime up = cut + r.repair_delay;
      events.push_back({up, ChaosAction::kRepairGroup, group});
      // The flap tail: the same trench bounces flap_cycles more times
      // at flap_period spacing — down for half the period, up for the
      // other half — ending up. Tuned against demote_after × epoch
      // this defeats the controller's hysteresis on purpose.
      for (int c = 0; c < r.flap_cycles; ++c) {
        const SimTime down = up + r.flap_period;
        events.push_back({down, ChaosAction::kCutGroup, group});
        up = down + r.flap_period / 2;
        events.push_back({up, ChaosAction::kRepairGroup, group});
      }
    }
  }
  std::stable_sort(events.begin(), events.end(),
                   [](const ChaosEvent& a, const ChaosEvent& b) { return a.at < b.at; });
  return events;
}

}  // namespace

ChaosScenario::ChaosScenario(ChaosScenarioConfig config)
    : config_(std::move(config)),
      fleet_(std::make_unique<runtime::FleetRuntime>(chaos_fleet(config_))),
      timeline_(resolve_timeline(config_)) {
  if (config_.hot_bytes.bit_count() <= 0) {
    throw std::invalid_argument("ChaosScenario: non-positive hot_bytes");
  }
  if (config_.horizon <= SimTime::zero()) {
    throw std::invalid_argument("ChaosScenario: non-positive horizon");
  }
  // Resolve the chaos counter set once: metrics() snapshots every rack
  // registry, far too much work for a per-event handler.
  chaos_counters_ = &fleet_->metrics().counters("chaos");
  fabric::Interconnect& spine = fleet_->spine();
  const auto a = spine.add_shared_risk_group({0, 2, 4});
  const auto b = spine.add_shared_risk_group({1, 3, 5});
  if (a != kTrenchA || b != kTrenchB) {
    throw std::logic_error("ChaosScenario: unexpected SRLG ids");
  }
  for (const ChaosEvent& e : timeline_) {
    const bool group_action =
        e.action == ChaosAction::kCutGroup || e.action == ChaosAction::kRepairGroup;
    const bool rack_action =
        e.action == ChaosAction::kBrownoutRack || e.action == ChaosAction::kRestoreRack;
    if ((group_action && e.target >= kGroups) || (rack_action && e.target >= kRacks)) {
      throw std::invalid_argument("ChaosScenario: timeline event targets nothing");
    }
  }
}

ChaosScenario::~ChaosScenario() = default;

void ChaosScenario::launch_flow(const fabric::RackNode& src, const fabric::RackNode& dst,
                                bool hot) {
  runtime::FleetFlowSpec spec;
  spec.id = static_cast<fabric::FlowId>(tally_.flows_offered + 1);
  spec.src = src;
  spec.dst = dst;
  spec.size = config_.hot_bytes;
  spec.packet_size = phy::DataSize::bytes(1024);
  const std::uint64_t bytes = byte_count(spec.size);
  ++tally_.flows_offered;
  tally_.bytes_offered += bytes;
  fleet_->start_flow(spec, [this, bytes, hot](const runtime::FleetFlowResult& fr) {
    if (fr.failed) {
      ++tally_.flows_failed;
      tally_.bytes_failed += bytes;
      return;
    }
    ++tally_.flows_delivered;
    tally_.bytes_delivered += bytes;
    completions_.push_back(fr.completion_time());
    SimTime& job = hot ? tally_.hot_job : tally_.background_job;
    job = std::max(job, fr.finished);
  });
}

void ChaosScenario::apply(const ChaosEvent& e) {
  fabric::Interconnect& spine = fleet_->spine();
  telemetry::CounterSet& chaos = *chaos_counters_;
  switch (e.action) {
    case ChaosAction::kCutGroup:
      spine.set_group_up(e.target, false);
      chaos.add("chaos.cuts");
      break;
    case ChaosAction::kRepairGroup:
      spine.set_group_up(e.target, true);
      chaos.add("chaos.repairs");
      break;
    case ChaosAction::kBrownoutRack:
      for (const fabric::SpineLinkId id : spine.rack_attachments(e.target)) {
        spine.set_link_up(id, false);
      }
      chaos.add("chaos.brownouts");
      break;
    case ChaosAction::kRestoreRack:
      for (const fabric::SpineLinkId id : spine.rack_attachments(e.target)) {
        spine.set_link_up(id, true);
      }
      chaos.add("chaos.rack_restores");
      break;
    case ChaosAction::kKillController:
      // Idempotent at scenario level: a second kill before the restart
      // is a no-op rather than an error, like repeating a cut.
      if (fleet_->has_controller()) fleet_->kill_controller();
      break;
    case ChaosAction::kRestartController:
      if (!fleet_->has_controller()) {
        const bool from_ckpt = e.with_checkpoint && has_ckpt_;
        fleet_->restart_controller(from_ckpt ? &last_ckpt_ : nullptr);
        arm_relearn_probe();
      }
      break;
  }
}

void ChaosScenario::take_checkpoint() {
  if (fleet_->has_controller()) {
    last_ckpt_ = fleet_->controller().checkpoint();
    has_ckpt_ = true;
    chaos_counters_->add("chaos.checkpoints");
  }
  // The cadence survives a dead controller (weak: it dies with the
  // workload, not the other way around).
  fleet_->sim().schedule_weak_after(config_.checkpoint_every, [this] { take_checkpoint(); });
}

void ChaosScenario::arm_relearn_probe() {
  probing_ = true;
  probe_epochs_ = 0;
  tally_.reservation_relearned = false;
  tally_.relearn_epochs = -1;
  schedule_probe();
}

void ChaosScenario::schedule_probe() {
  // One probe per controller epoch, scheduled *after* the restarted
  // controller armed its own tick at the same epoch boundary (the
  // restart event applied first), so each probe observes that tick's
  // promotion decision at the same instant, right after it — and the
  // ordering is preserved tick-to-tick because both reschedule from
  // within their own handler.
  const SimTime epoch = fleet_->config().controller.epoch;
  fleet_->sim().schedule_weak_after(epoch, [this] {
    if (!probing_) return;
    ++probe_epochs_;
    if (!fleet_->spine().find_bookings(kHotSrcRack, kHotDstRack).empty()) {
      tally_.reservation_relearned = true;
      tally_.relearn_epochs = probe_epochs_;
      probing_ = false;
      return;
    }
    if (probe_epochs_ >= config_.relearn_probe_limit) {
      probing_ = false;
      return;
    }
    schedule_probe();
  });
}

ChaosScenarioResult ChaosScenario::run() {
  if (ran_) throw std::logic_error("ChaosScenario: run() called twice");
  ran_ = true;
  runtime::FleetRuntime& f = *fleet_;

  // Hot incast: rack 3's row-0 nodes swarm one sink in rack 0 — the
  // (3, 0) pair crosses every adjacency, the promotion target and the
  // re-learn probe's subject.
  for (int x = 0; x < 4; ++x) {
    launch_flow(f.at(kHotSrcRack, x, 0), f.at(kHotDstRack, 0, 0), true);
  }
  // Background: racks 1 and 2 feed a second sink in rack 0, sharing
  // the 1 -> 0 adjacency with everything the hot pair sends.
  launch_flow(f.at(1, 0, 3), f.at(0, 3, 3), false);
  launch_flow(f.at(1, 3, 3), f.at(0, 3, 3), false);
  launch_flow(f.at(2, 0, 3), f.at(0, 3, 3), false);
  launch_flow(f.at(2, 3, 3), f.at(0, 3, 3), false);

  // The timeline rides weak fleet-ring events: chaos never keeps a
  // drained fleet alive.
  for (const ChaosEvent& e : timeline_) {
    f.sim().schedule_weak_at(e.at, [this, e] { apply(e); });
  }
  if (config_.checkpoint_every > SimTime::zero()) {
    f.sim().schedule_weak_after(config_.checkpoint_every, [this] { take_checkpoint(); });
  }

  f.start();
  // The bounded-run watchdog: nothing executes past the horizon. A
  // hang (a flow that neither delivers nor fails) shows up as
  // in-flight-at-cutoff, never as a wedged process.
  f.run_until(config_.horizon);
  f.stop();
  f.run_until(config_.horizon);  // drain anything the stop released

  ChaosScenarioResult& r = tally_;
  const std::uint64_t terminal_flows = r.flows_delivered + r.flows_failed;
  const std::uint64_t terminal_bytes = r.bytes_delivered + r.bytes_failed;
  r.completed_before_horizon = terminal_flows == r.flows_offered;
  r.flows_inflight_at_cutoff =
      terminal_flows <= r.flows_offered ? r.flows_offered - terminal_flows : 0;
  r.bytes_inflight_at_cutoff =
      terminal_bytes <= r.bytes_offered ? r.bytes_offered - terminal_bytes : 0;
  // Conservation: the callback-level tally must sum back to what was
  // offered AND agree with the runtime's own completion accounting —
  // a lost callback, a double completion, or a leaked flow breaks one
  // of the two.
  r.conservation_ok =
      terminal_flows <= r.flows_offered && terminal_bytes <= r.bytes_offered &&
      r.flows_delivered + r.flows_failed + r.flows_inflight_at_cutoff == r.flows_offered &&
      r.bytes_delivered + r.bytes_failed + r.bytes_inflight_at_cutoff == r.bytes_offered &&
      r.flows_delivered == f.flows_completed() && r.flows_failed == f.flows_failed();
  // Stale-handle / leak check: a quiesced fleet must have every flow
  // and packet slot back on the free list.
  r.slots_at_baseline = r.completed_before_horizon &&
                        f.free_flow_slots() == f.flow_slots() &&
                        f.free_packet_slots() == f.packet_slots();
  r.flows_failed_pct =
      r.flows_offered > 0 ? 100.0 * static_cast<double>(r.flows_failed) /
                                static_cast<double>(r.flows_offered)
                          : 0.0;
  if (!completions_.empty()) {
    std::sort(completions_.begin(), completions_.end());
    const std::size_t idx =
        std::min(completions_.size() - 1, (completions_.size() * 99) / 100);
    r.flow_p99 = completions_[idx];
  }

  const telemetry::CounterSet& spine_c = f.spine().counters();
  r.srlg_cuts = spine_c.get("spine.srlg_cuts");
  r.preemptions = spine_c.get("spine.reservation_preemptions");
  r.reroutes = spine_c.get("spine.packet_reroutes");
  r.retransmits = spine_c.get("spine.retransmits");
  const telemetry::CounterSet& fleet_c = f.metrics().counters("fleet");
  r.controller_restarts = fleet_c.get("fleet.controller_restarts");
  r.promotions = fleet_c.get("fleet.promotions");
  r.demotions = fleet_c.get("fleet.demotions");
  return r;
}

}  // namespace rsf::workload
