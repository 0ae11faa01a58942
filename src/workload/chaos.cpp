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

// The seeded-random timeline's shape (see ChaosRandomTimeline).
constexpr SimTime kRandomWindowStart = SimTime::microseconds(60);
constexpr SimTime kRandomWindowEnd = SimTime::microseconds(220);
constexpr SimTime kRepairDelay = SimTime::microseconds(60);
constexpr SimTime kFlapPeriod = SimTime::microseconds(24);
/// Give up probing for the re-learned reservation after this many
/// post-restart epochs.
constexpr int kRelearnProbeLimit = 64;

/// The fixed chaos fleet: a four-rack line 0 - 1 - 2 - 3 with TWO
/// parallel 25 Gbps links per adjacency — links 0, 2, 4 ride trench A
/// and links 1, 3, 5 trench B — plus link 6, a pricier 0 - 2 bypass
/// outside both trenches. Cutting one trench leaves the line whole on
/// the other; cutting both partitions rack 3; a rack-1 brownout
/// (links 0..3) still leaves 2 -> 0 and 3 -> 0 routable over the
/// bypass. Every latency is equal. The controller is the skewed
/// family's: one scarce 0.6 carve, demoted after 6 idle epochs.
runtime::FleetConfig chaos_fleet(const ChaosScenarioConfig& cfg) {
  runtime::FleetConfig fc = scenario_fleet(
      cfg.seed, /*utilization_weight=*/8.0,
      cfg.reservations ? runtime::BookingDiscipline::kCarve : runtime::BookingDiscipline::kNone,
      /*demote_after=*/6, /*max_pairs=*/1);
  for (std::uint32_t i = 0; i < kRacks; ++i) fc.racks.push_back(grid_rack(4, 4));
  const double loss = cfg.loss_prob;
  fc.spine = {spine_link(0, 1, 25, loss),        // 0: trench A
              spine_link(0, 1, 25, loss),        // 1: trench B
              spine_link(1, 2, 25, loss),        // 2: trench A
              spine_link(1, 2, 25, loss),        // 3: trench B
              spine_link(2, 3, 25, loss),        // 4: trench A
              spine_link(2, 3, 25, loss),        // 5: trench B
              spine_link(0, 2, 25, loss, 2.5)};  // 6: the brownout bypass
  return fc;
}

/// Merge the scripted timeline with the seeded-random one and sort by
/// time (stable: scripted events keep their relative order on ties,
/// random events follow in draw order). Pure — same config and seed,
/// same timeline.
std::vector<ChaosEvent> resolve_timeline(const ChaosScenarioConfig& cfg) {
  std::vector<ChaosEvent> events = cfg.timeline;
  if (cfg.random.enable) {
    rsf::sim::RandomStream rng(cfg.seed, "chaos");
    const std::int64_t span = (kRandomWindowEnd - kRandomWindowStart).ps();
    for (int i = 0; i < cfg.random.cuts; ++i) {
      const SimTime cut = kRandomWindowStart + SimTime::picoseconds(rng.uniform_int(0, span));
      const auto group =
          static_cast<std::uint32_t>(rng.uniform_int(0, static_cast<std::int64_t>(kGroups) - 1));
      events.push_back({cut, ChaosAction::kCutGroup, group});
      SimTime up = cut + kRepairDelay;
      events.push_back({up, ChaosAction::kRepairGroup, group});
      // The flap tail: the same trench bounces flap_cycles more times
      // at kFlapPeriod spacing — down for half the period, up for the
      // other half — ending up. Tuned against demote_after × epoch
      // this defeats the controller's hysteresis on purpose.
      for (int c = 0; c < cfg.random.flap_cycles; ++c) {
        const SimTime down = up + kFlapPeriod;
        events.push_back({down, ChaosAction::kCutGroup, group});
        up = down + kFlapPeriod / 2;
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
    : FleetScenario("ChaosScenario", chaos_fleet(config), config.hot_bytes),
      config_(std::move(config)),
      timeline_(resolve_timeline(config_)) {
  if (config_.horizon <= SimTime::zero()) {
    throw std::invalid_argument("ChaosScenario: non-positive horizon");
  }
  if (config_.checkpoint_every < SimTime::zero()) {
    throw std::invalid_argument("ChaosScenario: negative checkpoint_every");
  }
  if (config_.random.cuts < 0 || config_.random.flap_cycles < 0) {
    throw std::invalid_argument("ChaosScenario: negative random cut or flap count");
  }
  // Resolve the chaos counter set once: metrics() snapshots every rack
  // registry, far too much work for a per-event handler.
  chaos_counters_ = &fleet().metrics().counters("chaos");
  fabric::Interconnect& spine = fleet().spine();
  const auto a = spine.add_shared_risk_group({0, 2, 4});
  const auto b = spine.add_shared_risk_group({1, 3, 5});
  if (a != kTrenchA || b != kTrenchB) {
    throw std::logic_error("ChaosScenario: unexpected SRLG ids");
  }
  for (const ChaosEvent& e : timeline_) {
    if (e.at < SimTime::zero()) {
      throw std::invalid_argument("ChaosScenario: timeline event before time zero");
    }
    const bool group_action =
        e.action == ChaosAction::kCutGroup || e.action == ChaosAction::kRepairGroup;
    const bool rack_action =
        e.action == ChaosAction::kBrownoutRack || e.action == ChaosAction::kRestoreRack;
    if ((group_action && e.target >= kGroups) || (rack_action && e.target >= kRacks)) {
      throw std::invalid_argument("ChaosScenario: timeline event targets nothing");
    }
  }
}

FleetScenario::Jobs ChaosScenario::make_jobs(runtime::FleetRuntime& f) {
  const auto [hot, background] = hot_rack_incast(f, config_.hot_bytes);
  return {{hot}, {background}};
}

void ChaosScenario::schedule_timeline() {
  for (const ChaosEvent& e : timeline_) {
    fleet().sim().schedule_weak_at(e.at, [this, e] { apply(e); });
  }
  if (config_.checkpoint_every > SimTime::zero()) {
    fleet().sim().schedule_weak_after(config_.checkpoint_every, [this] { take_checkpoint(); });
  }
}

void ChaosScenario::apply(const ChaosEvent& e) {
  runtime::FleetRuntime& f = fleet();
  fabric::Interconnect& spine = f.spine();
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
      if (f.has_controller()) f.kill_controller();
      break;
    case ChaosAction::kRestartController:
      if (!f.has_controller()) {
        const bool from_ckpt = e.with_checkpoint && has_ckpt_;
        f.restart_controller(from_ckpt ? &last_ckpt_ : nullptr);
        arm_relearn_probe();
      }
      break;
  }
}

void ChaosScenario::take_checkpoint() {
  runtime::FleetRuntime& f = fleet();
  if (f.has_controller()) {
    last_ckpt_ = f.controller().checkpoint();
    has_ckpt_ = true;
    chaos_counters_->add("chaos.checkpoints");
  }
  // The cadence survives a dead controller (weak: it dies with the
  // workload, not the other way around).
  f.sim().schedule_weak_after(config_.checkpoint_every, [this] { take_checkpoint(); });
}

void ChaosScenario::arm_relearn_probe() {
  probing_ = true;
  probe_epochs_ = 0;
  relearn_epochs_ = -1;
  schedule_probe();
}

void ChaosScenario::schedule_probe() {
  // One probe per controller epoch, scheduled *after* the restarted
  // controller armed its own tick at the same epoch boundary (the
  // restart event applied first), so each probe observes that tick's
  // promotion decision at the same instant, right after it — and the
  // ordering is preserved tick-to-tick because both reschedule from
  // within their own handler.
  const SimTime epoch = fleet().config().controller.epoch;
  fleet().sim().schedule_weak_after(epoch, [this] {
    if (!probing_) return;
    ++probe_epochs_;
    if (!fleet().spine().find_bookings(kHotSrcRack, kHotDstRack).empty()) {
      relearn_epochs_ = probe_epochs_;
      probing_ = false;
      return;
    }
    if (probe_epochs_ >= kRelearnProbeLimit) {
      probing_ = false;
      return;
    }
    schedule_probe();
  });
}

ChaosScenarioResult ChaosScenario::run() {
  ChaosScenarioResult r;
  static_cast<FleetScenarioResult&>(r) = drive(OnViolation::kReport, config_.horizon);
  const auto bytes = static_cast<std::uint64_t>(config_.hot_bytes.bit_count() / 8);
  r.bytes_offered = r.flows_offered * bytes;
  r.bytes_delivered = r.flows_delivered * bytes;
  r.bytes_failed = r.flows_failed * bytes;
  r.bytes_inflight_at_cutoff = r.flows_inflight_at_cutoff * bytes;
  r.flows_failed_pct = r.flows_offered > 0 ? 100.0 * static_cast<double>(r.flows_failed) /
                                                 static_cast<double>(r.flows_offered)
                                           : 0.0;
  std::vector<SimTime> completions;
  for (const auto* side : {&jobs().hot, &jobs().background}) {
    for (const CrossRackShuffle* job : *side) {
      completions.insert(completions.end(), job->completion_times().begin(),
                         job->completion_times().end());
    }
  }
  if (!completions.empty()) {
    std::sort(completions.begin(), completions.end());
    r.flow_p99 = completions[std::min(completions.size() - 1, (completions.size() * 99) / 100)];
  }
  r.reservation_relearned = relearn_epochs_ > 0;
  r.relearn_epochs = relearn_epochs_;

  runtime::FleetRuntime& f = fleet();
  const telemetry::CounterSet& spine_c = f.spine().counters();
  r.srlg_cuts = spine_c.get("spine.srlg_cuts");
  r.reroutes = spine_c.get("spine.packet_reroutes");
  r.retransmits = spine_c.get("spine.retransmits");
  r.controller_restarts = f.metrics().counters("fleet").get("fleet.controller_restarts");
  return r;
}

}  // namespace rsf::workload
