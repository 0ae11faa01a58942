// rsf::workload — the correlated-failure chaos harness.
//
// Single-link failures (set_link_up in a test) exercise the spine's
// failure mechanisms one at a time; production failures are
// correlated. A ChaosScenario drives a fixed four-rack fleet through a
// *timeline* of correlated failure events — shared-risk group cuts
// (one trench takes every member link with it), repair, flap periods
// tuned to defeat hysteresis, rack-wide brownouts (every spine
// attachment of one rack), and mid-epoch FleetController kill/restart
// (cold, or from a FleetControllerCheckpoint) — while a hot incast and
// background traffic keep the spine under load.
//
// Timelines are scripted (an explicit ChaosEvent vector), seeded-
// random (a RandomStream draws cut targets and times; same seed, same
// timeline, byte-identical run), or both. Every event is scheduled as
// a weak fleet-ring event: chaos never keeps a drained fleet alive.
//
// Its traffic is the hot-rack incast the skewed family also runs
// (hot_rack_incast: rack 3 swarms rack 0 beside background from racks
// 1 and 2), under the same one-circuit carve policy, and every run
// goes through the shared FleetScenario verifier (scenario.hpp):
// bounded by a horizon watchdog, conserving, leak-free. Chaos reports
// the verdicts in its result instead of throwing.
//
// The scenario also measures the restart story end-to-end: after a
// kRestartController event it probes once per controller epoch for
// the hot pair's reservation and reports how many epochs the restarted
// controller needed to re-earn it (the mcsotdma renewal model: leases
// died with the old controller; intent, not handles, survives in the
// checkpoint).
//
// The fixed topology (see chaos.cpp) is a four-rack line with two
// parallel links per adjacency split across two shared-risk trenches,
// plus one bypass link 0 - 2 outside both trenches: cutting one trench
// degrades, cutting both partitions, and a rack-1 brownout reroutes
// over the bypass instead of partitioning.
#pragma once

#include <cstdint>
#include <vector>

#include "phy/units.hpp"
#include "runtime/fleet_controller.hpp"
#include "sim/time.hpp"
#include "workload/scenario.hpp"

namespace rsf::workload {

enum class ChaosAction {
  /// Fail / repair every link of a shared-risk group (target = SRLG
  /// id; the scenario registers group 0 = trench A, 1 = trench B).
  kCutGroup,
  kRepairGroup,
  /// Fail / restore every spine attachment of one rack (target =
  /// rack id).
  kBrownoutRack,
  kRestoreRack,
  /// Crash the fleet controller mid-epoch (leases expire) / bring a
  /// new one up (cold, or from the latest periodic checkpoint when
  /// with_checkpoint is set and one exists).
  kKillController,
  kRestartController,
};

struct ChaosEvent {
  rsf::sim::SimTime at = rsf::sim::SimTime::zero();
  ChaosAction action = ChaosAction::kCutGroup;
  /// SRLG id or rack id; ignored by the controller actions.
  std::uint32_t target = 0;
  /// kRestartController only: restore from the latest checkpoint.
  bool with_checkpoint = false;
};

/// Seeded-random timeline generation, layered on top of (and merged
/// with) the scripted events. Each cut draws a group and a cut time in
/// [60, 220] µs and repairs 60 µs later, then flaps the same group
/// `flap_cycles` more times at a 24 µs period — the hysteresis-
/// defeating pattern.
struct ChaosRandomTimeline {
  bool enable = false;
  int cuts = 2;
  int flap_cycles = 0;
};

struct ChaosScenarioConfig {
  /// Seeds the fleet (spine loss) and the random timeline's draws.
  std::uint64_t seed = 1;
  /// Per-packet loss probability on every spine link.
  double loss_prob = 0.0;
  /// Bytes per hot-incast source (background sources move the same).
  phy::DataSize hot_bytes = phy::DataSize::kilobytes(96);
  /// Reservation policy on the controller (the repricing loop always
  /// runs); the hot pair (rack 3 -> rack 0) is the promotion target.
  bool reservations = true;
  /// Scripted events, any order (the scenario sorts a merged copy).
  std::vector<ChaosEvent> timeline;
  ChaosRandomTimeline random;
  /// Bounded-run watchdog: the run never executes past this horizon.
  /// Flows still in flight there are counted, not waited for.
  rsf::sim::SimTime horizon = rsf::sim::SimTime::milliseconds(20);
  /// Checkpoint the controller this often (zero = never). A
  /// with_checkpoint restart restores the latest one — possibly
  /// stale, which is the realistic case.
  rsf::sim::SimTime checkpoint_every = rsf::sim::SimTime::zero();
};

/// The shared verdicts and mechanics plus the chaos SLOs. Every chaos
/// flow moves hot_bytes, so the byte tallies are flow tallies times
/// hot_bytes.
struct ChaosScenarioResult : FleetScenarioResult {
  std::uint64_t bytes_offered = 0;
  std::uint64_t bytes_delivered = 0;
  std::uint64_t bytes_failed = 0;
  std::uint64_t bytes_inflight_at_cutoff = 0;

  // --- degraded-mode SLOs ---
  double flows_failed_pct = 0.0;
  /// Over delivered flows' completion times (zero when none).
  rsf::sim::SimTime flow_p99 = rsf::sim::SimTime::zero();

  // --- reservation re-learning after a controller restart ---
  bool reservation_relearned = false;
  /// Controller epochs from the restart until the hot pair's
  /// reservation was held again (-1: no restart happened, or the
  /// 64-epoch probe limit ran out).
  int relearn_epochs = -1;

  // --- counter snapshot (fleet registry; survives restarts) ---
  std::uint64_t srlg_cuts = 0;
  std::uint64_t reroutes = 0;
  std::uint64_t retransmits = 0;
  std::uint64_t controller_restarts = 0;
};

class ChaosScenario : public FleetScenario {
 public:
  /// Throws std::invalid_argument for a non-positive hot_bytes or
  /// horizon, a negative checkpoint_every, a negative random cut or
  /// flap count, and a timeline event before time zero or targeting
  /// no group or rack.
  explicit ChaosScenario(ChaosScenarioConfig config);

  /// Run the scenario to the horizon (or drain); call once.
  ChaosScenarioResult run();

  /// The merged scripted + seeded-random timeline, sorted by time —
  /// what run() will actually apply.
  [[nodiscard]] const std::vector<ChaosEvent>& timeline() const { return timeline_; }

  /// The hot pair whose reservation the re-learn probe watches.
  static constexpr std::uint32_t kHotSrcRack = 3;
  static constexpr std::uint32_t kHotDstRack = 0;
  /// SRLG ids the scenario registers (two parallel trenches).
  static constexpr std::uint32_t kTrenchA = 0;
  static constexpr std::uint32_t kTrenchB = 1;

 private:
  Jobs make_jobs(runtime::FleetRuntime& f) override;
  void schedule_timeline() override;
  void apply(const ChaosEvent& e);
  void arm_relearn_probe();
  void schedule_probe();
  void take_checkpoint();

  ChaosScenarioConfig config_;
  std::vector<ChaosEvent> timeline_;
  /// Cached at construction: event handlers must not walk the fleet's
  /// rack snapshots mid-run (FleetRuntime::metrics() reads every shard
  /// registry).
  telemetry::CounterSet* chaos_counters_ = nullptr;

  // Controller checkpoint/restart machinery.
  runtime::FleetControllerCheckpoint last_ckpt_;
  bool has_ckpt_ = false;
  bool probing_ = false;
  int probe_epochs_ = 0;
  int relearn_epochs_ = -1;
};

}  // namespace rsf::workload
