// rsf::workload — the one fleet scenario driver.
//
// Three scenario families replay the paper's circuit-vs-packet trade
// at fleet scale: skewed fleets (SkewedFleetScenario), the slotted
// crossover (SlottedFleetScenario) and correlated failures
// (ChaosScenario). Each supplies only its fleet shape, its hot and
// background CrossRackShuffles and its weak-event timeline; the shared
// rack, spine and booking pieces, the drive (launch, start, run to the
// horizon, stop, drain), the verifier and the result live here. The
// verifier checks every run for conservation (offered = delivered +
// failed + in-flight, and the jobs agree with the FleetRuntime's own
// counters), completion before the horizon (a hang shows up as
// in-flight-at-cutoff, never as a wedged process) and slot-pool
// quiescence. Same config and seed, byte-identical metrics.
#pragma once

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "phy/units.hpp"
#include "runtime/fleet.hpp"
#include "sim/time.hpp"
#include "workload/crossrack.hpp"

namespace rsf::workload {

/// One finished fleet scenario run: the hot traffic against the
/// background sharing its spine, the booking mechanics, and the
/// verifier's verdicts.
struct FleetScenarioResult {
  /// Every hot (background) job folded into one view: tallies add,
  /// times take the max across jobs (the median: the worst job's).
  CrossRackResult hot;
  CrossRackResult background;

  // --- booking mechanics (fleet and spine counters) ---
  /// Carve and slot promotions (demotions) summed; the fleet counters
  /// survive a controller restart.
  std::uint64_t promotions = 0;
  std::uint64_t demotions = 0;
  std::uint64_t schedule_splits = 0;
  std::uint64_t slot_reservations = 0;
  std::uint64_t slot_expirations = 0;
  std::uint64_t slot_preemptions = 0;
  std::uint64_t slot_refusals = 0;
  std::uint64_t slotted_bytes = 0;
  std::uint64_t reserved_bytes = 0;
  std::uint64_t reservation_preemptions = 0;

  // --- the verifier ---
  std::uint64_t flows_offered = 0;
  std::uint64_t flows_delivered = 0;
  std::uint64_t flows_failed = 0;
  std::uint64_t flows_inflight_at_cutoff = 0;
  bool conservation_ok = false;
  bool completed_before_horizon = false;
  /// Completed runs only: flow and packet pools free == total.
  bool slots_at_baseline = false;

  [[nodiscard]] bool verified() const {
    return conservation_ok && completed_before_horizon && slots_at_baseline;
  }
};

// --- the families' shared fleet pieces ---

/// A w x h grid rack with its CRC off (isolates the fleet-scope
/// control loop).
runtime::RackSpec grid_rack(int w, int h);

/// A 2 µs spine link between racks a and b.
runtime::SpineSpec spine_link(std::uint32_t a, std::uint32_t b, double gbps, double loss_prob,
                              double cost = 1.0);

/// A fleet with no racks or spine yet and the families' controller:
/// 20 µs epochs, repricing at `utilization_weight` (0 freezes prices,
/// the backlog term included), and one booking hysteresis — hot at
/// 8 KiB and idle at 1 KiB of byte·hops per epoch, promote after 2 —
/// booking a 0.6 carve or 6-of-8 slots per `discipline`.
runtime::FleetConfig scenario_fleet(std::uint64_t seed, double utilization_weight,
                                    runtime::BookingDiscipline discipline, int demote_after,
                                    std::size_t max_pairs);

/// The hot-rack incast on a fleet of at least four 4x4 racks: rack 3's
/// row-0 nodes swarm sink (0, 0, 0) while racks 1 and 2 feed a second
/// sink (0, 3, 3) through the same inbound legs. Every source moves
/// `bytes`. Returns {hot, background}.
std::pair<CrossRackShuffle*, CrossRackShuffle*> hot_rack_incast(runtime::FleetRuntime& f,
                                                                phy::DataSize bytes);

/// The driver: owns the FleetRuntime, launches a family's jobs, drives
/// the run and verifies it. A family supplies its fleet, its jobs and
/// (optionally) its timeline.
class FleetScenario {
 public:
  virtual ~FleetScenario();

  FleetScenario(const FleetScenario&) = delete;
  FleetScenario& operator=(const FleetScenario&) = delete;

  /// The underlying fleet (valid for the scenario's lifetime) — tests
  /// byte-diff fleet().metrics_table() across seeds and reruns.
  [[nodiscard]] runtime::FleetRuntime& fleet() { return *fleet_; }

 protected:
  struct Jobs {
    std::vector<CrossRackShuffle*> hot;
    std::vector<CrossRackShuffle*> background;
  };
  enum class OnViolation { kThrow, kReport };

  /// Builds the fleet (its controller must be enabled); `name`
  /// prefixes every error. Throws std::invalid_argument for a
  /// non-positive hot_bytes.
  FleetScenario(const char* name, runtime::FleetConfig config, phy::DataSize hot_bytes);

  /// The family's traffic, built on the fleet when the run starts.
  virtual Jobs make_jobs(runtime::FleetRuntime& f) = 0;
  /// Weak events scheduled after every flow start and before the
  /// fleet starts. Weak: a timeline never keeps a drained fleet alive.
  virtual void schedule_timeline() {}

  /// The one run: launch, drive to `horizon`, verify, snapshot. Call
  /// once. kThrow raises std::logic_error on a violated invariant;
  /// kReport returns the verdicts in the result.
  FleetScenarioResult drive(OnViolation on_violation,
                            rsf::sim::SimTime horizon = rsf::sim::SimTime::infinity());

  /// The jobs of the run (empty before drive()).
  [[nodiscard]] const Jobs& jobs() const { return jobs_; }

 private:
  const char* name_;
  std::unique_ptr<runtime::FleetRuntime> fleet_;
  /// The registry's "fleet" counter set: it outlives a killed
  /// controller, so the snapshot never needs one alive.
  const telemetry::CounterSet* fleet_counters_;
  Jobs jobs_;
  bool ran_ = false;
};

}  // namespace rsf::workload
