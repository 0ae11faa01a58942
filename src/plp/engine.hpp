// rsf::plp — the PLP execution engine.
//
// PlpEngine is the actuator between the control plane and the physical
// plant. It executes PlpCommands asynchronously on the simulator:
// each primitive has an actuation latency (the plp::k* latency constants),
// links under reconfiguration are marked busy in the plant (their
// lanes retrain, so the fabric sees them not-ready), and completion
// fires a callback. The engine notifies nobody: every plant mutation
// it makes, busy bits included, moves the plant's version(), which is
// all routing keys on.
//
// Commands referencing busy links queue FIFO; commands referencing
// links destroyed while queued fail cleanly. One engine serves the
// whole rack — it models the rack's management plane, not a CPU.
#pragma once

#include <deque>
#include <functional>
#include <vector>

#include "phy/plant.hpp"
#include "plp/command.hpp"
#include "sim/simulator.hpp"
#include "telemetry/counters.hpp"

namespace rsf::plp {

// Actuation latency of each primitive, calibrated to published
// reconfigurable-fabric figures: electrical circuit setup in the low
// microseconds (Shoal), lane retrain tens of microseconds for
// PAM4 refresh-style retraining, sub-µs management overhead.
inline constexpr rsf::sim::SimTime kCommandOverhead = rsf::sim::SimTime::nanoseconds(500);
inline constexpr rsf::sim::SimTime kSplit = rsf::sim::SimTime::microseconds(1);
inline constexpr rsf::sim::SimTime kBundle = rsf::sim::SimTime::microseconds(1);
inline constexpr rsf::sim::SimTime kBypassSetup = rsf::sim::SimTime::microseconds(5);
inline constexpr rsf::sim::SimTime kBypassTeardown = rsf::sim::SimTime::microseconds(5);
inline constexpr rsf::sim::SimTime kLanePowerOn = rsf::sim::SimTime::microseconds(10);
inline constexpr rsf::sim::SimTime kLaneRetrain = rsf::sim::SimTime::microseconds(50);
inline constexpr rsf::sim::SimTime kLanePowerOff = rsf::sim::SimTime::microseconds(1);
inline constexpr rsf::sim::SimTime kFecSwitch = rsf::sim::SimTime::microseconds(2);
inline constexpr rsf::sim::SimTime kStatsQuery = rsf::sim::SimTime::nanoseconds(200);

/// Which primitives the underlying media supports (paper §2: a medium
/// provides "some subset of the Physical Layer Primitives").
struct PlpCapabilities {
  bool split_bundle = true;
  bool bypass = true;
  bool on_off = true;
  bool adaptive_fec = true;
  bool stats = true;

  [[nodiscard]] static PlpCapabilities all() { return {}; }
  [[nodiscard]] bool supports(const PlpCommand& cmd) const;
};

class PlpEngine {
 public:
  using Callback = std::function<void(const PlpResult&)>;

  PlpEngine(rsf::sim::Simulator* sim, phy::PhysicalPlant* plant,
            PlpCapabilities caps = PlpCapabilities::all());

  PlpEngine(const PlpEngine&) = delete;
  PlpEngine& operator=(const PlpEngine&) = delete;

  /// Submit a command. Executes immediately if its links are idle,
  /// otherwise queues. The callback (optional) fires on completion or
  /// failure, at simulated completion time.
  void submit(PlpCommand cmd, Callback callback = nullptr);

  /// Synchronous convenience used at rack bring-up (before the clock
  /// starts): power + train a link with no simulated delay.
  void instant_bring_up(phy::LinkId link);

  [[nodiscard]] std::size_t queued_commands() const { return queue_.size(); }
  [[nodiscard]] const PlpCapabilities& capabilities() const { return caps_; }
  [[nodiscard]] const telemetry::CounterSet& counters() const { return counters_; }

  /// Build a PLP #5 stats report for a link (also available without
  /// going through a command, for zero-cost in-process consumers).
  [[nodiscard]] LinkStatsReport stats_report(phy::LinkId id) const;

 private:
  struct Pending {
    PlpCommand cmd;
    Callback callback;
  };

  void try_execute(Pending pending);
  void execute_now(Pending pending);
  void finish(Pending pending, PlpResult result);
  void fail(const Pending& pending, std::string error);
  void drain_queue();
  void set_busy(const std::vector<phy::LinkId>& links, bool busy);

  // Per-primitive implementations. Each returns the simulated duration
  // and schedules the plant mutation appropriately.
  void run_split(Pending pending);
  void run_bundle(Pending pending);
  void run_bypass_join(Pending pending);
  void run_bypass_sever(Pending pending);
  void run_bring_up(Pending pending);
  void run_shutdown(Pending pending);
  void run_set_fec(Pending pending);
  void run_query_stats(Pending pending);
  void run_provision(Pending pending);
  void run_decommission(Pending pending);

  rsf::sim::Simulator* sim_;
  phy::PhysicalPlant* plant_;
  PlpCapabilities caps_;
  std::deque<Pending> queue_;
  telemetry::CounterSet counters_;
};

}  // namespace rsf::plp
