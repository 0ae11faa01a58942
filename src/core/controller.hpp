// rsf::core — the Closed Ring Control (the paper's contribution).
//
// CrcController runs the closed loop: every epoch a telemetry token
// circulates the control ring (sense), the snapshot is priced
// (decide), and PLP commands actuate the decisions (act) — adaptive
// FEC, power-cap lane shedding, and topology moves like Figure 2's
// grid -> torus conversion, triggered either programmatically or
// autonomously when sustained utilisation shows the grid is the
// bottleneck. Prices are published to the Router so forwarding is
// always cost-aware. Everything the controller does is observable
// through time series for the reaction-time benches.
#pragma once

#include <memory>
#include <optional>

#include "core/fec_adapter.hpp"
#include "core/health_manager.hpp"
#include "core/observations.hpp"
#include "core/power_manager.hpp"
#include "core/price.hpp"
#include "core/reconfig.hpp"
#include "core/ring.hpp"
#include "core/scheduler.hpp"
#include "fabric/network.hpp"
#include "fabric/router.hpp"
#include "fabric/topology.hpp"
#include "phy/plant.hpp"
#include "plp/engine.hpp"
#include "sim/simulator.hpp"
#include "telemetry/counters.hpp"
#include "telemetry/registry.hpp"
#include "telemetry/series.hpp"

namespace rsf::core {

struct CrcConfig {
  /// Control epoch. Must be positive (the constructor throws
  /// otherwise) and should exceed the ring circulation time; the
  /// controller stretches a shorter one.
  rsf::sim::SimTime epoch = rsf::sim::SimTime::microseconds(100);
  PriceWeights weights = PriceWeights::balanced();

  bool enable_adaptive_fec = false;

  bool enable_power_manager = false;
  PowerManagerConfig power;

  bool enable_health_manager = false;

  /// Autonomous Figure-2 trigger: convert grid to torus after
  /// `torus_trigger_epochs` consecutive epochs of mean adjacent-link
  /// utilisation above `torus_util_threshold`. The constructor
  /// rejects a trigger count below 1 and a non-finite threshold.
  bool enable_auto_torus = false;
  double torus_util_threshold = 0.45;
  int torus_trigger_epochs = 2;
};

class CrcController {
 public:
  /// Metrics land in `registry` under "crc.*" when one is supplied
  /// (the FabricRuntime passes its own); without one the controller
  /// owns a private registry, keeping direct construction in unit
  /// tests working.
  CrcController(rsf::sim::Simulator* sim, phy::PhysicalPlant* plant, plp::PlpEngine* engine,
                fabric::Topology* topo, fabric::Router* router, fabric::Network* net,
                CrcConfig config = {}, telemetry::Registry* registry = nullptr);

  CrcController(const CrcController&) = delete;
  CrcController& operator=(const CrcController&) = delete;

  /// Begin epoch ticking (first circulation launches immediately).
  void start();
  void stop();
  [[nodiscard]] bool running() const { return running_; }

  /// Programmatic Figure-2 move (benches drive this directly).
  void request_grid_to_torus(TopologyPlanner::DoneCallback done);

  [[nodiscard]] TopologyPlanner& planner() { return planner_; }
  [[nodiscard]] CircuitScheduler& circuits() { return circuits_; }
  [[nodiscard]] FecAdapter& fec_adapter() { return fec_; }
  [[nodiscard]] PowerManager& power_manager() { return power_; }
  [[nodiscard]] HealthManager& health_manager() { return health_; }
  [[nodiscard]] const PriceBook& prices() const { return prices_; }
  [[nodiscard]] const CrcConfig& config() const { return config_; }

  [[nodiscard]] std::uint64_t epochs_completed() const { return epochs_; }
  [[nodiscard]] const std::optional<RackSnapshot>& last_snapshot() const {
    return last_snapshot_;
  }

  // Reaction-time observability.
  [[nodiscard]] const telemetry::TimeSeries& power_series() const { return power_series_; }
  [[nodiscard]] const telemetry::TimeSeries& utilization_series() const {
    return util_series_;
  }
  [[nodiscard]] const telemetry::CounterSet& counters() const { return counters_; }

 private:
  void tick();
  void on_snapshot(const RackSnapshot& snapshot);
  void maybe_trigger_torus(const RackSnapshot& snapshot);

  rsf::sim::Simulator* sim_;
  fabric::Router* router_;
  CrcConfig config_;
  ControlRing ring_;
  TopologyPlanner planner_;
  CircuitScheduler circuits_;
  FecAdapter fec_;
  PowerManager power_;
  HealthManager health_;
  PriceBook prices_;

  bool running_ = false;
  rsf::sim::EventId next_tick_ = rsf::sim::kInvalidEventId;
  rsf::sim::SimTime last_circulation_ = rsf::sim::SimTime::zero();
  std::uint64_t epochs_ = 0;
  int hot_epochs_ = 0;
  bool torus_triggered_ = false;
  std::optional<RackSnapshot> last_snapshot_;

  // Instruments live in the registry (owned locally only when the
  // caller supplied none).
  std::unique_ptr<telemetry::Registry> own_registry_;
  telemetry::Registry* registry_;
  telemetry::TimeSeries& power_series_;
  telemetry::TimeSeries& util_series_;
  telemetry::TimeSeries& price_series_;
  telemetry::CounterSet& counters_;
};

}  // namespace rsf::core
