#include "core/controller.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace rsf::core {

using rsf::sim::SimTime;

CrcController::CrcController(rsf::sim::Simulator* sim, phy::PhysicalPlant* plant,
                             plp::PlpEngine* engine, fabric::Topology* topo,
                             fabric::Router* router, fabric::Network* net, CrcConfig config,
                             telemetry::Registry* registry)
    : sim_(sim),
      router_(router),
      config_(config),
      ring_(sim, plant, engine, topo, net),
      planner_(sim, engine, plant, topo),
      circuits_(sim, engine, plant, topo, router, net),
      fec_(engine, plant),
      power_(engine, plant, config.power),
      health_(engine, plant),
      own_registry_(registry ? nullptr : std::make_unique<telemetry::Registry>()),
      registry_(registry ? registry : own_registry_.get()),
      power_series_(registry_->series("crc.rack_power_w")),
      util_series_(registry_->series("crc.mean_utilization")),
      price_series_(registry_->series("crc.mean_price")),
      counters_(registry_->counters("crc")) {
  if (router_ == nullptr) throw std::invalid_argument("CrcController: null router");
  if (config_.epoch <= SimTime::zero()) {
    throw std::invalid_argument("CrcController: epoch must be positive");
  }
  if (config_.torus_trigger_epochs < 1) {
    throw std::invalid_argument("CrcController: torus_trigger_epochs < 1");
  }
  if (!std::isfinite(config_.torus_util_threshold)) {
    throw std::invalid_argument("CrcController: non-finite torus_util_threshold");
  }
  // The epoch cannot be shorter than one token circulation.
  if (config_.epoch < ring_.circulation_time()) {
    config_.epoch = ring_.circulation_time();
  }
}

void CrcController::start() {
  if (running_) return;
  running_ = true;
  last_circulation_ = sim_->now();
  router_->set_price_fn([this](phy::LinkId id) { return prices_.price(id); });
  tick();
}

void CrcController::stop() {
  running_ = false;
  if (next_tick_ != rsf::sim::kInvalidEventId) {
    sim_->cancel(next_tick_);
    next_tick_ = rsf::sim::kInvalidEventId;
  }
  router_->set_price_fn(nullptr);
}

void CrcController::tick() {
  if (!running_) return;
  const SimTime epoch_len = sim_->now() - last_circulation_;
  last_circulation_ = sim_->now();
  ring_.circulate(epoch_len == SimTime::zero() ? config_.epoch : epoch_len,
                  [this](const RackSnapshot& snap) {
                    if (running_) on_snapshot(snap);
                  });
  // Weak: the control loop must not keep the simulation alive once the
  // foreground workload has drained.
  next_tick_ = sim_->schedule_weak_after(config_.epoch, [this] { tick(); });
}

void CrcController::on_snapshot(const RackSnapshot& snapshot) {
  ++epochs_;
  counters_.add("crc.epochs");
  last_snapshot_ = snapshot;

  // 1. Price every link and publish to the router.
  prices_.update(snapshot, config_.weights);
  router_->bump_prices();

  // 2. Adaptive FEC.
  if (config_.enable_adaptive_fec) {
    const int changes = fec_.apply(snapshot);
    if (changes > 0) counters_.add("crc.fec_changes", static_cast<std::uint64_t>(changes));
  }

  // 3. Power cap.
  if (config_.enable_power_manager) {
    const int ops = power_.apply(snapshot);
    if (ops > 0) counters_.add("crc.power_ops", static_cast<std::uint64_t>(ops));
  }

  // 4. Link-health remediation (replace failed lanes from the dark
  // pool).
  if (config_.enable_health_manager) {
    const int ops = health_.apply(snapshot);
    if (ops > 0) counters_.add("crc.health_ops", static_cast<std::uint64_t>(ops));
  }

  // 5. Autonomous topology move.
  if (config_.enable_auto_torus && !torus_triggered_) maybe_trigger_torus(snapshot);

  // 6. Observability.
  const SimTime now = sim_->now();
  power_series_.record(now, snapshot.rack_power_watts);
  double util_sum = 0;
  double price_sum = 0;
  int ready = 0;
  for (const LinkObservation& obs : snapshot.links) {
    if (!obs.ready) continue;
    util_sum += obs.utilization;
    price_sum += price_link(obs, config_.weights);
    ++ready;
  }
  if (ready > 0) {
    util_series_.record(now, util_sum / ready);
    price_series_.record(now, price_sum / ready);
  }
}

void CrcController::maybe_trigger_torus(const RackSnapshot& snapshot) {
  double util_sum = 0;
  int counted = 0;
  for (const LinkObservation& obs : snapshot.links) {
    if (!obs.ready || obs.bypass_joints > 0) continue;
    util_sum += obs.utilization;
    ++counted;
  }
  if (counted == 0) return;
  const double mean = util_sum / counted;
  if (mean >= config_.torus_util_threshold) {
    ++hot_epochs_;
  } else {
    hot_epochs_ = 0;
  }
  if (hot_epochs_ >= config_.torus_trigger_epochs) {
    torus_triggered_ = true;
    counters_.add("crc.auto_torus_triggered");
    planner_.grid_to_torus([this](const TopologyPlanner::Report& report) {
      counters_.add("crc.torus_wraps_created",
                    static_cast<std::uint64_t>(report.wrap_links.size()));
      counters_.add("crc.torus_failures", static_cast<std::uint64_t>(report.failures));
    });
  }
}

void CrcController::request_grid_to_torus(TopologyPlanner::DoneCallback done) {
  torus_triggered_ = true;
  planner_.grid_to_torus(std::move(done));
}

}  // namespace rsf::core
