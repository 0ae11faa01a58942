#include "core/scheduler.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "core/reconfig.hpp"

namespace rsf::core {

using rsf::phy::DataRate;
using rsf::phy::DataSize;
using rsf::sim::SimTime;

namespace {
/// Flows below this never consider a circuit (fast path).
constexpr DataSize kMinCircuitSize = DataSize::kilobytes(256);
}  // namespace

CircuitScheduler::CircuitScheduler(rsf::sim::Simulator* sim, plp::PlpEngine* engine,
                                   phy::PhysicalPlant* plant, fabric::Topology* topo,
                                   fabric::Router* router, fabric::Network* net)
    : sim_(sim),
      engine_(engine),
      plant_(plant),
      topo_(topo),
      router_(router),
      net_(net) {
  if (sim_ == nullptr || engine_ == nullptr || plant_ == nullptr || topo_ == nullptr ||
      router_ == nullptr || net_ == nullptr) {
    throw std::invalid_argument("CircuitScheduler: null dependency");
  }
}

std::optional<CircuitScheduler::CircuitPlan> CircuitScheduler::plan_for(
    const fabric::FlowSpec& spec) {
  const std::vector<phy::LinkId> path = router_->path(spec.src, spec.dst);
  if (path.size() < 2) return std::nullopt;  // already adjacent (or unreachable)

  CircuitPlan plan;
  plan.path_links = path;
  DataRate bottleneck = DataRate::gbps(1e9);
  DataRate circuit_rate = DataRate::gbps(1e9);
  SimTime prop_total = SimTime::zero();
  const SimTime lifetime = sim_->now();
  for (phy::LinkId id : path) {
    const phy::LogicalLink& l = plant_->link(id);
    // A circuit needs a spare lane on an adjacent, idle-to-actuate link.
    if (l.bypass_joints() != 0 || l.lane_count() < 2 || plant_->link_busy(id)) {
      return std::nullopt;
    }
    // What the packet fabric can actually give this flow is the link's
    // effective rate minus what competing traffic already consumes
    // (PLP #5 utilisation). The circuit, in contrast, is dedicated.
    double util = 0.0;
    if (lifetime > SimTime::zero()) {
      util = std::clamp(net_->link_busy_time(id).ratio(lifetime), 0.0, 0.95);
    }
    bottleneck = std::min(bottleneck, l.effective_rate() * (1.0 - util));
    // The spare circuit gets 1 of the link's lanes.
    circuit_rate = std::min(
        circuit_rate, l.fec().effective_rate(l.raw_rate() *
                                             (1.0 / static_cast<double>(l.lane_count()))));
    prop_total += l.propagation_delay();
  }
  plan.packet_rate = bottleneck;
  plan.circuit_rate = circuit_rate;

  const auto hops = static_cast<std::int64_t>(path.size());
  plan.packet_latency_overhead =
      prop_total + fabric::kSwitchLatency * (hops - 1) + fabric::kNicLatency * std::int64_t{2};
  plan.circuit_prop =
      prop_total + phy::kBypassLatency * (hops - 1) + fabric::kNicLatency * std::int64_t{2};

  // Setup: all splits run concurrently, joins tree-reduce.
  const SimTime split_stage = plp::kCommandOverhead + plp::kSplit;
  const auto join_rounds = static_cast<std::int64_t>(
      std::ceil(std::log2(static_cast<double>(path.size()))));
  const SimTime join_stage =
      (plp::kCommandOverhead + plp::kBypassSetup + plp::kLaneRetrain) * join_rounds;
  plan.setup = split_stage + join_stage;
  return plan;
}

ScheduleDecision CircuitScheduler::decide(const fabric::FlowSpec& spec) {
  ScheduleDecision d;
  auto plan = plan_for(spec);
  if (!plan) return d;

  d.path_hops = static_cast<int>(plan->path_links.size());
  d.est_setup = plan->setup;
  d.est_packet_completion =
      completion_time(spec.size, plan->packet_rate, plan->packet_latency_overhead);
  d.est_circuit_completion = completion_time(spec.size, plan->circuit_rate,
                                             plan->setup + plan->circuit_prop);
  d.break_even = break_even_size(plan->packet_rate, plan->circuit_rate, plan->setup);
  d.use_circuit = spec.size >= kMinCircuitSize &&
                  active_circuits_ < kMaxConcurrentCircuits &&
                  d.est_circuit_completion < d.est_packet_completion;
  return d;
}

void CircuitScheduler::submit(const fabric::FlowSpec& spec, Callback cb) {
  auto plan = plan_for(spec);
  if (!plan) {
    run_packet(spec, std::move(cb));
    return;
  }
  const ScheduleDecision d = decide(spec);
  if (!d.use_circuit) {
    run_packet(spec, std::move(cb));
    return;
  }
  build_and_run(spec, std::move(*plan), std::move(cb));
}

void CircuitScheduler::run_packet(const fabric::FlowSpec& spec, Callback cb) {
  ++packet_flows_;
  net_->start_flow(spec, [cb = std::move(cb)](const fabric::FlowResult& r) {
    if (cb) cb(r, /*used_circuit=*/false);
  });
}

void CircuitScheduler::build_and_run(const fabric::FlowSpec& spec, CircuitPlan plan,
                                     Callback cb) {
  ++active_circuits_;
  const int keep = plant_->link(plan.path_links.front()).lane_count() - 1;
  split_many(
      engine_, plan.path_links, keep,
      [this, spec, cb = std::move(cb)](std::vector<std::optional<SplitOutcome>> outs) mutable {
        std::vector<phy::LinkId> spares;
        std::vector<phy::LinkId> kept;
        for (const auto& o : outs) {
          if (!o) break;
          spares.push_back(o->spare);
          kept.push_back(o->kept);
        }
        if (spares.size() != outs.size()) {
          // Partial failure: re-bundle what we split and fall back.
          for (std::size_t i = 0; i < spares.size(); ++i) {
            engine_->submit(plp::BundleCommand{kept[i], spares[i]});
          }
          --active_circuits_;
          run_packet(spec, std::move(cb));
          return;
        }
        chain_bypass(
            engine_, spares,
            [this, spec, kept = std::move(kept),
             cb = std::move(cb)](std::optional<phy::LinkId> circuit) mutable {
              if (!circuit) {
                --active_circuits_;
                run_packet(spec, std::move(cb));
                return;
              }
              ++circuits_built_;
              ++circuit_flows_;
              // Dedicate the circuit: public routing no longer sees it
              // and only this flow's packets cross it.
              plant_->set_reservation(*circuit, spec.id);
              fabric::FlowSpec launched = spec;
              launched.start = sim_->now();
              net_->start_flow(
                  launched, [this, circuit = *circuit, kept = std::move(kept),
                             cb = std::move(cb)](const fabric::FlowResult& r) mutable {
                    if (cb) cb(r, /*used_circuit=*/true);
                    teardown(circuit, std::move(kept));
                  });
            });
      });
}

void CircuitScheduler::teardown(phy::LinkId circuit, std::vector<phy::LinkId> kept_links) {
  unchain_bypass(
      engine_, plant_, circuit,
      [this, kept_links = std::move(kept_links)](std::vector<phy::LinkId> pieces) {
        --active_circuits_;
        // Pieces come back in path order; re-bundle with the sibling
        // that kept serving the packet fabric.
        for (std::size_t i = 0; i < pieces.size() && i < kept_links.size(); ++i) {
          if (plant_->has_link(kept_links[i]) && plant_->has_link(pieces[i])) {
            engine_->submit(plp::BundleCommand{kept_links[i], pieces[i]});
          }
        }
      });
}

}  // namespace rsf::core
