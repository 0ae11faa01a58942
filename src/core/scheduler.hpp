// rsf::core — the CRC flow scheduler.
//
// "…a control mechanism that also schedules flows according to the
// availability of PLPs" (paper §3). For every submitted flow the
// scheduler compares finishing over the packet fabric against paying
// for a dedicated physical-layer circuit: split a spare lane off each
// link along the path and chain them with bypasses into one direct
// link, so the flow crosses zero switching elements. The break-even
// model (breakeven.hpp) gates the decision; circuits are torn down
// and the lanes re-bundled when the flow lands.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "core/breakeven.hpp"
#include "fabric/network.hpp"
#include "fabric/router.hpp"
#include "fabric/topology.hpp"
#include "phy/plant.hpp"
#include "plp/engine.hpp"
#include "sim/simulator.hpp"

namespace rsf::core {

/// The scheduler's reasoning about one flow, exposed for benches and
/// tests (EXT2 prints these columns).
struct ScheduleDecision {
  bool use_circuit = false;
  rsf::sim::SimTime est_packet_completion = rsf::sim::SimTime::zero();
  rsf::sim::SimTime est_circuit_completion = rsf::sim::SimTime::zero();
  rsf::sim::SimTime est_setup = rsf::sim::SimTime::zero();
  std::optional<phy::DataSize> break_even = std::nullopt;
  int path_hops = 0;
};

class CircuitScheduler {
 public:
  using Callback = std::function<void(const fabric::FlowResult&, bool used_circuit)>;

  CircuitScheduler(rsf::sim::Simulator* sim, plp::PlpEngine* engine,
                   phy::PhysicalPlant* plant, fabric::Topology* topo,
                   fabric::Router* router, fabric::Network* net);

  /// Concurrent circuits the scheduler will hold; a flow that would
  /// exceed it runs on the packet fabric. Flows below 256 KB never
  /// consider a circuit (fast path).
  static constexpr int kMaxConcurrentCircuits = 4;

  /// Evaluate the circuit-vs-packet decision without acting.
  [[nodiscard]] ScheduleDecision decide(const fabric::FlowSpec& spec);

  /// Schedule the flow: builds a circuit first when decide() says so
  /// (falling back to the packet fabric if construction fails).
  void submit(const fabric::FlowSpec& spec, Callback cb = nullptr);

  [[nodiscard]] std::uint64_t circuits_built() const { return circuits_built_; }
  [[nodiscard]] std::uint64_t circuit_flows() const { return circuit_flows_; }
  [[nodiscard]] std::uint64_t packet_flows() const { return packet_flows_; }
  [[nodiscard]] int active_circuits() const { return active_circuits_; }

 private:
  struct CircuitPlan {
    std::vector<phy::LinkId> path_links;
    phy::DataRate circuit_rate = phy::DataRate::zero();
    phy::DataRate packet_rate = phy::DataRate::zero();
    rsf::sim::SimTime packet_latency_overhead = rsf::sim::SimTime::zero();
    rsf::sim::SimTime circuit_prop = rsf::sim::SimTime::zero();
    rsf::sim::SimTime setup = rsf::sim::SimTime::zero();
  };

  [[nodiscard]] std::optional<CircuitPlan> plan_for(const fabric::FlowSpec& spec);
  void run_packet(const fabric::FlowSpec& spec, Callback cb);
  void build_and_run(const fabric::FlowSpec& spec, CircuitPlan plan, Callback cb);
  void teardown(phy::LinkId circuit, std::vector<phy::LinkId> kept_links);

  rsf::sim::Simulator* sim_;
  plp::PlpEngine* engine_;
  phy::PhysicalPlant* plant_;
  fabric::Topology* topo_;
  fabric::Router* router_;
  fabric::Network* net_;
  std::uint64_t circuits_built_ = 0;
  std::uint64_t circuit_flows_ = 0;
  std::uint64_t packet_flows_ = 0;
  int active_circuits_ = 0;
};

}  // namespace rsf::core
