// rsf::workload — open-loop flow generation.
//
// FlowGenerator injects flows into a Network as a Poisson process:
// per-source exponential inter-arrivals, destinations drawn from a
// TrafficMatrix, sizes from a configurable distribution (fixed or
// bounded-Pareto heavy tail, the empirical shape of data-centre flow
// sizes). The generator tracks every result so benches can report
// completion-time distributions per experiment. Results are kept in a
// deque: it grows by chunks, so a long run never holds an old and a
// new copy of every result at once, as a doubling vector does.
#pragma once

#include <deque>
#include <functional>
#include <memory>

#include "fabric/network.hpp"
#include "sim/random.hpp"
#include "sim/simulator.hpp"
#include "telemetry/histogram.hpp"
#include "workload/traffic.hpp"

namespace rsf::workload {

struct SizeDistribution {
  enum class Kind { kFixed, kBoundedPareto };
  Kind kind = Kind::kFixed;
  phy::DataSize fixed = phy::DataSize::kilobytes(64);
  /// Bounded-Pareto parameters (bytes).
  double pareto_alpha = 1.2;
  double pareto_min_bytes = 1e3;
  double pareto_max_bytes = 1e7;

  [[nodiscard]] phy::DataSize sample(rsf::sim::RandomStream& rng) const;

  [[nodiscard]] static SizeDistribution fixed_size(phy::DataSize s) {
    SizeDistribution d;
    d.kind = Kind::kFixed;
    d.fixed = s;
    return d;
  }
  [[nodiscard]] static SizeDistribution heavy_tail(double alpha, double min_bytes,
                                                   double max_bytes) {
    SizeDistribution d;
    d.kind = Kind::kBoundedPareto;
    d.pareto_alpha = alpha;
    d.pareto_min_bytes = min_bytes;
    d.pareto_max_bytes = max_bytes;
    return d;
  }
};

struct GeneratorConfig {
  /// Mean flow inter-arrival per source node.
  rsf::sim::SimTime mean_interarrival = rsf::sim::SimTime::microseconds(100);
  SizeDistribution sizes;
  phy::DataSize packet_size = phy::DataSize::bytes(1024);
  std::uint64_t seed = 7;
  /// Stop generating after this time (generation only; flows drain).
  rsf::sim::SimTime horizon = rsf::sim::SimTime::milliseconds(10);
  /// First flow id used; set distinct bases when several generators
  /// share one Network (ids must be unique per network).
  fabric::FlowId first_flow_id = 1;
};

class FlowGenerator {
 public:
  FlowGenerator(rsf::sim::Simulator* sim, fabric::Network* net, TrafficMatrix matrix,
                GeneratorConfig config);

  /// Arm per-source arrival processes from `start`.
  void start(rsf::sim::SimTime start = rsf::sim::SimTime::zero());

  [[nodiscard]] std::uint64_t flows_generated() const { return generated_; }
  [[nodiscard]] const std::deque<fabric::FlowResult>& results() const { return results_; }
  [[nodiscard]] telemetry::Histogram completion_histogram() const;
  /// Aggregate goodput over completed flows: bytes / (last finish -
  /// first start).
  [[nodiscard]] double goodput_gbps() const;

 private:
  void arm_next(phy::NodeId src);
  void fire(phy::NodeId src);

  rsf::sim::Simulator* sim_;
  fabric::Network* net_;
  TrafficMatrix matrix_;
  GeneratorConfig config_;
  rsf::sim::RandomStream rng_;
  std::uint64_t generated_ = 0;
  fabric::FlowId next_flow_id_;
  std::deque<fabric::FlowResult> results_;
};

}  // namespace rsf::workload
