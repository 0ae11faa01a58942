// rsf::workload — cross-rack traffic patterns.
//
// The intra-rack workloads (ShuffleJob, FlowGenerator) address nodes
// of one Network; these patterns address (rack, node) pairs of a whole
// fleet and deliberately pick sources and destinations in *different*
// shards, because rate allocation, spine queueing and tail latency
// only show up once traffic crosses the rack boundary:
//
//  * CrossRackShuffle — the MapReduce barrier stretched over racks:
//    every mapper sends to every reducer, mappers and reducers living
//    in different shards (shuffle-between-racks);
//  * CrossRackIncast  — all-to-all incast: many sources across the
//    fleet converge on one sink node, the spine's pathological case.
//
// Both drive FleetRuntime::start_flow and aggregate per-flow results
// into a job view (completion, straggler gap, spine hop counts).
//
// On top of the primitives sits the skewed-fleet scenario family
// (SkewedFleetScenario): canned fleets whose load is deliberately
// *not* uniform — a hot rack pair swamping one spine direction while
// background traffic shares it, one spine leg running at a fraction
// of its siblings' rate, and mixed rack sizes under a single
// spanning shuffle. Every scenario runs with the controller's
// reservation policy on or off, which is how the repro compares the
// paper's circuit-style (reserved capacity) and packet-style
// (statistical sharing) regimes end-to-end at fleet scale.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "fabric/interconnect.hpp"
#include "phy/units.hpp"
#include "sim/time.hpp"

namespace rsf::runtime {
class FleetRuntime;
}  // namespace rsf::runtime

namespace rsf::workload {

struct CrossRackShuffleConfig {
  std::vector<fabric::RackNode> mappers;
  std::vector<fabric::RackNode> reducers;
  /// Bytes each mapper sends to each reducer.
  phy::DataSize bytes_per_pair = phy::DataSize::megabytes(1);
  phy::DataSize packet_size = phy::DataSize::bytes(1024);
  rsf::sim::SimTime start = rsf::sim::SimTime::zero();
};

struct CrossRackIncastConfig {
  std::vector<fabric::RackNode> sources;
  fabric::RackNode sink;
  /// Bytes each source sends to the sink.
  phy::DataSize bytes_per_source = phy::DataSize::kilobytes(256);
  phy::DataSize packet_size = phy::DataSize::bytes(1024);
  rsf::sim::SimTime start = rsf::sim::SimTime::zero();
};

/// Aggregate view of one finished cross-rack job.
struct CrossRackResult {
  rsf::sim::SimTime job_completion = rsf::sim::SimTime::zero();
  rsf::sim::SimTime median_flow = rsf::sim::SimTime::zero();
  rsf::sim::SimTime max_flow = rsf::sim::SimTime::zero();
  std::uint64_t flows = 0;
  std::uint64_t failed = 0;
  /// Flows whose endpoints were in different racks.
  std::uint64_t cross_rack_flows = 0;
  /// Total spine links crossed, summed over flows.
  std::uint64_t spine_hops = 0;
  /// Fleet-level retransmits (spine losses, rack-leg drops), summed.
  std::uint64_t retransmits = 0;

  /// Straggler gap: how much the slowest transfer lags the median.
  [[nodiscard]] double straggler_ratio() const {
    return median_flow.ps() > 0
               ? static_cast<double>(max_flow.ps()) / static_cast<double>(median_flow.ps())
               : 0.0;
  }
};

/// Shared fan-out/fan-in engine: launches one fleet flow per (src,
/// dst) pair at `start`, fires the done callback when the last lands.
class CrossRackJob {
 public:
  using DoneCallback = std::function<void(const CrossRackResult&)>;

  virtual ~CrossRackJob() = default;

  /// Launch the job's flows at its configured start; the callback
  /// fires when the last flow lands. Call once.
  virtual void run(DoneCallback on_done) = 0;

  [[nodiscard]] bool finished() const { return finished_; }
  [[nodiscard]] const CrossRackResult& result() const { return result_; }

 protected:
  CrossRackJob(runtime::FleetRuntime* fleet, phy::DataSize packet_size,
               rsf::sim::SimTime start);

  /// Launch every (src, dst, bytes) tuple; call once.
  void launch(const std::vector<std::pair<fabric::RackNode, fabric::RackNode>>& pairs,
              phy::DataSize bytes_per_pair, DoneCallback on_done);

 private:
  runtime::FleetRuntime* fleet_;
  phy::DataSize packet_size_;
  rsf::sim::SimTime start_;
  DoneCallback on_done_;
  std::vector<rsf::sim::SimTime> completion_times_;
  std::uint64_t outstanding_ = 0;
  bool finished_ = false;
  CrossRackResult result_;
};

class CrossRackShuffle : public CrossRackJob {
 public:
  CrossRackShuffle(runtime::FleetRuntime* fleet, CrossRackShuffleConfig config);

  /// Launch all mapper->reducer flows at config.start. The callback
  /// fires when the last flow lands (the reducer barrier clears).
  void run(DoneCallback on_done) override;

 private:
  CrossRackShuffleConfig config_;
};

class CrossRackIncast : public CrossRackJob {
 public:
  CrossRackIncast(runtime::FleetRuntime* fleet, CrossRackIncastConfig config);

  /// Launch all source->sink flows at config.start.
  void run(DoneCallback on_done) override;

 private:
  CrossRackIncastConfig config_;
};

// ---------------------------------------------------------------------------
// Skewed-fleet scenarios: circuit vs. packet regimes under skew.
// ---------------------------------------------------------------------------

enum class SkewedScenarioKind {
  /// One rack's nodes swarm a single victim rack (a persistently hot
  /// (src, dst) pair) while background flows share the same spine
  /// direction — the canonical promotion target.
  kHotRackIncast,
  /// A spine ring where one leg runs at a fraction of its siblings'
  /// rate; the hot pair's direct route crosses the slow leg, so
  /// repricing and reservations pull in different directions.
  kSlowSpineLeg,
  /// Racks of different sizes (2x2, 4x4, 3x3) under one spanning
  /// shuffle, with a background incast fighting for the same spine.
  kMixedRackSizes,
};

struct SkewedScenarioConfig {
  SkewedScenarioKind kind = SkewedScenarioKind::kHotRackIncast;
  /// Reservation policy on the fleet controller. Off = pure packet
  /// sharing (the repricing controller itself always runs).
  bool reservations = false;
  /// Per-direction capacity carved per promoted pair. The circuit
  /// only beats statistical sharing when the carve exceeds the share
  /// the hot pair would win in the shared FIFO, so the default is a
  /// deliberate majority carve.
  double reservation_fraction = 0.6;
  /// Per-packet loss probability applied to every spine link.
  double loss_prob = 0.0;
  /// Controller utilisation repricing weight. 0 freezes prices
  /// entirely (the backlog repricing term is zeroed with it).
  double utilization_weight = 8.0;
  /// Seeds the fleet (spine loss sampler); same seed, same bytes.
  std::uint64_t seed = 1;
  /// Bytes the hot job moves per (src, dst) pair. Background pairs
  /// move the same amount, so the contention is sustained for the
  /// whole hot job — the regime where circuits pay off.
  phy::DataSize hot_bytes = phy::DataSize::kilobytes(192);
};

/// Aggregate view of one finished skewed scenario: the skewed (hot)
/// job against the background traffic sharing its spine, plus the
/// reservation-control outcome.
struct SkewedScenarioResult {
  CrossRackResult hot;
  CrossRackResult background;
  std::uint64_t promotions = 0;
  std::uint64_t demotions = 0;
  std::uint64_t preemptions = 0;
  std::uint64_t reserved_bytes = 0;
};

/// Builds the fleet for one SkewedScenarioKind, drives the hot and
/// background jobs to completion on one shared clock, and aggregates
/// the result. Deterministic: same config and seed, byte-identical
/// metrics (tested).
class SkewedFleetScenario {
 public:
  explicit SkewedFleetScenario(SkewedScenarioConfig config);
  ~SkewedFleetScenario();

  SkewedFleetScenario(const SkewedFleetScenario&) = delete;
  SkewedFleetScenario& operator=(const SkewedFleetScenario&) = delete;

  /// Run the scenario to completion; call once.
  SkewedScenarioResult run();

  /// The underlying fleet (valid for the scenario's lifetime).
  [[nodiscard]] runtime::FleetRuntime& fleet() { return *fleet_; }

 private:
  SkewedScenarioConfig config_;
  std::unique_ptr<runtime::FleetRuntime> fleet_;
  bool ran_ = false;
};

}  // namespace rsf::workload
