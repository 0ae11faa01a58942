// rsf::workload — cross-rack traffic patterns.
//
// The intra-rack workloads (ShuffleJob, FlowGenerator) address nodes
// of one Network; these patterns address (rack, node) pairs of a whole
// fleet and deliberately pick sources and destinations in *different*
// shards, because rate allocation, spine queueing and tail latency
// only show up once traffic crosses the rack boundary:
//
// CrossRackShuffle is the MapReduce barrier stretched over racks:
// every mapper sends to every reducer, mappers and reducers living in
// different shards (shuffle-between-racks). An incast — many sources
// across the fleet converging on one sink node, the spine's
// pathological case — is a shuffle with one reducer.
//
// The job drives FleetRuntime::start_flow and aggregates per-flow
// results into a job view (completion, straggler gap, spine hop
// counts). The fleet scenario families (workload/scenario.hpp) run
// their hot and background traffic as these jobs.
#pragma once

#include <cstdint>
#include <functional>
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

/// Fan-out/fan-in job: launches one fleet flow per (mapper, reducer)
/// pair at `start`, fires the done callback when the last lands.
class CrossRackShuffle {
 public:
  using DoneCallback = std::function<void(const CrossRackResult&)>;

  CrossRackShuffle(runtime::FleetRuntime* fleet, CrossRackShuffleConfig config);

  // The fleet's flow callbacks hold `this`.
  CrossRackShuffle(const CrossRackShuffle&) = delete;
  CrossRackShuffle& operator=(const CrossRackShuffle&) = delete;

  /// Launch all mapper->reducer flows at config.start. The callback
  /// fires when the last flow lands (the reducer barrier clears).
  /// Call once.
  void run(DoneCallback on_done);

  [[nodiscard]] bool finished() const { return finished_; }
  /// Live while the job runs: every field but median_flow tallies the
  /// flows that have landed so far.
  [[nodiscard]] const CrossRackResult& result() const { return result_; }
  /// Flows launched (0 before run()).
  [[nodiscard]] std::uint64_t offered() const { return offered_; }
  /// Completion times of the delivered flows, in landing order until
  /// the job finishes, ascending after.
  [[nodiscard]] const std::vector<rsf::sim::SimTime>& completion_times() const {
    return completion_times_;
  }

 private:
  runtime::FleetRuntime* fleet_;
  CrossRackShuffleConfig config_;
  DoneCallback on_done_;
  std::vector<rsf::sim::SimTime> completion_times_;
  std::uint64_t offered_ = 0;
  std::uint64_t outstanding_ = 0;
  bool finished_ = false;
  CrossRackResult result_;
};

}  // namespace rsf::workload
