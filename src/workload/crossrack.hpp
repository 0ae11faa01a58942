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
// into a job view (completion, straggler gap, spine hop counts). The
// fleet scenario families (workload/scenario.hpp) run their hot and
// background traffic as these jobs.
#pragma once

#include <cstdint>
#include <functional>
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
  std::uint64_t offered_ = 0;
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

}  // namespace rsf::workload
