#include "workload/crossrack.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "runtime/fleet.hpp"

namespace rsf::workload {

using rsf::sim::SimTime;

CrossRackJob::CrossRackJob(runtime::FleetRuntime* fleet, phy::DataSize packet_size,
                           SimTime start)
    : fleet_(fleet), packet_size_(packet_size), start_(start) {
  if (fleet_ == nullptr) throw std::invalid_argument("CrossRackJob: null fleet");
}

void CrossRackJob::launch(
    const std::vector<std::pair<fabric::RackNode, fabric::RackNode>>& pairs,
    phy::DataSize bytes_per_pair, DoneCallback on_done) {
  if (offered_ > 0) throw std::logic_error("CrossRackJob: run() called twice");
  if (pairs.empty()) throw std::invalid_argument("CrossRackJob: no (src, dst) pairs");
  on_done_ = std::move(on_done);
  offered_ = pairs.size();
  outstanding_ = pairs.size();
  completion_times_.reserve(pairs.size());
  fabric::FlowId job_flow = 1;
  for (const auto& [src, dst] : pairs) {
    runtime::FleetFlowSpec spec;
    spec.id = job_flow++;
    spec.src = src;
    spec.dst = dst;
    spec.size = bytes_per_pair;
    spec.packet_size = packet_size_;
    spec.start = start_;
    if (src.rack != dst.rack) ++result_.cross_rack_flows;
    fleet_->start_flow(spec, [this](const runtime::FleetFlowResult& r) {
      ++result_.flows;
      if (r.failed) {
        ++result_.failed;
      } else {
        completion_times_.push_back(r.completion_time());
        result_.max_flow = std::max(result_.max_flow, r.completion_time());
        result_.job_completion = std::max(result_.job_completion, r.finished);
      }
      result_.spine_hops += static_cast<std::uint64_t>(r.spine_hops);
      result_.retransmits += r.retransmits;
      if (--outstanding_ == 0) {
        std::sort(completion_times_.begin(), completion_times_.end());
        if (!completion_times_.empty()) {
          result_.median_flow = completion_times_[completion_times_.size() / 2];
        }
        finished_ = true;
        if (on_done_) on_done_(result_);
      }
    });
  }
}

CrossRackShuffle::CrossRackShuffle(runtime::FleetRuntime* fleet,
                                   CrossRackShuffleConfig config)
    : CrossRackJob(fleet, config.packet_size, config.start), config_(std::move(config)) {
  if (config_.mappers.empty() || config_.reducers.empty()) {
    throw std::invalid_argument("CrossRackShuffle: need mappers and reducers");
  }
}

void CrossRackShuffle::run(DoneCallback on_done) {
  std::vector<std::pair<fabric::RackNode, fabric::RackNode>> pairs;
  pairs.reserve(config_.mappers.size() * config_.reducers.size());
  for (const fabric::RackNode& m : config_.mappers) {
    for (const fabric::RackNode& r : config_.reducers) {
      if (m == r) continue;  // a node keeps its own partition locally
      pairs.emplace_back(m, r);
    }
  }
  if (pairs.empty()) {
    throw std::invalid_argument("CrossRackShuffle: every mapper is its own reducer");
  }
  launch(pairs, config_.bytes_per_pair, std::move(on_done));
}

CrossRackIncast::CrossRackIncast(runtime::FleetRuntime* fleet, CrossRackIncastConfig config)
    : CrossRackJob(fleet, config.packet_size, config.start), config_(std::move(config)) {
  if (config_.sources.empty()) {
    throw std::invalid_argument("CrossRackIncast: need sources");
  }
}

void CrossRackIncast::run(DoneCallback on_done) {
  std::vector<std::pair<fabric::RackNode, fabric::RackNode>> pairs;
  pairs.reserve(config_.sources.size());
  for (const fabric::RackNode& s : config_.sources) {
    if (s == config_.sink) continue;
    pairs.emplace_back(s, config_.sink);
  }
  if (pairs.empty()) {
    throw std::invalid_argument("CrossRackIncast: sink is the only source");
  }
  launch(pairs, config_.bytes_per_source, std::move(on_done));
}

}  // namespace rsf::workload
