#include "workload/crossrack.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "runtime/fleet.hpp"

namespace rsf::workload {

CrossRackShuffle::CrossRackShuffle(runtime::FleetRuntime* fleet,
                                   CrossRackShuffleConfig config)
    : fleet_(fleet), config_(std::move(config)) {
  if (fleet_ == nullptr) throw std::invalid_argument("CrossRackShuffle: null fleet");
  if (config_.mappers.empty() || config_.reducers.empty()) {
    throw std::invalid_argument("CrossRackShuffle: need mappers and reducers");
  }
}

void CrossRackShuffle::run(DoneCallback on_done) {
  if (offered_ > 0) throw std::logic_error("CrossRackShuffle: run() called twice");
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
    spec.size = config_.bytes_per_pair;
    spec.packet_size = config_.packet_size;
    spec.start = config_.start;
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

}  // namespace rsf::workload
