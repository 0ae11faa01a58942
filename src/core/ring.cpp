#include "core/ring.hpp"

#include <algorithm>
#include <memory>
#include <stdexcept>

namespace rsf::core {

using rsf::sim::SimTime;

ControlRing::ControlRing(rsf::sim::Simulator* sim, phy::PhysicalPlant* plant,
                         plp::PlpEngine* engine, fabric::Topology* topo,
                         fabric::Network* net)
    : sim_(sim), plant_(plant), engine_(engine), topo_(topo), net_(net) {
  if (sim_ == nullptr || plant_ == nullptr || engine_ == nullptr || topo_ == nullptr ||
      net_ == nullptr) {
    throw std::invalid_argument("ControlRing: null dependency");
  }
}

SimTime ControlRing::circulation_time() const {
  return (kHopLatency + kNodeProcessing) * static_cast<std::int64_t>(topo_->node_count());
}

void ControlRing::circulate(SimTime epoch_length, SnapshotCallback cb) {
  auto snap = std::make_shared<RackSnapshot>();
  snap->epoch_length = epoch_length;
  const SimTime per_node = kHopLatency + kNodeProcessing;
  const std::uint32_t n = topo_->node_count();
  // The token visits node i at i-th multiple of the per-node time; the
  // snapshot completes after the full loop.
  // Weak events: telemetry collection serves the workload, it must not
  // keep an otherwise-finished simulation running.
  for (std::uint32_t node = 0; node < n; ++node) {
    sim_->schedule_weak_after(per_node * static_cast<std::int64_t>(node + 1),
                              [this, node, epoch_length, snap] {
                                collect_node(node, epoch_length, snap.get());
                              });
  }
  // rsf-lint: cold-event(one snapshot completion per epoch; the shared_ptr + callback captures cannot be trivially copyable)
  sim_->schedule_weak_after(per_node * static_cast<std::int64_t>(n),
                       [this, snap, cb = std::move(cb)] {
                         snap->taken_at = sim_->now();
                         snap->rack_power_watts =
                             plant_->total_power_watts() + net_->switch_power_watts();
                         cb(*snap);
                       });
}

void ControlRing::collect_node(phy::NodeId node, SimTime epoch_length, RackSnapshot* snap) {
  for (phy::LinkId id : topo_->links_at(node)) {
    const phy::LogicalLink& l = plant_->link(id);
    // Each link reports at its lower-numbered endpoint only.
    if (std::min(l.end_a(), l.end_b()) != node) continue;

    LinkObservation obs;
    obs.link = id;
    obs.end_a = l.end_a();
    obs.end_b = l.end_b();
    obs.lane_count = l.lane_count();
    obs.bypass_joints = l.bypass_joints();
    obs.ready = topo_->usable(id);
    obs.unloaded_latency_ns = l.one_way_latency(phy::kReferenceFrame).ns();
    obs.effective_gbps = l.effective_rate().gbps_value();
    obs.worst_pre_fec_ber = l.worst_pre_fec_ber();
    obs.post_fec_ber = l.post_fec_ber();
    obs.frame_loss = l.frame_loss_prob(phy::kReferenceFrame);
    obs.power_watts = l.power_watts();
    obs.mean_queue_delay_ns = net_->link_mean_queue_delay(id).ns();

    if (id >= prev_busy_.size()) {
      prev_busy_.resize(id + 1, SimTime::zero());
      prev_packets_.resize(id + 1, 0);
    }
    const SimTime busy_now = net_->link_busy_time(id);
    const SimTime busy_prev = prev_busy_[id];
    prev_busy_[id] = busy_now;
    if (epoch_length > SimTime::zero()) {
      obs.utilization = (busy_now - busy_prev).ratio(epoch_length);
      if (obs.utilization < 0) obs.utilization = 0;
      if (obs.utilization > 1) obs.utilization = 1;
    }

    const std::uint64_t pkts_now = net_->link_packets(id);
    const std::uint64_t pkts_prev = prev_packets_[id];
    prev_packets_[id] = pkts_now;
    obs.packets_in_epoch = pkts_now - pkts_prev;

    snap->links.push_back(obs);
  }
}

}  // namespace rsf::core
