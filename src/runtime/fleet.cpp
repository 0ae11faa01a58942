#include "runtime/fleet.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <utility>

namespace rsf::runtime {

FleetRuntime::FleetRuntime(FleetConfig config) : config_(std::move(config)) {
  if (config_.racks.empty()) {
    throw std::invalid_argument("FleetRuntime: need at least one rack");
  }
  racks_.reserve(config_.racks.size());
  for (const RackSpec& spec : config_.racks) {
    racks_.push_back(std::make_unique<FabricRuntime>(&sim_, spec.config));
  }
  for (std::size_t i = 0; i < config_.racks.size(); ++i) {
    const phy::NodeId gw = config_.racks[i].gateway;
    if (gw >= racks_[i]->node_count()) {
      throw std::invalid_argument("FleetRuntime: gateway outside rack " + std::to_string(i));
    }
  }
  spine_ = std::make_unique<fabric::Interconnect>(&sim_, &registry_, config_.seed);
  for (const SpineSpec& s : config_.spine) {
    if (s.rack_a >= racks_.size() || s.rack_b >= racks_.size()) {
      throw std::invalid_argument("FleetRuntime: spine link references unknown rack");
    }
    fabric::SpineLinkParams p;
    p.a = {s.rack_a, s.gateway_a == phy::kInvalidNode ? gateway(s.rack_a) : s.gateway_a};
    p.b = {s.rack_b, s.gateway_b == phy::kInvalidNode ? gateway(s.rack_b) : s.gateway_b};
    if (p.a.node >= racks_[s.rack_a]->node_count() ||
        p.b.node >= racks_[s.rack_b]->node_count()) {
      throw std::invalid_argument("FleetRuntime: spine gateway outside its rack");
    }
    p.rate = s.rate;
    p.latency = s.latency;
    p.loss_prob = s.loss_prob;
    p.cost = s.cost;
    spine_->add_link(p);
  }
  if (config_.enable_controller) {
    controller_ = std::make_unique<FleetController>(&sim_, spine_.get(),
                                                    config_.controller, &registry_);
  }
}

FabricRuntime& FleetRuntime::rack(std::size_t i) {
  if (i >= racks_.size()) throw std::out_of_range("FleetRuntime: unknown rack");
  return *racks_[i];
}

FleetController& FleetRuntime::controller() {
  if (controller_ == nullptr) {
    throw std::logic_error("FleetRuntime: built with enable_controller = false");
  }
  return *controller_;
}

phy::NodeId FleetRuntime::gateway(std::uint32_t rack) const {
  if (rack >= config_.racks.size()) throw std::out_of_range("FleetRuntime: unknown rack");
  return config_.racks[rack].gateway;
}

fabric::RackNode FleetRuntime::at(std::uint32_t rack_idx, int x, int y) {
  return {rack_idx, rack(rack_idx).node_at(x, y)};
}

void FleetRuntime::start() {
  started_ = true;
  for (auto& r : racks_) r->start();
  if (controller_) controller_->start();
}

void FleetRuntime::stop() {
  started_ = false;
  for (auto& r : racks_) r->stop();
  if (controller_) controller_->stop();
}

void FleetRuntime::kill_controller() {
  if (controller_ == nullptr) {
    throw std::logic_error("FleetRuntime: no controller alive to kill");
  }
  controller_->stop();
  // The fabric expires a dead controller's leases: its bookings return
  // to the shared residual immediately, and any traffic still tagged
  // with the old handles degrades through the stale-handle fallback.
  controller_->release_bookings();
  controller_.reset();
  registry_.counters("fleet").add("fleet.controller_kills");
}

void FleetRuntime::restart_controller(const FleetControllerCheckpoint* ckpt) {
  if (!config_.enable_controller) {
    throw std::logic_error("FleetRuntime: built with enable_controller = false");
  }
  if (controller_ != nullptr) {
    throw std::logic_error("FleetRuntime: controller still alive; kill it first");
  }
  controller_ = std::make_unique<FleetController>(&sim_, spine_.get(), config_.controller,
                                                  &registry_);
  if (ckpt != nullptr) controller_->restore(*ckpt);
  registry_.counters("fleet").add("fleet.controller_restarts");
  if (started_) controller_->start();
}

void FleetRuntime::start_flow(const FleetFlowSpec& spec, FleetFlowCallback on_complete) {
  if (spec.src.rack >= racks_.size() || spec.dst.rack >= racks_.size()) {
    throw std::invalid_argument("FleetRuntime: flow references unknown rack");
  }
  if (spec.src.node >= racks_[spec.src.rack]->node_count() ||
      spec.dst.node >= racks_[spec.dst.rack]->node_count()) {
    throw std::invalid_argument("FleetRuntime: flow endpoint outside its rack");
  }
  // Fail at the call site, not from inside a leg's event handler.
  if (spec.size.bit_count() <= 0 || spec.packet_size.bit_count() <= 0) {
    throw std::invalid_argument("FleetRuntime: non-positive flow sizes");
  }
  FleetFlowState state;
  state.spec = spec;
  state.on_complete = std::move(on_complete);
  state.packets_total =
      static_cast<std::uint64_t>(spec.size.packet_count(spec.packet_size));
  // Claim a slot (a drained one when the free list has any — bounded
  // pool under flow churn); the pool's generation makes stale closures
  // miss.
  const auto handle = flows_.claim();
  const std::uint32_t idx = handle.index;
  flows_[idx] = std::move(state);
  const std::uint64_t gen = handle.generation;
  sim_.schedule_at(std::max(spec.start, sim_.now()), [this, idx, gen] {
    if (!flows_.is_live(idx, gen)) return;  // slot recycled before the start fired
    FleetFlowState& f = flows_[idx];
    f.started = sim_.now();
    if (f.spec.src.rack != f.spec.dst.rack) {
      // pump_packets resolves the route itself and fails the flow
      // cleanly when the fleet is partitioned.
      pump_packets(idx);
      return;
    }
    // A same-rack flow is one plain Network flow: a 1-shard fleet
    // stays identical to a standalone FabricRuntime. A flow to its own
    // node is done at its start.
    if (f.spec.src.node == f.spec.dst.node) {
      finish_fleet_flow(idx, false);
      return;
    }
    fabric::FlowSpec leg;
    leg.id = next_leg_id_++;
    leg.src = f.spec.src.node;
    leg.dst = f.spec.dst.node;
    leg.size = f.spec.size;
    leg.packet_size = f.spec.packet_size;
    leg.start = sim_.now();
    f.rack_legs = 1;
    racks_[f.spec.src.rack]->network().start_flow(
        leg, [this, idx, gen](const fabric::FlowResult& r) {
          if (!flows_.is_live(idx, gen)) return;  // slot recycled since
          finish_fleet_flow(idx, r.failed);
        });
  });
}

// ---------------------------------------------------------------------------
// Packetized spine transport: each packet runs its own rack-leg /
// spine-hop event chain; the flow windows packets across the whole
// path (cut-through pipelining across stages).
// ---------------------------------------------------------------------------

void FleetRuntime::pump_packets(std::uint32_t flow_idx) {
  // A packet reaching a terminal stage inside the loop can finish the
  // flow, recycle the slot, and (through the completion callback)
  // hand it to a brand-new flow — the generation detects that.
  const std::uint64_t gen = flows_.generation(flow_idx);
  while (true) {
    if (!flows_.is_live(flow_idx, gen)) return;
    FleetFlowState& f = flows_[flow_idx];
    if (f.done || f.inflight >= fabric::kFlowWindow || f.next_seq >= f.packets_total) {
      return;
    }
    // Booking binding: when the spine's booking table moved, adopt
    // (or drop) the pair's bookings. booking_version() stays 0 until
    // the first book(), so unbooked fleets never enter this branch and
    // the default path is untouched. Each booking pins its own route,
    // copied once per adoption and shared by every packet riding it.
    if (f.booking_version != spine_->booking_version()) {
      f.booking_version = spine_->booking_version();
      f.bookings = spine_->find_bookings(f.spec.src.rack, f.spec.dst.rack);
      f.booking_routes.clear();
      f.carve_route.reset();
      for (const fabric::SpineBookingHandle h : f.bookings) {
        const fabric::SpineBooking& b = spine_->booking(h);
        f.booking_routes.push_back(
            std::make_shared<const std::vector<fabric::SpineLinkId>>(b.route));
        if (b.carve()) f.carve_route = f.booking_routes.back();
      }
      // A carve pins the flow's own route, so any carve change anywhere
      // re-resolves it: the pinned circuit or the shared route.
      if (f.carve_version != spine_->carve_version()) {
        f.carve_version = spine_->carve_version();
        f.route.reset();
      }
    }
    // The route is resolved against the spine version: controller
    // repricing (a version bump) redirects the very next packet, and
    // between bumps every packet shares one immutable path (refcount,
    // not a per-packet vector copy). A carve's route is immutable:
    // adopt it once when the flow binds, then just refresh the stamp
    // across repricing instead of re-resolving every controller epoch.
    if (!f.route || f.route_version != spine_->version()) {
      if (!f.carve_route || !f.route) {
        if (f.carve_route) {
          f.route = f.carve_route;
        } else {
          auto route = spine_->route(f.spec.src.rack, f.spec.dst.rack);
          if (!route) {
            finish_fleet_flow(flow_idx, true);
            return;
          }
          f.route = std::make_shared<const std::vector<fabric::SpineLinkId>>(
              std::move(*route));
        }
        // Demand slot rides the route resolution: a stable byte·hop
        // counter bumped per packet (no map walk).
        f.demand_hops = f.route->size();
        f.demand_slot = &spine_->pair_demand_slot(f.spec.src.rack, f.spec.dst.rack);
      }
      f.route_version = spine_->version();
    }
    const std::uint32_t pkt_idx = packets_.claim().index;
    FleetPacket& pkt = packets_[pkt_idx];
    pkt.flow_idx = flow_idx;
    pkt.flow_gen = gen;
    pkt.size = f.spec.size.packet_at(static_cast<std::int64_t>(f.next_seq),
                                     f.spec.packet_size);
    if (!f.bookings.empty()) {
      // Round-robin across the pair's bookings (the multi-path split):
      // successive packets alternate the parallel routes.
      const auto k = static_cast<std::size_t>(f.next_seq % f.bookings.size());
      pkt.booking = f.bookings[k];
      pkt.path = f.booking_routes[k];
    } else {
      pkt.booking = fabric::SpineBookingHandle{};
      pkt.path = f.route;
    }
    pkt.next_hop = 0;
    pkt.at = f.spec.src;
    pkt.leg_to = phy::kInvalidNode;
    pkt.rack_legs = 0;
    pkt.spine_hops = 0;
    pkt.retries = 0;
    // Offered cross-rack load in byte·hops, the controller's
    // promotion input.
    *f.demand_slot +=
        static_cast<std::uint64_t>(std::max<std::int64_t>(0, pkt.size.bit_count() / 8)) *
        f.demand_hops;
    ++f.next_seq;
    ++f.inflight;
    packet_step(pkt_idx);
  }
}

std::uint32_t FleetRuntime::release_packet(std::uint32_t pkt_idx) {
  FleetPacket& pkt = packets_[pkt_idx];
  const std::uint32_t flow_idx = pkt.flow_idx;
  if (FleetFlowState* f = live_flow(pkt)) {
    --f->inflight;
    // The last straggler of a finished flow returns the flow slot.
    flows_.maybe_recycle(flow_idx);
  }
  // The recycle resets the slot in place, dropping the route refcount
  // and the booking handle.
  packets_.recycle(pkt_idx);
  return flow_idx;
}

/// Move one packet one stage further: the rack leg toward the current
/// rack's exit gateway (or the final destination), else the next spine
/// crossing, else delivery. A dead next hop re-plans from the rack the
/// packet is in.
void FleetRuntime::packet_step(std::uint32_t pkt_idx) {
  FleetPacket& pkt = packets_[pkt_idx];
  FleetFlowState* fp = live_flow(pkt);
  if (fp == nullptr || fp->done) {  // flow failed or recycled; evaporate
    release_packet(pkt_idx);
    return;
  }
  FleetFlowState& f = *fp;
  if (pkt.next_hop < pkt.path->size()) {
    const fabric::SpineLinkId hop = (*pkt.path)[pkt.next_hop];
    if (!spine_->link_up(hop)) {
      // Mid-flight spine failure: re-plan from where the packet is.
      auto replan = spine_->route(pkt.at.rack, f.spec.dst.rack);
      if (!replan) {
        packet_failed(pkt_idx);
        return;
      }
      ++spine_reroutes_slot_;
      pkt.path = std::make_shared<const std::vector<fabric::SpineLinkId>>(
          std::move(*replan));
      pkt.next_hop = 0;
      packet_step(pkt_idx);  // depth bounded by the rack count
      return;
    }
    const fabric::SpineLinkParams& lp = spine_->link(hop);
    const fabric::RackNode exit = lp.a.rack == pkt.at.rack ? lp.a : lp.b;
    if (pkt.at.node != exit.node) {
      packet_rack_leg(pkt_idx, exit.node);
      return;
    }
    packet_spine_hop(pkt_idx);
    return;
  }
  if (pkt.at.node != f.spec.dst.node) {
    packet_rack_leg(pkt_idx, f.spec.dst.node);
    return;
  }
  packet_delivered(pkt_idx);
}

void FleetRuntime::packet_rack_leg(std::uint32_t pkt_idx, phy::NodeId to) {
  FleetPacket& pkt = packets_[pkt_idx];
  pkt.leg_to = to;
  // The capture is the probe's whole 16-byte inline callable: no
  // per-stage heap allocation on the packet hot path.
  racks_[pkt.at.rack]->network().send_probe(
      pkt.at.node, to, pkt.size, [this, pkt_idx](const fabric::ProbeResult& r) {
        // rsf-lint: unguarded-slot-ok(each packet slot has exactly one in-flight event; release happens only inside it)
        FleetPacket& p = packets_[pkt_idx];
        const FleetFlowState* f = live_flow(p);
        if (f == nullptr || f->done) {
          release_packet(pkt_idx);
          return;
        }
        if (r.failed) {  // the rack fabric exhausted its own retries
          packet_retry(pkt_idx);
          return;
        }
        p.at.node = p.leg_to;
        ++p.rack_legs;
        packet_step(pkt_idx);
      });
}

void FleetRuntime::packet_spine_hop(std::uint32_t pkt_idx) {
  FleetPacket& pkt = packets_[pkt_idx];
  const fabric::SpineLinkId hop = (*pkt.path)[pkt.next_hop];
  const std::uint32_t from_rack = pkt.at.rack;
  const auto on_hop = [this, pkt_idx](bool delivered) {
    // rsf-lint: unguarded-slot-ok(each packet slot has exactly one in-flight event; release happens only inside it)
    FleetPacket& p = packets_[pkt_idx];
    const FleetFlowState* f = live_flow(p);
    if (f == nullptr || f->done) {
      release_packet(pkt_idx);
      return;
    }
    if (!delivered) {  // spine loss: the fleet layer retransmits
      packet_retry(pkt_idx);
      return;
    }
    const fabric::SpineLinkId crossed = (*p.path)[p.next_hop];
    p.at = spine_->far_end(crossed, p.at.rack);
    ++p.next_hop;
    ++p.spine_hops;
    packet_step(pkt_idx);
  };
  // The send degrades a stale or absent booking to the shared
  // residual itself.
  const bool ok = spine_->send_packet(hop, from_rack, pkt.size, pkt.booking, on_hop);
  // packet_step checked link_up() synchronously, so today a refusal
  // can't happen — but it is a failure-path event, not a logic
  // regression: treat a link that died between the check and the send
  // like a loss, so the retry's re-entry into packet_step re-resolves
  // the route around the dead hop (bounded by kMaxRetries) instead of
  // failing a flow a detour could still deliver.
  if (!ok) packet_retry(pkt_idx);
}

void FleetRuntime::packet_retry(std::uint32_t pkt_idx) {
  FleetPacket& pkt = packets_[pkt_idx];
  if (pkt.retries >= fabric::kMaxRetries) {
    packet_failed(pkt_idx);
    return;
  }
  ++pkt.retries;
  if (FleetFlowState* f = live_flow(pkt)) ++f->retransmits;
  ++spine_retransmits_slot_;
  // The retry fires kRetryDelay after the loss, after any link failure
  // scheduled earlier for the same instant has applied. packet_step
  // then re-checks the (possibly stale) path's next hop against live
  // administrative state and re-plans a dead hop before sending, so a
  // retry can never ping-pong a pre-failure route into a link that
  // died at its own instant.
  const auto retry = [this, pkt_idx] { packet_step(pkt_idx); };
  static_assert(sim::is_inline_event_v<decltype(retry)>,
                "the per-packet retry must stay on the inline event arm");
  sim_.schedule_after(fabric::kRetryDelay, retry);
}

void FleetRuntime::packet_delivered(std::uint32_t pkt_idx) {
  const int rack_legs = packets_[pkt_idx].rack_legs;
  const int spine_hops = packets_[pkt_idx].spine_hops;
  const std::uint32_t flow_idx = release_packet(pkt_idx);
  FleetFlowState& f = flows_[flow_idx];
  ++f.delivered;
  f.rack_legs = std::max(f.rack_legs, rack_legs);
  f.spine_hops = std::max(f.spine_hops, spine_hops);
  if (f.delivered == f.packets_total) {
    finish_fleet_flow(flow_idx, false);
    return;
  }
  pump_packets(flow_idx);
}

void FleetRuntime::packet_failed(std::uint32_t pkt_idx) {
  // Decide before releasing: if this was a finished flow's last
  // straggler, release recycles the slot and flows_[flow_idx] would
  // already belong to someone else.
  const FleetFlowState* f = live_flow(packets_[pkt_idx]);
  const bool fail_flow = f != nullptr && !f->done;
  const std::uint32_t flow_idx = release_packet(pkt_idx);
  if (fail_flow) finish_fleet_flow(flow_idx, true);
}

void FleetRuntime::finish_fleet_flow(std::uint32_t flow_idx, bool failed) {
  FleetFlowState& f = flows_[flow_idx];
  f.done = true;
  FleetFlowResult result;
  result.spec = f.spec;
  result.started = f.started;
  result.finished = sim_.now();
  result.rack_legs = f.rack_legs;
  result.spine_hops = f.spine_hops;
  result.retransmits = f.retransmits;
  result.failed = failed;
  (failed ? flows_failed_ : flows_completed_)++;
  // Detach the callback before invoking: it may start new fleet flows
  // and grow flows_, invalidating f. Recycle first, so a callback that
  // immediately starts another flow reuses this very slot (a finished
  // flow with stragglers still in flight keeps the slot via
  // the inflight gate until the last one drains).
  FleetFlowCallback cb = std::move(f.on_complete);
  f.on_complete = nullptr;
  flows_.maybe_recycle(flow_idx);
  if (cb) cb(result);
}

workload::CrossRackShuffle& FleetRuntime::add_shuffle(workload::CrossRackShuffleConfig cfg) {
  shuffles_.push_back(std::make_unique<workload::CrossRackShuffle>(this, std::move(cfg)));
  return *shuffles_.back();
}

telemetry::Registry& FleetRuntime::metrics() {
  for (std::size_t i = 0; i < racks_.size(); ++i) {
    registry_.import_prefixed(racks_[i]->metrics(), "rack" + std::to_string(i) + ".");
  }
  return registry_;
}

telemetry::Table FleetRuntime::metrics_table() {
  return metrics().to_table("fleet metrics");
}

}  // namespace rsf::runtime
