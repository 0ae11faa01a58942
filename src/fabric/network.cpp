#include "fabric/network.hpp"

#include <algorithm>
#include <set>
#include <stdexcept>

namespace rsf::fabric {

using rsf::sim::SimTime;

namespace {
/// Head flit size: how much of a packet must arrive before a
/// cut-through switch can act on it (addresses live in the first bytes).
constexpr auto kHeader = rsf::phy::DataSize::bytes(64);
}  // namespace

Network::Network(rsf::sim::Simulator* sim, phy::PhysicalPlant* plant, Topology* topo,
                 Router* router, NetworkConfig config, telemetry::Registry* registry)
    : sim_(sim),
      plant_(plant),
      topo_(topo),
      router_(router),
      config_(config),
      rng_(config.seed, "network"),
      log_(sim, "net"),
      own_registry_(registry ? nullptr : std::make_unique<telemetry::Registry>()),
      registry_(registry ? registry : own_registry_.get()),
      packet_latency_(registry_->histogram("net.packet_latency")),
      flow_completion_(registry_->histogram("net.flow_completion")),
      hop_counts_(registry_->histogram("net.hop_counts")),
      counters_(registry_->counters("net")),
      injected_slot_(counters_.slot("net.packets_injected")),
      delivered_slot_(counters_.slot("net.packets_delivered")),
      probes_slot_(counters_.slot("net.probes")) {
  if (sim_ == nullptr || plant_ == nullptr || topo_ == nullptr || router_ == nullptr) {
    throw std::invalid_argument("Network: null dependency");
  }
  if (config_.flow_window < 1) throw std::invalid_argument("Network: flow_window < 1");
}

void Network::start_flow(const FlowSpec& spec, FlowCallback on_complete) {
  if (spec.id == kNoFlow) throw std::invalid_argument("start_flow: flow id 0 reserved");
  if (flow_index_.contains(spec.id)) {
    throw std::invalid_argument("start_flow: duplicate flow id");
  }
  if (spec.size.bit_count() <= 0 || spec.packet_size.bit_count() <= 0) {
    throw std::invalid_argument("start_flow: non-positive sizes");
  }
  FlowState state;
  state.spec = spec;
  state.on_complete = std::move(on_complete);
  state.packets_total =
      static_cast<std::uint64_t>(spec.size.packet_count(spec.packet_size));
  // Claim a slot from the pool (a drained slot when one is free —
  // bounded pool under flow churn — else the dense pool grows).
  const auto handle = flows_.claim();
  const std::uint32_t idx = handle.index;
  flows_[idx] = std::move(state);
  flow_index_.emplace(spec.id, idx);
  counters_.add("net.flows_started");
  // A start time already in the past means "now". The start event can
  // outlive the slot (a zero-packet flow drains and recycles before a
  // deferred start fires), so it carries the claim generation and
  // evaporates against a reused slot instead of starting a stranger.
  sim_->schedule_at(std::max(spec.start, sim_->now()),
                    [this, idx, gen = handle.generation] {
                      if (!flows_.is_live(idx, gen)) return;
                      flows_[idx].started = sim_->now();
                      pump_flow(idx);
                    });
}

void Network::pump_flow(std::uint32_t flow_idx) {
  // Index, not reference: inject() only schedules (no synchronous
  // re-entry), but flows_ may have grown between packets.
  while (true) {
    FlowState& flow = flows_[flow_idx];
    if (flow.done || flow.inflight >= config_.flow_window ||
        flow.next_seq >= flow.packets_total) {
      return;
    }
    Packet pkt;
    pkt.id = next_packet_id_++;
    pkt.flow = flow.spec.id;
    pkt.flow_idx = static_cast<std::int32_t>(flow_idx);
    pkt.seq = flow.next_seq++;
    pkt.src = flow.spec.src;
    pkt.dst = flow.spec.dst;
    pkt.size = flow.spec.size.packet_at(static_cast<std::int64_t>(pkt.seq),
                                        flow.spec.packet_size);
    ++flow.inflight;
    inject(pkt, sim_->now());
  }
}

void Network::send_probe(phy::NodeId src, phy::NodeId dst, phy::DataSize size,
                         ProbeCallback cb) {
  Packet pkt;
  pkt.id = next_packet_id_++;
  pkt.src = src;
  pkt.dst = dst;
  pkt.size = size;
  const std::uint32_t slot = probes_.claim().index;
  probes_[slot].cb = std::move(cb);
  pkt.probe_idx = static_cast<std::int32_t>(slot);
  ++probes_slot_;
  inject(pkt, sim_->now());
}

void Network::inject(Packet pkt, SimTime when) {
  pkt.injected = when;
  pkt.hops = 0;
  ++injected_slot_;
  const SimTime ready = when + config_.switch_params.nic_latency;
  // The whole packet sits in host memory: head and tail both available.
  sim_->schedule_at(ready, [this, pkt, ready] { hop(pkt, pkt.src, ready, ready); });
}

void Network::record_switched_bits(const Packet& pkt) {
  // Dynamic switching energy is charged at the sending node's element
  // (the source NIC for hop 0).
  switched_bits_total_ += static_cast<std::uint64_t>(pkt.size.bit_count());
  switched_bits_log_.push_back({sim_->now(), switched_bits_total_});
  // Age out entries older than the retention window so the log stays
  // bounded however long the run is.
  const SimTime cutoff = sim_->now() - power_retention_;
  while (!switched_bits_log_.empty() && switched_bits_log_.front().t < cutoff) {
    switched_bits_pruned_ = switched_bits_log_.front().bits;
    switched_bits_pruned_time_ = switched_bits_log_.front().t;
    switched_bits_log_.pop_front();
  }
}

void Network::hop(Packet pkt, phy::NodeId node, SimTime head_ready, SimTime tail_ready) {
  if (node == pkt.dst) {
    deliver(pkt, tail_ready + config_.switch_params.nic_latency);
    return;
  }
  if (pkt.hops >= config_.max_hops) {
    // Routing-loop backstop: retransmit from the source rather than
    // orbit (stale tables self-correct within a version bump).
    retransmit(pkt);
    return;
  }
  // A flow that owns a reserved circuit from here toward its
  // destination takes it unconditionally (the CRC built it for us).
  std::optional<phy::LinkId> link_opt;
  if (pkt.flow != kNoFlow && plant_->reserved_link_count() != 0) {
    for (phy::LinkId id : topo_->links_at(node)) {
      if (!topo_->usable(id)) continue;
      const phy::LogicalLink& l = plant_->link(id);
      if (l.reserved_for() == pkt.flow && l.other_end(node) == pkt.dst) {
        link_opt = id;
        break;
      }
    }
  }
  if (!link_opt) link_opt = router_->next_hop(node, pkt.dst);
  if (!link_opt) {
    // No usable path right now (e.g. mid-reconfiguration): retry from
    // here with exponential backoff, bounded by the retry budget. The
    // backoff matters during large reconfigurations (a grid -> torus
    // move keeps links retraining for hundreds of microseconds).
    if (pkt.retries < config_.max_retries) {
      const int shift = std::min(pkt.retries, 6);
      const SimTime wait = config_.retry_delay * (std::int64_t{1} << shift);
      ++pkt.retries;
      counters_.add("net.reroute_waits");
      sim_->schedule_after(wait, [this, pkt, node] {
        const SimTime t = sim_->now();
        hop(pkt, node, t, t);
      });
    } else {
      drop(pkt, "no_route");
    }
    return;
  }
  const phy::LinkId link = *link_opt;
  const phy::LogicalLink& l = plant_->link(link);
  const phy::NodeId next = l.other_end(node);

  const SimTime ser = l.serialization_delay(pkt.size);
  const SimTime header_ser = l.serialization_delay(std::min(kHeader, pkt.size));
  const SimTime prop = l.propagation_delay() + l.fec().latency;

  PortState& port = port_at(node, link, l);
  // Start rule: head available (head_ready already includes the
  // switch/NIC pipeline), port free, and the no-underrun constraint
  // (transmission may not finish before the tail has arrived here).
  SimTime start = std::max(head_ready, port.busy_until);
  if (tail_ready - ser > start) start = tail_ready - ser;
  port.busy_until = start + ser;

  LinkUse& use = link_use_at(link);
  use.busy += ser;
  use.queue_delay_sum += start - std::max(head_ready, tail_ready - ser);
  ++use.queue_delay_samples;
  ++use.packets;
  use.bits += static_cast<std::uint64_t>(pkt.size.bit_count());
  // Per-lane PLP #5 accounting, including sampled FEC decoder
  // telemetry (corrected codewords) for the BER estimator.
  plant_->account_frame(link, pkt.size, rng_);

  record_switched_bits(pkt);

  // Loss is decided per-link from the analytic FEC model.
  const double loss_p = l.frame_loss_prob(pkt.size);
  const bool lost = loss_p > 0.0 && rng_.bernoulli(loss_p);

  const SimTime head_arrival = start + header_ser + prop;
  const SimTime tail_arrival = start + ser + prop;
  ++pkt.hops;

  if (lost) {
    counters_.add("net.frames_corrupted");
    sim_->schedule_at(tail_arrival, [this, pkt] { retransmit(pkt); });
    return;
  }
  // Cut-through forwards once the head has cleared the switch
  // pipeline; store-and-forward must buffer the whole packet first.
  const SimTime basis = config_.switch_params.cut_through ? head_arrival : tail_arrival;
  const SimTime next_head_ready = basis + config_.switch_params.switch_latency;
  // One event per hop, fired when the packet becomes actionable at the
  // next element.
  const auto continue_hop = [this, pkt, next, next_head_ready, tail_arrival] {
    hop(pkt, next, next_head_ready, tail_arrival);
  };
  static_assert(sim::is_inline_event_v<decltype(continue_hop)>,
                "the per-hop continuation sizes kInlineEventBytes; growing it off "
                "the inline arm would put an allocation on every simulated hop");
  sim_->schedule_at(basis, continue_hop);
}

void Network::deliver(const Packet& pkt, SimTime when) {
  const auto finalize = [this, pkt, when] {
    packet_latency_.record(when - pkt.injected);
    hop_counts_.record(static_cast<double>(pkt.hops));
    ++delivered_slot_;
    if (pkt.probe_idx >= 0) {
      const auto slot = static_cast<std::uint32_t>(pkt.probe_idx);
      // rsf-lint: unguarded-slot-ok(a probe slot has exactly one in-flight packet and recycles only here, at its terminal callback)
      auto cb = std::move(probes_[slot].cb);
      probes_.recycle(slot);  // before the callback: chained probes reuse it
      if (cb) cb(when - pkt.injected, pkt.hops, true);
      return;
    }
    if (live_flow(pkt) != nullptr) {
      flow_packet_delivered(static_cast<std::uint32_t>(pkt.flow_idx));
    }
  };
  if (when > sim_->now()) {
    sim_->schedule_at(when, finalize);
  } else {
    finalize();
  }
}

void Network::drop(const Packet& pkt, const char* reason) {
  counters_.add(std::string("net.drops.") + reason);
  log_.debug("drop packet ", pkt.id, " (", reason, ")");
  if (pkt.probe_idx >= 0) {
    const auto slot = static_cast<std::uint32_t>(pkt.probe_idx);
    auto cb = std::move(probes_[slot].cb);
    probes_.recycle(slot);  // before the callback: chained probes reuse it
    if (cb) cb(SimTime::zero(), pkt.hops, false);
    return;
  }
  if (live_flow(pkt) != nullptr) {
    const auto idx = static_cast<std::uint32_t>(pkt.flow_idx);
    --flows_[idx].inflight;  // the dropped packet leaves flight here
    if (!flows_[idx].done) finish_flow(idx, /*failed=*/true);
    maybe_recycle_flow(idx);
  }
}

void Network::retransmit(Packet pkt) {
  if (pkt.retries >= config_.max_retries) {
    drop(pkt, "retries_exhausted");
    return;
  }
  if (FlowState* flow = live_flow(pkt); flow != nullptr && flow->done) {
    // The flow already failed (another packet exhausted its budget):
    // don't keep retransmitting into a dead flow — account the packet
    // out of flight so the slot can recycle.
    --flow->inflight;
    maybe_recycle_flow(static_cast<std::uint32_t>(pkt.flow_idx));
    return;
  }
  ++pkt.retries;
  counters_.add("net.retransmits");
  if (FlowState* flow = live_flow(pkt)) ++flow->retransmits;
  sim_->schedule_after(config_.retry_delay, [this, pkt]() mutable {
    pkt.hops = 0;
    const SimTime ready = sim_->now() + config_.switch_params.nic_latency;
    sim_->schedule_at(ready, [this, pkt, ready] { hop(pkt, pkt.src, ready, ready); });
  });
}

void Network::flow_packet_delivered(std::uint32_t flow_idx) {
  FlowState& flow = flows_[flow_idx];
  --flow.inflight;
  if (flow.done) {  // straggler of an already-failed flow drains
    maybe_recycle_flow(flow_idx);
    return;
  }
  ++flow.delivered;
  if (flow.delivered == flow.packets_total) {
    finish_flow(flow_idx, /*failed=*/false);
    return;
  }
  pump_flow(flow_idx);
}

void Network::finish_flow(std::uint32_t flow_idx, bool failed) {
  FlowState& flow = flows_[flow_idx];
  flow.done = true;
  flow.failed = failed;
  FlowResult result;
  result.spec = flow.spec;
  result.started = flow.started;
  result.finished = sim_->now();
  result.packets = flow.delivered;
  result.retransmits = flow.retransmits;
  result.failed = failed;
  if (failed) {
    ++flows_failed_;
    counters_.add("net.flows_failed");
  } else {
    ++flows_completed_;
    counters_.add("net.flows_completed");
    flow_completion_.record(result.completion_time());
  }
  // Move the callback out before invoking it: a completion callback may
  // start new flows, growing flows_ and invalidating `flow`. Recycle
  // first, so a callback that immediately restarts the same flow id
  // finds it free.
  auto cb = std::move(flow.on_complete);
  flow.on_complete = nullptr;
  maybe_recycle_flow(flow_idx);
  if (cb) cb(result);
}

void Network::maybe_recycle_flow(std::uint32_t flow_idx) {
  // The FlowDrained gate holds the slot until done + last straggler
  // drained; the pool's reset makes spec.id kNoFlow, so any
  // (impossible by the inflight gate, but cheap to guard) stale dense
  // index fails the live_flow() id-echo check instead of corrupting a
  // new flow.
  flows_.maybe_recycle(flow_idx,
                       [this](FlowState& flow) { flow_index_.erase(flow.spec.id); });
}

SimTime Network::link_busy_time(phy::LinkId id) const {
  return id < link_use_.size() ? link_use_[id].busy : SimTime::zero();
}

SimTime Network::link_mean_queue_delay(phy::LinkId id) const {
  if (id >= link_use_.size() || link_use_[id].queue_delay_samples == 0) {
    return SimTime::zero();
  }
  return link_use_[id].queue_delay_sum /
         static_cast<std::int64_t>(link_use_[id].queue_delay_samples);
}

std::uint64_t Network::link_packets(phy::LinkId id) const {
  return id < link_use_.size() ? link_use_[id].packets : 0;
}

std::size_t Network::switching_port_count() const {
  // A port is *physical* — one per cable end that terminates in
  // switching logic. A link's first segment pays at end_a, its last
  // at end_b; interior (bypassed) cable ends pay nothing — that is the
  // power saving PLP #2 buys. Splitting a link in two does not mint
  // ports: both halves terminate on the same cable ends (deduplicated
  // here), and dark cables cost nothing.
  //
  // The count only changes when the link set does, and every mutation
  // that can change it (PLP reconfigs, lane failures/repairs, manual
  // rebuilds) bumps the topology version — so the O(links) set walk
  // runs once per version instead of once per power query (the CRC
  // asks every epoch).
  if (switching_ends_version_ != topo_->version()) {
    std::set<std::uint64_t> switching_ends;
    for (phy::LinkId id : plant_->link_ids()) {
      const phy::LogicalLink& l = plant_->link(id);
      const auto key = [](phy::CableId c, phy::NodeId n) {
        return (static_cast<std::uint64_t>(c) << 32) | n;
      };
      switching_ends.insert(key(l.segments().front().cable, l.end_a()));
      switching_ends.insert(key(l.segments().back().cable, l.end_b()));
    }
    switching_ends_ = switching_ends.size();
    switching_ends_version_ = topo_->version();
  }
  return switching_ends_;
}

double Network::switch_power_watts(SimTime window) const {
  // Static: every cable end in switching use costs a port (cached
  // against the topology version; see switching_port_count).
  const double static_w =
      config_.switch_params.port_static_w * static_cast<double>(switching_port_count());
  // Dynamic: bits switched in the trailing window. Remember the widest
  // window ever queried so the append-side pruning keeps enough log.
  power_retention_ = std::max(power_retention_, window);
  const SimTime now = sim_->now();
  const SimTime from = now >= window ? now - window : SimTime::zero();
  // A window wider than the retained history can only be answered for
  // the covered span [pruned_time, now]: clamp the window start there
  // and normalise by the covered duration, so the rate is exact over
  // what was observed instead of silently under-counting. (Subsequent
  // queries get full coverage — retention was widened above.)
  const SimTime covered_from = std::max(from, switched_bits_pruned_time_);
  // Baseline: cumulative bits at the last entry before the (covered)
  // window starts. If every retained entry is inside the window the
  // baseline is whatever was pruned off the front.
  // Entries are appended in clock order, so those before the window
  // form a prefix of the log: binary-search its end.
  std::size_t lo = 0;
  std::size_t hi = switched_bits_log_.size();
  while (lo < hi) {
    const std::size_t mid = lo + (hi - lo) / 2;
    if (switched_bits_log_[mid].t < covered_from) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  const std::uint64_t bits_before =
      lo == 0 ? switched_bits_pruned_ : switched_bits_log_[lo - 1].bits;
  const double bits_in_window = static_cast<double>(switched_bits_total_ - bits_before);
  const double seconds = covered_from > from
                             ? std::max((now - covered_from).sec(), 1e-12)
                             : std::max(window.sec(), 1e-12);
  const double dynamic_w = bits_in_window * config_.switch_params.pj_per_bit * 1e-12 / seconds;
  return static_w + dynamic_w;
}

}  // namespace rsf::fabric
