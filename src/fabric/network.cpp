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
      probe_count_slot_(counters_.slot("net.probes")) {
  if (sim_ == nullptr || plant_ == nullptr || topo_ == nullptr || router_ == nullptr) {
    throw std::invalid_argument("Network: null dependency");
  }
}

void Network::check_endpoints(phy::NodeId src, phy::NodeId dst, const char* who) const {
  if (src >= topo_->node_count() || dst >= topo_->node_count()) {
    throw std::invalid_argument(std::string(who) + ": endpoint outside the rack");
  }
}

void Network::start_flow(const FlowSpec& spec, FlowCallback on_complete) {
  if (spec.id == kNoFlow) throw std::invalid_argument("start_flow: flow id 0 reserved");
  if (flow_index_.contains(spec.id)) {
    throw std::invalid_argument("start_flow: duplicate flow id");
  }
  if (spec.size.bit_count() <= 0 || spec.packet_size.bit_count() <= 0) {
    throw std::invalid_argument("start_flow: non-positive sizes");
  }
  check_endpoints(spec.src, spec.dst, "start_flow");
  // Claim a slot from the pool (a drained slot when one is free —
  // bounded pool under flow churn — else the dense pool grows).
  const auto handle = flows_.claim();
  const std::uint32_t idx = handle.index;
  FlowState& flow = flows_[idx];
  flow.spec = spec;
  flow.on_complete = std::move(on_complete);
  flow.packets_total = static_cast<std::uint64_t>(spec.size.packet_count(spec.packet_size));
  flow_index_.emplace(spec.id, idx);
  bump(flows_started_);
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
  // Index, not reference: enter_at_source() only schedules (no synchronous
  // re-entry), but flows_ may have grown between packets.
  while (true) {
    FlowState& flow = flows_[flow_idx];
    if (flow.done || flow.inflight >= kFlowWindow || flow.next_seq >= flow.packets_total) {
      return;
    }
    const std::uint32_t pkt_idx = packets_.claim().index;
    Packet& pkt = packets_[pkt_idx];
    pkt.flow_idx = flow_idx;
    pkt.flow_gen = flows_.generation(flow_idx);
    pkt.src = flow.spec.src;
    pkt.size = flow.spec.size.packet_at(static_cast<std::int64_t>(flow.next_seq++),
                                        flow.spec.packet_size);
    pkt.injected = sim_->now();
    const auto bits = std::min<std::int64_t>(pkt.size.bit_count(), HopState::kInSlot);
    ++flow.inflight;
    ++injected_slot_;
    enter_at_source({.pkt = pkt_idx,
                     .node = pkt.src,
                     .dst = flow.spec.dst,
                     .hops = 0,
                     .bits = static_cast<std::uint32_t>(bits),
                     .tail_ps = 0},
                    pkt.injected + kNicLatency);
  }
}

void Network::send_probe(phy::NodeId src, phy::NodeId dst, phy::DataSize size, FlowCallback cb) {
  check_endpoints(src, dst, "send_probe");
  if (size.bit_count() <= 0) throw std::invalid_argument("send_probe: non-positive size");
  // An untracked one-packet flow, filled in place and pumped now: no
  // start event, no flow_index_ entry, no flow tallies.
  const std::uint32_t idx = flows_.claim().index;
  FlowState& probe = flows_[idx];
  probe.spec.src = src;
  probe.spec.dst = dst;
  probe.spec.size = size;
  probe.spec.packet_size = size;
  probe.on_complete = std::move(cb);
  probe.packets_total = 1;
  probe.started = sim_->now();
  ++probe_count_slot_;
  pump_flow(idx);
}

void Network::enter_at_source(const HopState& st, SimTime ready) {
  // The whole packet sits in host memory: head and tail both available
  // at the event time (st.tail_ps is 0).
  const auto first_hop = [this, st] { hop(st, sim_->now()); };
  static_assert(sim::is_inline_event_v<decltype(first_hop)>,
                "the per-packet inject must stay on the inline event arm");
  sim_->schedule_at(ready, first_hop);
}

Packet Network::release_packet(std::uint32_t pkt_idx) {
  const Packet pkt = packets_[pkt_idx];
  packets_.recycle(pkt_idx);
  return pkt;
}

void Network::record_switched_bits(std::uint64_t bits) {
  // Dynamic switching energy is charged at the sending node's element
  // (the source NIC for hop 0). No prune per hop: after a gap past
  // kPowerWindow every entry is older than any later query's cutoff,
  // so the log clears at once (and a stored gap fits 32 bits); else it
  // is pruned only when full, so it never outgrows the window's peak.
  const SimTime now = sim_->now();
  if (now - switched_bits_back_ > kPowerWindow) {
    switched_bits_log_.clear();
    switched_bits_window_ = 0;
  } else if (switched_bits_log_.size() == switched_bits_log_.capacity()) {
    prune_switched_bits();
  }
  if (switched_bits_log_.empty()) {
    switched_bits_front_ = now;
    switched_bits_back_ = now;
  }
  auto dt = static_cast<std::uint32_t>((now - switched_bits_back_).ps());
  switched_bits_back_ = now;
  switched_bits_window_ += bits;
  constexpr std::uint64_t kMaxEntryBits = 0xFFFFFFFFu;
  for (; bits > kMaxEntryBits; bits -= kMaxEntryBits, dt = 0) {
    switched_bits_log_.push_back({dt, static_cast<std::uint32_t>(kMaxEntryBits)});
  }
  switched_bits_log_.push_back({dt, static_cast<std::uint32_t>(bits)});
}

void Network::prune_switched_bits() const {
  const SimTime cutoff = sim_->now() - kPowerWindow;
  while (!switched_bits_log_.empty() && switched_bits_front_ < cutoff) {
    switched_bits_window_ -= switched_bits_log_.front().bits;
    switched_bits_log_.pop_front();
    if (!switched_bits_log_.empty()) {
      switched_bits_front_ += SimTime::picoseconds(switched_bits_log_.front().dt_ps);
    }
  }
}

void Network::hop(const HopState& st, SimTime head_ready) {
  // Everything read here rides in the event; the packet's slot is read
  // only when a circuit may claim the flow, on the rare paths, and for
  // a frame or tail gap past 32 bits.
  const SimTime now = sim_->now();
  const SimTime tail_ready = st.tail_ps == HopState::kInSlot
                                 ? packets_[st.pkt].tail
                                 : now + SimTime::picoseconds(st.tail_ps);
  if (st.node == st.dst) {
    // The NIC hands the packet up kNicLatency after its tail: start
    // pulling the slot in now, for the finalize event to read.
    packets_.prefetch(st.pkt);
    const auto finalize = [this, pkt_idx = st.pkt, hops = st.hops] { deliver(pkt_idx, hops); };
    static_assert(sim::is_inline_event_v<decltype(finalize)>,
                  "the per-packet delivery must stay on the inline event arm");
    sim_->schedule_at(tail_ready + kNicLatency, finalize);
    return;
  }
  if (st.hops >= static_cast<std::uint32_t>(kMaxHops)) {
    // Routing-loop backstop: retransmit from the source rather than
    // orbit (stale tables self-correct within a version bump).
    retransmit(st);
    return;
  }
  // A flow that owns a reserved circuit from here toward its
  // destination takes it unconditionally (the CRC built it for us).
  std::optional<phy::LinkId> link_opt;
  const FlowState* owner =
      plant_->reserved_link_count() != 0 ? live_flow(packets_[st.pkt]) : nullptr;
  if (owner != nullptr && owner->spec.id != kNoFlow) {
    for (phy::LinkId id : topo_->links_at(st.node)) {
      if (!topo_->usable(id)) continue;
      const phy::LogicalLink& l = plant_->link(id);
      if (l.reserved_for() == owner->spec.id && l.other_end(st.node) == st.dst) {
        link_opt = id;
        break;
      }
    }
  }
  if (!link_opt) link_opt = router_->next_hop(st.node, st.dst);
  if (!link_opt) {
    // No usable path right now (e.g. mid-reconfiguration): retry from
    // here with exponential backoff, bounded by the retry budget. The
    // backoff matters during large reconfigurations (a grid -> torus
    // move keeps links retraining for hundreds of microseconds).
    Packet& pkt = packets_[st.pkt];
    if (pkt.retries < kMaxRetries) {
      const int shift = std::min(pkt.retries, 6);
      const SimTime wait = kRetryDelay * (std::int64_t{1} << shift);
      ++pkt.retries;
      bump(reroute_waits_);
      HopState here = st;
      here.tail_ps = 0;  // head and tail both wait here
      const auto retry_here = [this, here] { hop(here, sim_->now()); };
      static_assert(sim::is_inline_event_v<decltype(retry_here)>,
                    "the no-route retry must stay on the inline event arm");
      sim_->schedule_after(wait, retry_here);
    } else {
      drop(st, no_route_drops_);
    }
    return;
  }
  const phy::LinkId link = *link_opt;
  const phy::LogicalLink& l = plant_->link(link);
  const phy::DataSize size = st.bits == HopState::kInSlot ? packets_[st.pkt].size
                                                          : phy::DataSize::bits(st.bits);
  // PLP #5 bit accounting: O(1), folded into the lanes on read. It
  // hands back the link's frame-cost row, which carries the frame's
  // timing and its loss probability (the analytic FEC model).
  const phy::FrameCost& cost = plant_->account_frame(link, size, kHeader);
  const SimTime ser = cost.serialization;

  LinkRow& row = row_at(link);
  SimTime& busy_until = row.busy_until[l.end_a() == st.node ? 0 : 1];
  // Start rule: head available (head_ready already includes the
  // switch/NIC pipeline), port free, and the no-underrun constraint
  // (transmission may not finish before the tail has arrived here).
  SimTime start = std::max(head_ready, busy_until);
  if (tail_ready - ser > start) start = tail_ready - ser;
  busy_until = start + ser;

  LinkUse& use = row.use;
  use.busy += ser;
  use.queue_delay_sum += start - std::max(head_ready, tail_ready - ser);
  ++use.queue_delay_samples;
  ++use.packets;
  use.bits += static_cast<std::uint64_t>(size.bit_count());

  record_switched_bits(static_cast<std::uint64_t>(size.bit_count()));

  const bool lost = cost.loss > 0.0 && rng_.bernoulli(cost.loss);

  const SimTime head_arrival = start + cost.header_serialization + cost.transit;
  const SimTime tail_arrival = start + ser + cost.transit;
  const std::uint32_t hops = st.hops + 1;

  if (lost) {
    bump(frames_corrupted_);
    HopState at_far_end = st;
    at_far_end.hops = hops;
    const auto lost_frame = [this, at_far_end] { retransmit(at_far_end); };
    static_assert(sim::is_inline_event_v<decltype(lost_frame)>,
                  "the FEC-loss retransmit must stay on the inline event arm");
    sim_->schedule_at(tail_arrival, lost_frame);
    return;
  }
  // Cut-through forwards once the head has cleared the switch
  // pipeline; store-and-forward must buffer the whole packet first.
  const SimTime basis = config_.cut_through ? head_arrival : tail_arrival;
  auto tail_ps = static_cast<std::uint64_t>((tail_arrival - basis).ps());
  if (tail_ps >= HopState::kInSlot) {
    packets_[st.pkt].tail = tail_arrival;
    tail_ps = HopState::kInSlot;
  }
  // One event per hop, fired when the packet becomes actionable at the
  // next element: its head is ready kSwitchLatency later. Built field
  // by field: `st` may lie in the firing event's fresh copy, where a
  // whole-struct load straddling two of its stores would stall.
  const HopState next{.pkt = st.pkt,
                      .node = l.other_end(st.node),
                      .dst = st.dst,
                      .hops = hops,
                      .bits = st.bits,
                      .tail_ps = static_cast<std::uint32_t>(tail_ps)};
  const auto continue_hop = [this, next] { hop(next, sim_->now() + kSwitchLatency); };
  static_assert(sim::is_inline_event_v<decltype(continue_hop)>,
                "the per-hop continuation sizes kInlineEventBytes; growing it off "
                "the inline arm would put an allocation on every simulated hop");
  sim_->schedule_at(basis, continue_hop);
}

void Network::deliver(std::uint32_t pkt_idx, std::uint32_t hops) {
  const Packet pkt = release_packet(pkt_idx);
  packet_latency_.record(sim_->now() - pkt.injected);
  hop_counts_.record(static_cast<double>(hops));
  ++delivered_slot_;
  if (FlowState* flow = live_flow(pkt)) {
    flow->hops = static_cast<int>(hops);
    flow_packet_delivered(pkt.flow_idx);
  }
}

void Network::drop(const HopState& st, EventCounter& reason) {
  const Packet pkt = release_packet(st.pkt);
  bump(reason);
  log_.debug("drop packet ", pkt.src, "->", st.dst, " (", reason.name, ")");
  if (FlowState* flow = live_flow(pkt)) {
    flow->hops = static_cast<int>(st.hops);
    --flow->inflight;  // the dropped packet leaves flight here
    if (!flow->done) finish_flow(pkt.flow_idx, /*failed=*/true);
    maybe_recycle_flow(pkt.flow_idx);
  }
}

void Network::retransmit(const HopState& st) {
  Packet& pkt = packets_[st.pkt];
  if (pkt.retries >= kMaxRetries) {
    drop(st, retries_exhausted_drops_);
    return;
  }
  FlowState* flow = live_flow(pkt);
  if (flow != nullptr && flow->done) {
    // The flow already failed (another packet exhausted its budget):
    // don't keep retransmitting into a dead flow — account the packet
    // out of flight so the slot can recycle.
    const std::uint32_t flow_idx = release_packet(st.pkt).flow_idx;
    --flow->inflight;
    maybe_recycle_flow(flow_idx);
    return;
  }
  ++pkt.retries;
  bump(retransmits_);
  if (flow != nullptr) ++flow->retransmits;
  HopState again = st;
  again.node = pkt.src;
  again.hops = 0;
  again.tail_ps = 0;
  const auto resend = [this, again] { enter_at_source(again, sim_->now() + kNicLatency); };
  static_assert(sim::is_inline_event_v<decltype(resend)>,
                "the per-packet retransmit must stay on the inline event arm");
  sim_->schedule_after(kRetryDelay, resend);
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
  FlowResult result;
  result.spec = flow.spec;
  result.started = flow.started;
  result.finished = sim_->now();
  result.packets = flow.delivered;
  result.retransmits = flow.retransmits;
  result.hops = flow.hops;
  result.failed = failed;
  if (flow.spec.id != kNoFlow) {  // a probe counts in net.probes only
    if (failed) {
      bump(flows_failed_);
    } else {
      bump(flows_completed_);
      flow_completion_.record(result.completion_time());
    }
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
  // drained; the recycle bumps the generation, so any (impossible by
  // the inflight gate, but cheap to guard) stale packet fails
  // live_flow() instead of corrupting the slot's next occupant.
  flows_.maybe_recycle(flow_idx, [this](FlowState& flow) {
    if (flow.spec.id != kNoFlow) flow_index_.erase(flow.spec.id);
  });
}

SimTime Network::link_busy_time(phy::LinkId id) const {
  return id < link_rows_.size() ? link_rows_[id].use.busy : SimTime::zero();
}

SimTime Network::link_mean_queue_delay(phy::LinkId id) const {
  if (id >= link_rows_.size() || link_rows_[id].use.queue_delay_samples == 0) {
    return SimTime::zero();
  }
  const LinkUse& use = link_rows_[id].use;
  return use.queue_delay_sum / static_cast<std::int64_t>(use.queue_delay_samples);
}

std::uint64_t Network::link_packets(phy::LinkId id) const {
  return id < link_rows_.size() ? link_rows_[id].use.packets : 0;
}

std::size_t Network::switching_port_count() const {
  // A port is *physical* — one per cable end that terminates in
  // switching logic. A link's first segment pays at end_a, its last
  // at end_b; interior (bypassed) cable ends pay nothing — that is the
  // power saving PLP #2 buys. Splitting a link in two does not mint
  // ports: both halves terminate on the same cable ends (deduplicated
  // here), and dark cables cost nothing.
  //
  // The count only changes when the link set does, and the plant bumps
  // the topology version on every link install or destroy — so the
  // O(links) set walk runs once per version instead of once per power
  // query (the CRC asks every epoch).
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

double Network::switch_power_watts() const {
  // Static: every cable end in switching use costs a port (cached
  // against the topology version; see switching_port_count).
  const double static_w = kPortStaticW * static_cast<double>(switching_port_count());
  // Dynamic: bits switched in the trailing kPowerWindow — the running
  // sum over the log once entries older than the window are pruned.
  // Cutoffs only move forward, so pruning here alone is exact.
  prune_switched_bits();
  const auto bits_in_window = static_cast<double>(switched_bits_window_);
  const double dynamic_w = bits_in_window * kPjPerBit * 1e-12 / kPowerWindow.sec();
  return static_w + dynamic_w;
}

}  // namespace rsf::fabric
