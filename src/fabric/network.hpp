// rsf::fabric — the packet transport engine.
//
// Network simulates packet movement over the topology at packet-event
// granularity (one event per hop). The switch model is cut-through:
// a packet's head can leave a node kSwitchLatency after it arrives,
// while its tail is still streaming in, subject to (a) output-port
// serialization (ports are modelled with busy-until arithmetic, FIFO)
// and (b) the no-underrun constraint — a hop may not *finish*
// transmitting before the tail has arrived. Store-and-forward mode is
// available as the comparison baseline (Figure 1's dominant term).
//
// Sources are window-limited: a flow keeps at most kFlowWindow
// packets in flight, modelling the lossless backpressure a rack fabric
// provides without simulating per-hop credits. Frames lost to
// uncorrectable FEC errors (sampled per hop from the link's analytic
// loss probability) are retransmitted from the source. The switch
// figures and the window/retry policy are the named constants below;
// the fleet layer's cross-rack packets read the same window/retry trio.
//
// In-flight packets live in a packet pool. Every per-packet event
// (hop, inject, retransmit, no-route retry) carries a HopState: the
// slot index plus the packet state a hop reads (node, destination, hop
// count, frame size, tail arrival as an offset from the event time),
// so a hop never touches the slot and the event still fits the
// 32-byte inline payload. The slot owns the rest (source, injection
// time, retries, flow handle, full size) and is read at delivery,
// prefetched kNicLatency ahead, and on the rare paths. A packet slot
// has exactly one pending event at a time, and is released before any
// flow callback runs.
#pragma once

#include <array>
#include <functional>
#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

#include "core/chunked_ring.hpp"
#include "core/slot_pool.hpp"
#include "fabric/packet.hpp"
#include "fabric/router.hpp"
#include "fabric/topology.hpp"
#include "phy/plant.hpp"
#include "sim/log.hpp"
#include "sim/random.hpp"
#include "sim/simulator.hpp"
#include "telemetry/counters.hpp"
#include "telemetry/histogram.hpp"
#include "telemetry/registry.hpp"

namespace rsf::fabric {

/// The rack's end-host and switch hardware, the same in every rack
/// (the hop pipeline latency, kSwitchLatency, lives in router.hpp).
/// Injection / delivery overhead at the end hosts' NICs.
inline constexpr rsf::sim::SimTime kNicLatency = rsf::sim::SimTime::nanoseconds(300);
/// Static power per switch port in switching (non-bypassed) use, and
/// dynamic energy per switched bit.
inline constexpr double kPortStaticW = 1.5;
inline constexpr double kPjPerBit = 15.0;
/// Drop-and-retransmit packets that have crossed this many hops
/// (routing-loop backstop; transient loops can occur while tables
/// refresh).
inline constexpr int kMaxHops = 64;

/// The window/retry policy of both transports: the rack Network and
/// the FleetRuntime's cross-rack packets read these, and nothing else
/// defines them. A flow keeps at most kFlowWindow packets in flight
/// (source backpressure window); a packet is given up on after
/// kMaxRetries retransmits; a retransmit or retry re-enters the
/// pipeline kRetryDelay after the loss (the rack's no-route retry
/// backs off exponentially from it).
inline constexpr int kFlowWindow = 16;
inline constexpr int kMaxRetries = 16;
inline constexpr rsf::sim::SimTime kRetryDelay = rsf::sim::SimTime::microseconds(5);

struct NetworkConfig {
  /// Cut-through forwarding (the paper's switch); false buffers every
  /// packet whole at each hop (store-and-forward, Figure 1's baseline).
  bool cut_through = true;
  std::uint64_t seed = 1;
};

class Network {
 public:
  using FlowCallback = std::function<void(const FlowResult&)>;

  /// Metrics land in `registry` under "net.*" when one is supplied
  /// (the FabricRuntime hands every component its registry); without
  /// one the network owns a private registry, so direct construction
  /// in unit tests keeps working.
  Network(rsf::sim::Simulator* sim, phy::PhysicalPlant* plant, Topology* topo,
          Router* router, NetworkConfig config = {},
          telemetry::Registry* registry = nullptr);

  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  /// Register a flow; packets start at spec.start. The callback fires
  /// on completion (or failure after retry exhaustion). Throws
  /// std::invalid_argument on a bad spec or an endpoint outside the rack.
  void start_flow(const FlowSpec& spec, FlowCallback on_complete = nullptr);

  /// One tracer packet, injected now: an untracked one-packet flow
  /// (id kNoFlow) that stays out of the flow tallies and counts in
  /// net.probes. The callback fires at delivery or drop; its result
  /// carries the latency (completion_time()) and the packet's hops.
  /// Throws std::invalid_argument on a non-positive size or an
  /// endpoint outside the rack.
  void send_probe(phy::NodeId src, phy::NodeId dst, phy::DataSize size, FlowCallback cb);

  // --- observability ---

  [[nodiscard]] const telemetry::Histogram& packet_latency() const { return packet_latency_; }
  [[nodiscard]] const telemetry::Histogram& flow_completion() const { return flow_completion_; }
  [[nodiscard]] const telemetry::Histogram& hop_counts() const { return hop_counts_; }
  [[nodiscard]] const telemetry::CounterSet& counters() const { return counters_; }

  /// Cumulative time link `id` spent transmitting (sum over both
  /// directions). The CRC diffs this between control epochs to get
  /// utilisation.
  [[nodiscard]] rsf::sim::SimTime link_busy_time(phy::LinkId id) const;
  /// Mean queueing delay experienced at link `id` since start.
  [[nodiscard]] rsf::sim::SimTime link_mean_queue_delay(phy::LinkId id) const;
  /// Cumulative count of packets that crossed link `id`.
  [[nodiscard]] std::uint64_t link_packets(phy::LinkId id) const;

  /// Switching-element power right now: static per in-use port plus
  /// dynamic switching power from the bit rate over the trailing
  /// kPowerWindow.
  [[nodiscard]] double switch_power_watts() const;
  static constexpr rsf::sim::SimTime kPowerWindow = rsf::sim::SimTime::milliseconds(1);

  [[nodiscard]] std::uint64_t flows_completed() const { return count(flows_completed_); }
  [[nodiscard]] std::uint64_t flows_failed() const { return count(flows_failed_); }

  /// Flow-slot pool observability: total slots ever allocated and how
  /// many are currently free. Probes occupy flow slots too. A
  /// long-lived service churning millions of flows holds slots() at
  /// its peak concurrency, not its flow count — completed slots
  /// recycle through a SlotPool.
  [[nodiscard]] std::size_t flow_slots() const { return flows_.size(); }
  [[nodiscard]] std::size_t free_flow_slots() const { return flows_.free_count(); }
  /// Packet-pool observability, the same pair for in-flight packets:
  /// slots() is the peak number of packets in flight at once.
  [[nodiscard]] std::size_t packet_slots() const { return packets_.size(); }
  [[nodiscard]] std::size_t free_packet_slots() const { return packets_.free_count(); }

  /// Physical switching ports currently in use (one per cable end that
  /// terminates in switching logic). Cached against the topology
  /// version — lane-state and reconfig mutations invalidate it.
  [[nodiscard]] std::size_t switching_port_count() const;

 private:
  struct FlowState {
    FlowSpec spec;
    FlowCallback on_complete;
    std::uint64_t packets_total = 0;
    std::uint64_t next_seq = 0;
    std::uint64_t delivered = 0;
    std::uint64_t retransmits = 0;
    int hops = 0;  // of the last packet delivered or dropped
    /// Packets injected and not yet delivered or dropped (a lost
    /// packet awaiting retransmit still counts). A slot recycles only
    /// at done && inflight == 0, so no in-flight packet can ever see
    /// its slot reused.
    int inflight = 0;
    rsf::sim::SimTime started = rsf::sim::SimTime::zero();
    bool done = false;
  };

  struct LinkUse {
    rsf::sim::SimTime busy = rsf::sim::SimTime::zero();
    rsf::sim::SimTime queue_delay_sum = rsf::sim::SimTime::zero();
    std::uint64_t queue_delay_samples = 0;
    std::uint64_t packets = 0;
    std::uint64_t bits = 0;
  };

  /// Everything the transport keeps per link, in one record: when each
  /// of its two ports (cable ends in switching use; [0] transmits from
  /// end_a, [1] from end_b) frees up, and the link's usage.
  struct LinkRow {
    std::array<rsf::sim::SimTime, 2> busy_until{};
    LinkUse use;
  };

  /// SlotPool recycle gate for flows_: a slot returns to the free list
  /// only when the flow is done AND its last in-flight packet (a lost
  /// packet awaiting retransmit included) has drained.
  struct FlowDrained {
    [[nodiscard]] bool operator()(const FlowState& f) const {
      return f.done && f.inflight == 0;
    }
  };

  /// The packet state one per-packet event carries: with `this` it is
  /// the whole 32-byte inline capture. The event's own time supplies
  /// the rest (a hop's head is ready then, or kSwitchLatency later).
  struct HopState {
    /// Marks a frame size or tail offset that does not fit 32 bits:
    /// the exact value is in the packet's slot (Packet::size, ::tail).
    static constexpr std::uint32_t kInSlot = 0xFFFFFFFFu;
    std::uint32_t pkt;   // slot in packets_
    phy::NodeId node;    // where the head is
    phy::NodeId dst;
    std::uint32_t hops;  // links crossed since the last (re)injection
    std::uint32_t bits;  // frame size, or kInSlot
    std::uint32_t tail_ps;  // tail arrival minus the event time, or kInSlot
  };

  void check_endpoints(phy::NodeId src, phy::NodeId dst, const char* who) const;
  void pump_flow(std::uint32_t flow_idx);
  /// Schedules the packet's first hop out of its source at `ready`.
  void enter_at_source(const HopState& st, rsf::sim::SimTime ready);
  /// Head of the packet is available at st.node at head_ready
  /// (switch/NIC latency already applied); the tail per st.tail_ps.
  void hop(const HopState& st, rsf::sim::SimTime head_ready);
  /// Runs kNicLatency after the tail reached the destination.
  void deliver(std::uint32_t pkt_idx, std::uint32_t hops);
  /// A counter resolved to its slot on first use: like counters_.add,
  /// it enters the table only once it counts something, and then
  /// costs one increment.
  struct EventCounter {
    const char* name;
    std::uint64_t* slot = nullptr;
  };
  void bump(EventCounter& c) {
    if (c.slot == nullptr) c.slot = &counters_.slot(c.name);
    ++*c.slot;
  }
  [[nodiscard]] static std::uint64_t count(const EventCounter& c) {
    return c.slot == nullptr ? 0 : *c.slot;
  }
  /// Drops the packet, counted under `reason` (a net.drops.* counter).
  void drop(const HopState& st, EventCounter& reason);
  void retransmit(const HopState& st);
  /// Frees the packet's slot and returns the packet it held.
  Packet release_packet(std::uint32_t pkt_idx);
  void flow_packet_delivered(std::uint32_t flow_idx);
  void finish_flow(std::uint32_t flow_idx, bool failed);
  /// Release the slot to the free list once the flow is done and its
  /// last straggler packet has drained.
  void maybe_recycle_flow(std::uint32_t flow_idx);
  /// The flow a packet belongs to, or nullptr when the slot has been
  /// recycled since (defensive: the inflight gate already keeps a
  /// packet's slot alive until the packet drains).
  [[nodiscard]] FlowState* live_flow(const Packet& pkt) {
    return flows_.get_live(pkt.flow_idx, pkt.flow_gen);
  }
  void record_switched_bits(std::uint64_t bits);
  /// Drops log entries older than kPowerWindow before now.
  void prune_switched_bits() const;

  [[nodiscard]] LinkRow& row_at(phy::LinkId link) {
    if (link >= link_rows_.size()) link_rows_.resize(link + 1);
    return link_rows_[link];
  }

  rsf::sim::Simulator* sim_;
  phy::PhysicalPlant* plant_;
  Topology* topo_;
  Router* router_;
  NetworkConfig config_;
  rsf::sim::RandomStream rng_;  // frame-loss draws only
  rsf::sim::Logger log_;

  // Hot-path state is vector-indexed: link rows by (dense, monotonically
  // assigned) LinkId, flow state by the dense index each Packet carries. The only hash map left is the cold FlowId -> index
  // resolver used at start_flow time (probes, id kNoFlow, skip it).
  std::vector<LinkRow> link_rows_;
  // Flows and probes share one SlotPool addressed by the {index,
  // generation} each Packet carries; a slot recycles at done +
  // last-straggler-drained (the FlowDrained gate).
  core::SlotPool<FlowState, std::uint32_t, FlowDrained> flows_;
  // rsf-lint: order-insensitive(cold point lookups at start_flow/recycle; never iterated)
  std::unordered_map<FlowId, std::uint32_t> flow_index_;
  // Packets in flight, each named by its slot index in every event
  // that carries it.
  core::SlotPool<Packet> packets_;

  // Sliding window accounting for dynamic switch power: one 8-byte
  // entry per hop, {ps since the previous entry, bits switched},
  // oldest first, plus the running sum over the log. A push only
  // appends; entries older than kPowerWindow leave at a query (so the
  // sum there is exactly the bits switched in the trailing window),
  // when the log is full, or all at once when a push comes more than
  // kPowerWindow after the newest entry. So a gap never exceeds
  // kPowerWindow (< 2^32 ps) and fits 32 bits; a frame over 2^32 bits
  // splits into entries at one time.
  struct SwitchedBits {
    std::uint32_t dt_ps;
    std::uint32_t bits;
  };
  mutable core::ChunkedRing<SwitchedBits> switched_bits_log_;
  mutable std::uint64_t switched_bits_window_ = 0;  // sum over the log
  mutable rsf::sim::SimTime switched_bits_front_ = rsf::sim::SimTime::zero();  // oldest entry
  rsf::sim::SimTime switched_bits_back_ = rsf::sim::SimTime::zero();  // newest entry

  // Static switching-end count, cached against the topology version
  // (0 = never computed; real versions start at 1). Lane-state and
  // reconfig mutations bump the version and invalidate it.
  mutable std::uint64_t switching_ends_version_ = 0;
  mutable std::size_t switching_ends_ = 0;

  // Instruments live in the registry (owned locally only when the
  // caller supplied none). Declared after own_registry_ so the
  // references initialize against a live registry.
  std::unique_ptr<telemetry::Registry> own_registry_;
  telemetry::Registry* registry_;
  telemetry::Histogram& packet_latency_;
  telemetry::Histogram& flow_completion_;
  telemetry::Histogram& hop_counts_;
  telemetry::CounterSet& counters_;
  // Per-packet hot-path counter slots (stable references into
  // counters_; see CounterSet::slot).
  std::uint64_t& injected_slot_;
  std::uint64_t& delivered_slot_;
  std::uint64_t& probe_count_slot_;
  EventCounter reroute_waits_{"net.reroute_waits"};
  EventCounter retransmits_{"net.retransmits"};
  EventCounter frames_corrupted_{"net.frames_corrupted"};
  EventCounter no_route_drops_{"net.drops.no_route"};
  EventCounter retries_exhausted_drops_{"net.drops.retries_exhausted"};
  EventCounter flows_started_{"net.flows_started"};
  EventCounter flows_completed_{"net.flows_completed"};
  EventCounter flows_failed_{"net.flows_failed"};
};

}  // namespace rsf::fabric
