// rsf::fabric — the packet transport engine.
//
// Network simulates packet movement over the topology at packet-event
// granularity (one event per hop). The switch model is cut-through:
// a packet's head can leave a node `switch_latency` after it arrives,
// while its tail is still streaming in, subject to (a) output-port
// serialization (ports are modelled with busy-until arithmetic, FIFO)
// and (b) the no-underrun constraint — a hop may not *finish*
// transmitting before the tail has arrived. Store-and-forward mode is
// available as the comparison baseline (Figure 1's dominant term).
//
// Sources are window-limited: a flow keeps at most `flow_window`
// packets in flight, modelling the lossless backpressure a rack fabric
// provides without simulating per-hop credits. Frames lost to
// uncorrectable FEC errors (sampled per hop from the link's analytic
// loss probability) are retransmitted from the source.
#pragma once

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

struct SwitchParams {
  /// Per-hop pipeline latency of the switching element (cut-through
  /// lookup + crossbar). State-of-the-art L2 cut-through, ~450 ns.
  rsf::sim::SimTime switch_latency = rsf::sim::SimTime::nanoseconds(450);
  /// Injection / delivery overhead at the end hosts' NICs.
  rsf::sim::SimTime nic_latency = rsf::sim::SimTime::nanoseconds(300);
  bool cut_through = true;
  /// Static power per switch port that is in switching (non-bypassed)
  /// use, and dynamic energy per switched bit.
  double port_static_w = 1.5;
  double pj_per_bit = 15.0;
};

struct NetworkConfig {
  SwitchParams switch_params;
  /// Max packets a flow keeps in flight (source backpressure window).
  int flow_window = 16;
  /// Give up after this many retransmits of one packet.
  int max_retries = 16;
  /// Drop packets that have crossed this many hops (routing-loop
  /// backstop; transient loops can occur while tables refresh).
  int max_hops = 64;
  /// Delay before a retransmit or a no-route retry re-enters the NIC.
  rsf::sim::SimTime retry_delay = rsf::sim::SimTime::microseconds(5);
  std::uint64_t seed = 1;
};

class Network {
 public:
  using FlowCallback = std::function<void(const FlowResult&)>;
  using ProbeCallback =
      std::function<void(rsf::sim::SimTime latency, int hops, bool delivered)>;

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
  /// on completion (or failure after retry exhaustion).
  void start_flow(const FlowSpec& spec, FlowCallback on_complete = nullptr);

  /// One tracer packet; callback fires at delivery (or drop).
  void send_probe(phy::NodeId src, phy::NodeId dst, phy::DataSize size,
                  ProbeCallback cb);

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
  /// dynamic switching power from the recent bit rate. `window` sets
  /// how far back "recent" looks.
  [[nodiscard]] double switch_power_watts(
      rsf::sim::SimTime window = rsf::sim::SimTime::milliseconds(1)) const;

  [[nodiscard]] std::uint64_t flows_completed() const { return flows_completed_; }
  [[nodiscard]] std::uint64_t flows_failed() const { return flows_failed_; }
  [[nodiscard]] const NetworkConfig& config() const { return config_; }

  /// Flow-slot pool observability: total slots ever allocated and how
  /// many are currently free. A long-lived service churning millions
  /// of flows holds slots() at its peak concurrency, not its flow
  /// count — completed slots recycle through a SlotPool like probes.
  [[nodiscard]] std::size_t flow_slots() const { return flows_.size(); }
  [[nodiscard]] std::size_t free_flow_slots() const { return flows_.free_count(); }

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
    /// Packets injected and not yet delivered or dropped (a lost
    /// packet awaiting retransmit still counts). A slot recycles only
    /// at done && inflight == 0, so no in-flight packet can ever see
    /// its slot reused.
    int inflight = 0;
    rsf::sim::SimTime started = rsf::sim::SimTime::zero();
    bool failed = false;
    bool done = false;
  };

  struct PortState {
    rsf::sim::SimTime busy_until = rsf::sim::SimTime::zero();
  };

  struct LinkUse {
    rsf::sim::SimTime busy = rsf::sim::SimTime::zero();
    rsf::sim::SimTime queue_delay_sum = rsf::sim::SimTime::zero();
    std::uint64_t queue_delay_samples = 0;
    std::uint64_t packets = 0;
    std::uint64_t bits = 0;
  };

  struct ProbeState {
    ProbeCallback cb;
  };

  /// SlotPool recycle gate for flows_: a slot returns to the free list
  /// only when the flow is done AND its last in-flight packet (a lost
  /// packet awaiting retransmit included) has drained.
  struct FlowDrained {
    [[nodiscard]] bool operator()(const FlowState& f) const {
      return f.done && f.inflight == 0;
    }
  };

  void pump_flow(std::uint32_t flow_idx);
  void inject(Packet pkt, rsf::sim::SimTime when);
  /// Head of `pkt` is available at `node` at head_ready (switch/NIC
  /// latency already applied); tail fully arrived at tail_ready.
  void hop(Packet pkt, phy::NodeId node, rsf::sim::SimTime head_ready,
           rsf::sim::SimTime tail_ready);
  void deliver(const Packet& pkt, rsf::sim::SimTime when);
  void drop(const Packet& pkt, const char* reason);
  void retransmit(Packet pkt);
  void flow_packet_delivered(std::uint32_t flow_idx);
  void finish_flow(std::uint32_t flow_idx, bool failed);
  /// Release the slot to the free list once the flow is done and its
  /// last straggler packet has drained.
  void maybe_recycle_flow(std::uint32_t flow_idx);
  /// The flow a packet belongs to, or nullptr when the slot has been
  /// recycled since (defensive: the id generation check makes stale
  /// dense indices harmless).
  [[nodiscard]] FlowState* live_flow(const Packet& pkt) {
    if (pkt.flow_idx < 0) return nullptr;
    const auto idx = static_cast<std::uint32_t>(pkt.flow_idx);
    if (idx >= flows_.size() || flows_[idx].spec.id != pkt.flow) return nullptr;
    return &flows_[idx];
  }
  void record_switched_bits(const Packet& pkt);

  /// A port is one cable end in switching use: every link has exactly
  /// two, so (link, side) indexes a dense pool with no hashing.
  [[nodiscard]] PortState& port_at(phy::NodeId node, phy::LinkId link,
                                   const phy::LogicalLink& l) {
    const std::size_t idx = static_cast<std::size_t>(link) * 2 + (l.end_a() == node ? 0 : 1);
    if (idx >= ports_.size()) ports_.resize((static_cast<std::size_t>(link) + 1) * 2);
    return ports_[idx];
  }
  [[nodiscard]] LinkUse& link_use_at(phy::LinkId link) {
    if (link >= link_use_.size()) link_use_.resize(link + 1);
    return link_use_[link];
  }

  rsf::sim::Simulator* sim_;
  phy::PhysicalPlant* plant_;
  Topology* topo_;
  Router* router_;
  NetworkConfig config_;
  rsf::sim::RandomStream rng_;
  rsf::sim::Logger log_;

  // Hot-path state is vector-indexed: ports and link usage by (dense,
  // monotonically assigned) LinkId, flow and probe state by the dense
  // index each Packet carries. The only hash map left is the cold
  // FlowId -> index resolver used at start_flow time.
  std::vector<PortState> ports_;   // 2 slots per link: [link*2 + side]
  std::vector<LinkUse> link_use_;  // by LinkId
  // Flow and probe state live in shared SlotPools addressed by the
  // dense index each Packet carries; flow slots recycle at
  // done + last-straggler-drained (the FlowDrained gate), probe slots
  // at their terminal callback.
  core::SlotPool<FlowState, std::uint64_t, FlowDrained> flows_;
  core::SlotPool<ProbeState> probes_;
  // rsf-lint: order-insensitive(cold point lookups at start_flow/recycle; never iterated)
  std::unordered_map<FlowId, std::uint32_t> flow_index_;
  std::uint64_t next_packet_id_ = 1;
  std::uint64_t flows_completed_ = 0;
  std::uint64_t flows_failed_ = 0;

  // Sliding window accounting for dynamic switch power: (time,
  // cumulative switched bits) per hop, oldest first. The log keeps
  // only the trailing retention window (the largest window any power
  // query has asked for): entries age out on append, so the log stays
  // bounded over arbitrarily long runs, and once it spans the window
  // appending reuses slots instead of allocating.
  struct SwitchedBits {
    rsf::sim::SimTime t;
    std::uint64_t bits = 0;
  };
  std::uint64_t switched_bits_total_ = 0;
  core::ChunkedRing<SwitchedBits> switched_bits_log_;
  /// Cumulative bits (and timestamp) at the newest pruned entry: the
  /// baseline for a query whose window spans the whole retained log,
  /// and the start of the span the log actually covers.
  std::uint64_t switched_bits_pruned_ = 0;
  rsf::sim::SimTime switched_bits_pruned_time_ = rsf::sim::SimTime::zero();
  mutable rsf::sim::SimTime power_retention_ = rsf::sim::SimTime::milliseconds(1);

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
  std::uint64_t& probes_slot_;
};

}  // namespace rsf::fabric
