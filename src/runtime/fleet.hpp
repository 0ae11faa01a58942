// rsf::runtime — the FleetRuntime: multi-rack sharded simulation.
//
// A FleetRuntime owns N FabricRuntime shards (one rack each, every
// rack independently configured — grid here, torus there, a ring of
// storage nodes in the corner), wires their gateway nodes together
// through an Interconnect of spine links, and drives everything from
// ONE shared Simulator clock, so cross-rack causality is exact and
// runs stay bit-for-bit deterministic.
//
// There is one drive train: the fleet layer (spine, controller,
// retries, flow bookkeeping) and every rack shard schedule onto the
// same calendar ring, and rack-network callbacks run the fleet-layer
// continuation inline. The event order is therefore a pure function
// of the config and seed — the same seed renders the same bytes.
//
// Cross-rack transport is per-packet: a fleet flow is packetized at
// the source and each packet streams over the whole path — rack leg to
// the gateway, spine hop(s), far rack leg — with cut-through
// pipelining across stages (while packet k serializes on the spine,
// packet k+1 is already crossing the source rack). The flow keeps at
// most fabric::kFlowWindow packets in flight; spine losses and
// rack-leg drops retry from the fleet layer fabric::kRetryDelay later,
// at most fabric::kMaxRetries times per packet (the rack Network's own
// window/retry trio); packets whose next spine hop died mid-flight
// re-plan from the rack they are in (or fail the flow
// deterministically when the fleet is partitioned). Routes are
// resolved per packet through the Interconnect's memoized route
// cache, so FleetController repricing shifts later packets onto
// cheaper links. A same-rack (src.rack == dst.rack) flow is one plain
// Network flow, so a 1-shard fleet is behaviourally identical to a
// standalone FabricRuntime.
//
// Spine bookings compose on top of the packetized path: every pump a
// flow re-checks (against the spine's booking version, 0 while
// bookings are unused) which bookings its (src, dst) rack pair holds,
// and tags its packets with them round-robin, so they ride the carved
// slice or the owned slots instead of the shared residual FIFOs. A
// carve also pins the flow's own route (and so its demand hop count);
// slot bookings pin only their packets' paths. Preemption (spine link
// failure) or slot expiry makes a handle stale: in-flight packets fall
// back to the shared residual and the next pump re-binds. Offered
// cross-rack load is noted per (src, dst) pair at packetization time —
// the FleetController's promotion input.
//
// Completed fleet flows recycle their dense flows_ slots through the
// shared core::SlotPool (like Network::flows_): a slot returns when
// the flow is done AND its last in-flight packet has drained (the
// pool's recycle gate), and the pool's per-slot generation makes any
// straggler closure (scheduled starts, rack-leg and spine
// continuations) detectably stale, so a service churning millions of
// fleet flows holds flows_ at peak concurrency.
//
// Telemetry: the fleet registry holds "spine.*" and "fleet.*" live,
// and metrics() snapshots every shard's registry into it under
// "rack<N>." prefixes ("rack0.net.packet_latency",
// "rack2.crc.rack_power_w") — one table for the whole fleet.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "core/slot_pool.hpp"
#include "fabric/interconnect.hpp"
#include "runtime/fleet_controller.hpp"
#include "runtime/runtime.hpp"
#include "workload/crossrack.hpp"

namespace rsf::runtime {

struct RackSpec {
  RuntimeConfig config;
  /// Spine attach point used when a SpineSpec doesn't name one.
  phy::NodeId gateway = 0;
};

struct SpineSpec {
  std::uint32_t rack_a = 0;
  std::uint32_t rack_b = 0;
  /// Gateway overrides; kInvalidNode means "the rack's default".
  phy::NodeId gateway_a = phy::kInvalidNode;
  phy::NodeId gateway_b = phy::kInvalidNode;
  phy::DataRate rate = phy::DataRate::gbps(400);
  rsf::sim::SimTime latency = rsf::sim::SimTime::microseconds(1);
  /// Per-packet loss probability on this spine hop (0 = lossless).
  double loss_prob = 0.0;
  /// Initial routing cost (the FleetController reprices live).
  double cost = 1.0;
};

struct FleetConfig {
  std::vector<RackSpec> racks;
  std::vector<SpineSpec> spine;
  /// Seeds the spine's loss sampler; racks derive their own streams
  /// from their RackSpec configs, so adding a rack never perturbs
  /// another rack's draws.
  std::uint64_t seed = 1;
  /// Construct the spine-aware FleetController. start() arms its
  /// epoch loop.
  bool enable_controller = false;
  FleetControllerConfig controller{};
};

/// A fleet-level flow: size bytes from src to dst, possibly crossing
/// the spine. Ids are caller bookkeeping (results echo them); the
/// intra-rack legs draw from a reserved per-network id space.
struct FleetFlowSpec {
  fabric::FlowId id = 1;
  fabric::RackNode src;
  fabric::RackNode dst;
  phy::DataSize size = phy::DataSize::kilobytes(64);
  phy::DataSize packet_size = phy::DataSize::bytes(1024);
  rsf::sim::SimTime start = rsf::sim::SimTime::zero();
};

struct FleetFlowResult {
  FleetFlowSpec spec;
  rsf::sim::SimTime started = rsf::sim::SimTime::zero();
  rsf::sim::SimTime finished = rsf::sim::SimTime::zero();
  /// Deepest intra-rack leg / spine crossing count any packet of the
  /// flow traversed (a same-rack flow: one leg, or none to itself).
  int rack_legs = 0;
  int spine_hops = 0;
  /// Fleet-level retransmits (spine losses and rack-leg drops).
  std::uint64_t retransmits = 0;
  bool failed = false;

  [[nodiscard]] rsf::sim::SimTime completion_time() const { return finished - started; }
};

class FleetRuntime {
 public:
  using FleetFlowCallback = std::function<void(const FleetFlowResult&)>;

  /// Leg flows injected into shard networks use ids at and above this
  /// base; experiment flows on the same networks must stay below it.
  static constexpr fabric::FlowId kLegFlowBase = fabric::FlowId{1} << 62;

  explicit FleetRuntime(FleetConfig config);

  FleetRuntime(const FleetRuntime&) = delete;
  FleetRuntime& operator=(const FleetRuntime&) = delete;

  // --- the sharded stack ---

  [[nodiscard]] rsf::sim::Simulator& sim() { return sim_; }
  [[nodiscard]] std::size_t rack_count() const { return racks_.size(); }
  [[nodiscard]] FabricRuntime& rack(std::size_t i);
  [[nodiscard]] fabric::Interconnect& spine() { return *spine_; }
  [[nodiscard]] bool has_controller() const { return controller_ != nullptr; }
  /// Throws std::logic_error when built with enable_controller = false.
  [[nodiscard]] FleetController& controller();
  [[nodiscard]] phy::NodeId gateway(std::uint32_t rack) const;
  /// Convenience (rack, node_at(x, y)) address.
  [[nodiscard]] fabric::RackNode at(std::uint32_t rack, int x, int y);

  // --- control ---

  /// Arm every rack's CRC epoch loop and the fleet controller (either
  /// no-ops when absent).
  void start();
  void stop();

  // --- controller kill/restart (the chaos harness's primitive) ---

  /// Crash the controller mid-epoch: stop its tick loop, expire its
  /// booking leases (the fabric releases a dead controller's
  /// bookings), and destroy it. Learned state is lost unless a
  /// checkpoint was taken beforehand (controller().checkpoint()).
  /// Throws std::logic_error when no controller is alive.
  void kill_controller();

  /// Bring a controller back after kill_controller(): rebuild it from
  /// the fleet's controller config, optionally load `ckpt`, and — when
  /// the fleet is started — arm its epoch loop at the current time. A
  /// cold restart (null ckpt) re-learns bookings from scratch; a
  /// checkpointed restart re-earns them on the first post-restart
  /// epoch if the pair is still hot. Counts fleet.controller_restarts.
  /// Throws std::logic_error when built with enable_controller = false
  /// or while a controller is still alive.
  void restart_controller(const FleetControllerCheckpoint* ckpt = nullptr);
  /// Drain the fleet's shared clock to `until`.
  std::size_t run_until(rsf::sim::SimTime until = rsf::sim::SimTime::infinity()) {
    return sim_.run_until(until);
  }
  [[nodiscard]] rsf::sim::SimTime now() const { return sim_.now(); }

  // --- cross-rack transport ---

  /// Start a fleet flow; the callback fires when the last packet lands
  /// (or on deterministic failure: no spine route, spine partition
  /// mid-flow, or retry exhaustion).
  void start_flow(const FleetFlowSpec& spec, FleetFlowCallback on_complete = nullptr);

  // --- workloads (owned by the fleet, destroyed with it) ---

  workload::CrossRackShuffle& add_shuffle(workload::CrossRackShuffleConfig cfg);

  // --- telemetry ---

  /// The fleet registry: "spine.*" and "fleet.*" live, plus a fresh
  /// "rack<N>.*" snapshot of every shard taken by this call. Prefixed
  /// entries are refreshed in place, so instrument references stay
  /// valid across calls (they are snapshots — re-call after running
  /// further).
  [[nodiscard]] telemetry::Registry& metrics();
  /// One table with every rack's and the spine's instruments.
  [[nodiscard]] telemetry::Table metrics_table();

  [[nodiscard]] std::uint64_t flows_completed() const { return flows_completed_; }
  [[nodiscard]] std::uint64_t flows_failed() const { return flows_failed_; }
  [[nodiscard]] const FleetConfig& config() const { return config_; }

  /// Flow-slot pool observability (mirrors Network): total slots ever
  /// allocated and how many are free right now. Churning millions of
  /// fleet flows holds flow_slots() at peak concurrency.
  [[nodiscard]] std::size_t flow_slots() const { return flows_.size(); }
  [[nodiscard]] std::size_t free_flow_slots() const { return flows_.free_count(); }
  /// Packet-slot pool observability, same contract: after a fleet
  /// quiesces (every flow terminal, pipeline drained) free must equal
  /// total — the chaos verifier's stale-handle/leak check.
  [[nodiscard]] std::size_t packet_slots() const { return packets_.size(); }
  [[nodiscard]] std::size_t free_packet_slots() const { return packets_.free_count(); }

 private:
  struct FleetFlowState {
    FleetFlowSpec spec;
    FleetFlowCallback on_complete;
    rsf::sim::SimTime started = rsf::sim::SimTime::zero();
    bool done = false;
    // --- packetized transport ---
    std::uint64_t packets_total = 0;
    std::uint64_t next_seq = 0;
    std::uint64_t delivered = 0;
    std::uint64_t retransmits = 0;
    int inflight = 0;
    /// The flow's current route, shared by its packets (refcount, not
    /// copy, per packet) and re-resolved when the spine version moves.
    std::shared_ptr<const std::vector<fabric::SpineLinkId>> route;
    std::uint64_t route_version = 0;
    /// The pair's bookings and their pinned routes (copied once per
    /// adoption, shared by every packet riding them), re-checked when
    /// the spine's booking version moves — it stays 0 while bookings
    /// are never used, so unbooked fleets skip the whole branch. A
    /// carve's route, when the pair holds one, also pins `route`.
    std::vector<fabric::SpineBookingHandle> bookings;
    std::vector<std::shared_ptr<const std::vector<fabric::SpineLinkId>>> booking_routes;
    std::shared_ptr<const std::vector<fabric::SpineLinkId>> carve_route;
    std::uint64_t booking_version = 0;
    std::uint64_t carve_version = 0;
    /// Demand accounting resolved with the route: a stable slot into
    /// the spine's pair-demand map plus the route's hop count, so the
    /// per-packet byte·hop bump is a pointer add, not a map lookup.
    std::uint64_t* demand_slot = nullptr;
    std::uint64_t demand_hops = 0;
    // --- result bookkeeping ---
    int rack_legs = 0;
    int spine_hops = 0;
  };

  /// One fleet packet in flight. Packets live in a dense recycled
  /// pool (like Network's flows) so the per-stage continuations
  /// capture only [this, pkt_idx] — small enough for std::function's
  /// inline buffer, no heap allocation per stage.
  struct FleetPacket {
    std::uint32_t flow_idx = 0;
    /// Generation of the flow slot at injection (stale-slot guard).
    std::uint64_t flow_gen = 0;
    /// The booking this packet rides (valid() only when its flow held
    /// one at injection); a handle gone stale by arrival (preemption,
    /// expiry) degrades to the shared residual.
    fabric::SpineBookingHandle booking;
    phy::DataSize size = phy::DataSize::zero();
    /// Spine links still ahead of the packet (from path[next_hop] on).
    /// Shared with the flow until a mid-flight re-plan clones it.
    std::shared_ptr<const std::vector<fabric::SpineLinkId>> path;
    std::size_t next_hop = 0;
    fabric::RackNode at;
    /// Destination node of the rack leg currently in flight.
    phy::NodeId leg_to = phy::kInvalidNode;
    int rack_legs = 0;
    int spine_hops = 0;
    int retries = 0;
  };

  // Packetized pipeline. Stages address packets by pool index; a
  // packet's slot recycles at its terminal stage (delivery, failure,
  // or evaporation after its flow already failed).
  void pump_packets(std::uint32_t flow_idx);
  void packet_step(std::uint32_t pkt_idx);
  void packet_rack_leg(std::uint32_t pkt_idx, phy::NodeId to);
  void packet_spine_hop(std::uint32_t pkt_idx);
  void packet_delivered(std::uint32_t pkt_idx);
  void packet_retry(std::uint32_t pkt_idx);
  void packet_failed(std::uint32_t pkt_idx);
  /// Drop the packet out of flight and recycle its slot; returns its
  /// flow index.
  std::uint32_t release_packet(std::uint32_t pkt_idx);

  void finish_fleet_flow(std::uint32_t flow_idx, bool failed);
  /// The packet's flow, or nullptr when the slot was recycled since
  /// (the inflight gate makes that impossible for live packets;
  /// defensive, like Network::live_flow).
  [[nodiscard]] FleetFlowState* live_flow(const FleetPacket& pkt) {
    return flows_.get_live(pkt.flow_idx, pkt.flow_gen);
  }

  /// SlotPool recycle gate for flows_: hold the slot until the flow is
  /// done AND its last in-flight packet has drained.
  struct FleetFlowDrained {
    [[nodiscard]] bool operator()(const FleetFlowState& f) const {
      return f.done && f.inflight == 0;
    }
  };

  FleetConfig config_;
  rsf::sim::Simulator sim_;
  // Declared before the racks/spine: spine instruments point here.
  telemetry::Registry registry_;
  // Fleet-layer accounting folded into the live "spine.*" set; cached
  // slots keep the retry/reroute paths off the registry maps.
  std::uint64_t& spine_retransmits_slot_ = registry_.counters("spine").slot("spine.retransmits");
  std::uint64_t& spine_reroutes_slot_ =
      registry_.counters("spine").slot("spine.packet_reroutes");
  std::vector<std::unique_ptr<FabricRuntime>> racks_;
  std::unique_ptr<fabric::Interconnect> spine_;
  std::unique_ptr<FleetController> controller_;
  // Flow and packet state live in shared SlotPools; flow closures
  // capture (index, generation) pairs validated through the pool.
  // flows_.maybe_recycle returns a flow's slot only once it is done
  // and its last straggler packet has drained (the FleetFlowDrained
  // gate); the reset drops the route and booking refs, and the bumped
  // generation makes every captured (index, generation) pair stale.
  core::SlotPool<FleetFlowState, std::uint64_t, FleetFlowDrained> flows_;
  core::SlotPool<FleetPacket> packets_;
  fabric::FlowId next_leg_id_ = kLegFlowBase;
  /// Between start() and stop(): a controller restarted while the
  /// fleet is live arms its epoch loop immediately.
  bool started_ = false;
  std::uint64_t flows_completed_ = 0;
  std::uint64_t flows_failed_ = 0;
  std::vector<std::unique_ptr<workload::CrossRackShuffle>> shuffles_;
};

}  // namespace rsf::runtime
