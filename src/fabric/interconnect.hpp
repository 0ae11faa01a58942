// rsf::fabric — the inter-rack spine.
//
// An Interconnect models the links *between* racks of a fleet: spine
// cables with a configurable rate and propagation latency, each
// connecting a designated gateway node in one rack to a gateway node
// in another. Since PR 3 the spine is a first-class packet-switched
// layer: the fleet transport streams individual packets through
// send_packet() (per-packet FIFO busy-until serialization, propagation
// latency, and Bernoulli loss sampled from the link's loss_prob), while
// the legacy bulk transfer() remains as the store-and-forward
// comparison baseline.
//
// Rack-level routing is cost-aware shortest path over the rack graph
// (Dijkstra; unit costs degenerate to breadth-first order) skipping
// administratively-down links, with deterministic tie-breaking:
// equal-cost candidates prefer fewer hops, then the expansion from
// the lowest-id rack, then the lowest-id edge out of it — every run
// picks the same route. Routes are memoized per
// (src_rack, dst_rack) against a monotonically increasing spine
// version; add_link, set_link_up and set_link_cost (the controller's
// repricing hook) bump the version, so cached routes are invalidated
// exactly when the graph or its prices change.
//
// Circuit-style capacity can be carved on top of the packetized
// spine: reserve(src, dst, fraction) pins the current cheapest route
// for a (rack, rack) pair and dedicates `fraction` of every crossed
// link's capacity — in the direction of travel only — to that pair.
// Packets sent under the reservation's versioned handle serialize on
// the reservation's private per-hop FIFO at the carved rate,
// bypassing the shared FIFO's contention, while unreserved traffic
// sees the link's residual rate (rate × (1 − reserved fraction)).
// Reservations survive repricing (the route is pinned) but are torn
// down when any crossed link fails — their traffic falls back to the
// shared residual via the stale-handle check. With no reservations
// configured the shared path is arithmetically identical to the
// pre-reservation spine: the packetized default is untouched.
//
// Metrics land in the owning registry under "spine.*", including
// per-link packet counters ("spine.link3.packets") the fleet
// controller tests assert traffic shifts against.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "core/slot_pool.hpp"
#include "core/small_function.hpp"
#include "fabric/slot_calendar.hpp"
#include "phy/types.hpp"
#include "phy/units.hpp"
#include "sim/random.hpp"
#include "sim/simulator.hpp"
#include "telemetry/counters.hpp"
#include "telemetry/histogram.hpp"
#include "telemetry/registry.hpp"

namespace rsf::fabric {

/// A (rack, node) address in a multi-rack fleet.
struct RackNode {
  std::uint32_t rack = 0;
  phy::NodeId node = phy::kInvalidNode;

  friend bool operator==(const RackNode&, const RackNode&) = default;
};

using SpineLinkId = std::uint32_t;

/// Versioned handle to a spine circuit reservation. Slots are
/// recycled; the generation detects a handle that outlived its
/// reservation (released, or preempted by a link failure) — stale
/// handles are safely inert everywhere they are accepted.
struct SpineReservationHandle {
  static constexpr std::uint32_t kInvalidId = 0xFFFFFFFFu;
  std::uint32_t id = kInvalidId;
  std::uint32_t generation = 0;

  [[nodiscard]] bool valid() const { return id != kInvalidId; }
  friend bool operator==(const SpineReservationHandle&,
                         const SpineReservationHandle&) = default;
};

/// Versioned handle to a spine slot schedule (the TDMA regime's
/// counterpart of SpineReservationHandle): same recycled-slot +
/// generation staleness contract — released, expired, or preempted
/// schedules leave holders with an inert handle.
struct SpineScheduleHandle {
  static constexpr std::uint32_t kInvalidId = 0xFFFFFFFFu;
  std::uint32_t id = kInvalidId;
  std::uint32_t generation = 0;

  [[nodiscard]] bool valid() const { return id != kInvalidId; }
  friend bool operator==(const SpineScheduleHandle&,
                         const SpineScheduleHandle&) = default;
};

struct SpineLinkParams {
  /// The two gateway endpoints. a.rack != b.rack.
  RackNode a;
  RackNode b;
  phy::DataRate rate = phy::DataRate::gbps(400);
  /// One-way propagation between the racks (spine cables are long).
  rsf::sim::SimTime latency = rsf::sim::SimTime::microseconds(1);
  /// Per-packet loss probability on this hop (uncorrectable errors at
  /// fleet scale). Sampled by send_packet(); 0 keeps runs loss-free.
  double loss_prob = 0.0;
  /// Initial routing cost (> 0). The FleetController reprices live.
  double cost = 1.0;
};

class Interconnect {
 public:
  /// cb(arrival): the transfer's last bit reaches the far gateway.
  /// SmallFunction (not std::function) keeps the scheduled completion
  /// continuation trivially copyable, so it rides the Simulator's
  /// inline event arm — per-packet spine sends never allocate.
  using DeliveryCallback = core::SmallFunction<void(rsf::sim::SimTime arrival)>;
  /// cb(arrival, delivered): the packet's last bit reaches the far
  /// gateway (delivered == false when the hop lost it — the sender
  /// owns retransmission).
  using PacketCallback =
      core::SmallFunction<void(rsf::sim::SimTime arrival, bool delivered)>;

  /// Metrics go to `registry` under "spine.*" (never null; the
  /// FleetRuntime hands the fleet registry in). `seed` feeds the loss
  /// sampler; equal seeds reproduce loss patterns bit-for-bit.
  Interconnect(rsf::sim::Simulator* sim, telemetry::Registry* registry,
               std::uint64_t seed = 1);

  Interconnect(const Interconnect&) = delete;
  Interconnect& operator=(const Interconnect&) = delete;

  SpineLinkId add_link(SpineLinkParams params);
  [[nodiscard]] std::size_t link_count() const { return links_.size(); }
  [[nodiscard]] const SpineLinkParams& link(SpineLinkId id) const;

  /// Administrative state: a down spine link carries nothing and is
  /// invisible to route(). Opens the spine-failure scenario family.
  /// Idempotent: repeating the current state is a no-op (no counter
  /// transition, no version bump, no preemption walk) — overlapping
  /// shared-risk groups cut the same link twice routinely.
  void set_link_up(SpineLinkId id, bool up);
  [[nodiscard]] bool link_up(SpineLinkId id) const;

  // --- shared-risk groups (correlated failure) ---

  using SrlgId = std::uint32_t;

  /// Register a shared-risk link group: links that fail together (a
  /// conduit, a power domain, a trench). One set_group_up(id, false)
  /// cuts every member; membership may overlap between groups (link
  /// administrative state is last-writer-wins, which set_link_up's
  /// idempotence keeps counter-exact). Links must already exist; a
  /// group must not be empty.
  SrlgId add_shared_risk_group(std::vector<SpineLinkId> links);

  /// Cut (up == false) or repair (up == true) every member link.
  /// Idempotent at group granularity: repeating the group's current
  /// state is a no-op and the spine.srlg_cuts / spine.srlg_repairs
  /// counters advance once per actual transition.
  void set_group_up(SrlgId group, bool up);
  [[nodiscard]] bool group_up(SrlgId group) const;
  [[nodiscard]] const std::vector<SpineLinkId>& shared_risk_group(SrlgId group) const;
  [[nodiscard]] std::size_t shared_risk_group_count() const { return srlgs_.size(); }

  /// Every spine link with an endpoint gateway in `rack`, ascending by
  /// id — the rack's spine attachments. Failing all of them is a
  /// rack-wide brownout (the chaos harness's second correlated-failure
  /// primitive).
  [[nodiscard]] std::vector<SpineLinkId> rack_attachments(std::uint32_t rack) const;

  /// Live routing cost of `id`. Starts at params.cost; repriced by the
  /// FleetController. Setting a changed cost bumps the spine version.
  void set_link_cost(SpineLinkId id, double cost);
  [[nodiscard]] double link_cost(SpineLinkId id) const;

  /// Monotonic version of the rack graph + its prices. Bumped by
  /// add_link, by set_link_up, and by set_link_cost when the cost
  /// actually changes; the route cache keys on it.
  [[nodiscard]] std::uint64_t version() const { return version_; }

  /// The far endpoint of `id` as seen from `from_rack`.
  [[nodiscard]] const RackNode& far_end(SpineLinkId id, std::uint32_t from_rack) const;

  /// Cheapest up-link path src_rack -> dst_rack over the rack graph
  /// (cost-weighted; ties prefer fewer hops, then the lowest-id rack's
  /// expansion, then its lowest-id edge, so routes are deterministic).
  /// nullopt when unreachable; empty
  /// when src == dst. Memoized per (src, dst) against version() —
  /// the per-packet hot path resolves routes through here.
  [[nodiscard]] std::optional<std::vector<SpineLinkId>> route(std::uint32_t src_rack,
                                                              std::uint32_t dst_rack) const;

  /// The uncached computation behind route(); exposed so tests can
  /// assert the cache hit path returns exactly what a fresh search
  /// would.
  [[nodiscard]] std::optional<std::vector<SpineLinkId>> compute_route(
      std::uint32_t src_rack, std::uint32_t dst_rack) const;

  /// compute_route with an avoid-set: links in `avoid` are skipped as
  /// if administratively down. The multi-path schedule split uses it
  /// to find a second route link-disjoint from the first.
  [[nodiscard]] std::optional<std::vector<SpineLinkId>> compute_route_avoiding(
      std::uint32_t src_rack, std::uint32_t dst_rack,
      const std::vector<SpineLinkId>& avoid) const;

  // --- circuit reservations ---

  /// Carve `fraction` (0 < fraction < 1) of per-direction capacity for
  /// the pair (src_rack, dst_rack) along the current cheapest route,
  /// which is pinned for the reservation's lifetime. Fails (nullopt)
  /// when src == dst, no route exists, the pair already holds a
  /// reservation, or any crossed direction lacks the headroom (the
  /// total carved fraction per direction must stay below 1). Bumps the
  /// reservation version so transports re-check their pair bindings.
  std::optional<SpineReservationHandle> reserve(std::uint32_t src_rack,
                                                std::uint32_t dst_rack,
                                                double bandwidth_fraction);

  /// Tear the reservation down and return its capacity to the shared
  /// residual. Stale handles are a no-op (release is idempotent and
  /// races with failure-driven preemption are benign).
  void release(SpineReservationHandle handle);

  /// True while `handle` names a live reservation (same generation).
  [[nodiscard]] bool reservation_active(SpineReservationHandle handle) const;

  /// The live reservation for (src_rack, dst_rack), if any.
  [[nodiscard]] std::optional<SpineReservationHandle> find_reservation(
      std::uint32_t src_rack, std::uint32_t dst_rack) const;

  /// The pinned route of a live reservation (crossing order).
  /// Throws on stale handles — check reservation_active first.
  [[nodiscard]] const std::vector<SpineLinkId>& reservation_route(
      SpineReservationHandle handle) const;
  [[nodiscard]] double reservation_fraction(SpineReservationHandle handle) const;

  /// Live reservations right now.
  [[nodiscard]] std::size_t reservation_count() const {
    return reservations_.size() - reservations_.free_count();
  }

  /// Monotonic version of the reservation table: bumped by reserve(),
  /// release(), and failure-driven preemption. Transports poll it to
  /// adopt or drop a pair's reservation without a per-packet lookup.
  /// Stays 0 while reservations are never used.
  [[nodiscard]] std::uint64_t reservation_version() const { return reservation_version_; }

  /// Fraction of direction (`id`, leaving `from_rack`) currently
  /// carved out by reservations.
  [[nodiscard]] double reserved_fraction(SpineLinkId id, std::uint32_t from_rack) const;

  /// The rate shared (unreserved) traffic actually sees on direction
  /// (`id`, leaving `from_rack`): the nameplate rate minus every
  /// carve crossing it — rate × (1 − reserved_fraction). This is what
  /// the FleetController prices against; with nothing carved it is
  /// exactly the nameplate rate.
  [[nodiscard]] phy::DataRate residual_rate(SpineLinkId id, std::uint32_t from_rack) const;

  // --- slot schedules (the TDMA regime) ---

  /// Wall-clock length of one calendar slot; slot s of the repeating
  /// frame covers [s·d, (s+1)·d) modulo kFrameSlots·d. Changing it
  /// mid-run is refused while any schedule is live (booked slot sets
  /// would silently shift under their owners).
  void set_slot_duration(rsf::sim::SimTime d);
  [[nodiscard]] rsf::sim::SimTime slot_duration() const { return slot_duration_; }

  /// Inactivity window after which a schedule self-expires: a pair
  /// that stopped sending returns its slots without controller help
  /// (each slotted send renews the lease). Applies to schedules booked
  /// after the call.
  void set_slot_timeout(rsf::sim::SimTime timeout);
  [[nodiscard]] rsf::sim::SimTime slot_timeout() const { return slot_timeout_; }

  /// Book a periodic slot schedule for (src_rack, dst_rack): `duty`
  /// owned offsets per `period` slots (period divides
  /// SlotCalendar::kFrameSlots) on every link-direction of the pinned
  /// route — the cheapest current route, or the cheapest avoiding
  /// `avoid`'s links when given (the multi-path split). Admission is
  /// all-or-nothing through the SlotCalendar: any third-party overlap
  /// on any crossed direction refuses the whole booking (nullopt,
  /// "spine.slot_refusals") and leaves no partial claim. A booked
  /// schedule subtracts duty/period from every crossed direction's
  /// shared residual and expires on its own after slot_timeout() of
  /// inactivity. Bumps the schedule version.
  std::optional<SpineScheduleHandle> reserve_slots(
      std::uint32_t src_rack, std::uint32_t dst_rack, int period, int duty,
      const std::vector<SpineLinkId>& avoid = {});

  /// Tear the schedule down and return its slots and residual
  /// fraction. Stale handles are a no-op (idempotent; races with
  /// expiry and failure-driven preemption are benign).
  void release_slots(SpineScheduleHandle handle);

  /// True while `handle` names a live schedule (same generation).
  [[nodiscard]] bool schedule_active(SpineScheduleHandle handle) const;

  /// Every live schedule of (src_rack, dst_rack), booking order — one
  /// pair may hold several (the multi-path split books one per route).
  [[nodiscard]] std::vector<SpineScheduleHandle> find_schedules(
      std::uint32_t src_rack, std::uint32_t dst_rack) const;

  /// The pinned route / owned slot set / capacity share of a live
  /// schedule. Throw on stale handles — check schedule_active first.
  [[nodiscard]] const std::vector<SpineLinkId>& schedule_route(
      SpineScheduleHandle handle) const;
  [[nodiscard]] SlotMask schedule_mask(SpineScheduleHandle handle) const;
  [[nodiscard]] double schedule_fraction(SpineScheduleHandle handle) const;

  /// Live schedules right now.
  [[nodiscard]] std::size_t schedule_count() const {
    return schedules_.size() - schedules_.free_count();
  }

  /// Monotonic version of the schedule table: bumped by
  /// reserve_slots(), release_slots(), expiry, and failure-driven
  /// preemption. Transports poll it to adopt or drop a pair's
  /// schedules without a per-packet lookup. Stays 0 while slot
  /// schedules are never used.
  [[nodiscard]] std::uint64_t schedule_version() const { return schedule_version_; }

  /// Fraction of direction (`id`, leaving `from_rack`) currently owned
  /// by slot schedules (the sum of their duty/period shares).
  [[nodiscard]] double slotted_fraction(SpineLinkId id, std::uint32_t from_rack) const;

  /// The slot-admission ledger (tests assert occupancy against it).
  [[nodiscard]] const SlotCalendar& slot_calendar() const { return calendar_; }

  // --- per-pair demand (the controller's promotion input) ---

  /// Stable reference to the pair's cumulative offered cross-rack
  /// load (created at zero). The unit is byte·hops — payload bytes
  /// weighted by the spine hops the route crosses, the pair's spine
  /// resource footprint — so a long-haul pair is not under-ranked
  /// against short-haul bursts whose small RTT lets them dominate
  /// shared FIFOs. std::map nodes never move, so the FleetRuntime
  /// resolves the slot once per route (re)resolution and bumps it per
  /// packet with no map lookup (the CounterSet::slot idiom); the
  /// FleetController diffs the totals between epochs to find
  /// persistently hot pairs.
  [[nodiscard]] std::uint64_t& pair_demand_slot(std::uint32_t src_rack,
                                                std::uint32_t dst_rack) {
    return pair_demand_[pair_key(src_rack, dst_rack)];
  }
  /// Cumulative demand per pair in byte·hops, keyed (src << 32) | dst.
  [[nodiscard]] const std::map<std::uint64_t, std::uint64_t>& pair_demand() const {
    return pair_demand_;
  }

  // --- packet / bulk transport ---

  /// Occupy `id` in the direction leaving `from_rack` for one packet
  /// of `size` bytes: FIFO serialization at the link rate, then
  /// propagation; loss sampled from the link's loss_prob. `cb` fires
  /// at arrival either way. Returns false (no callback) when the link
  /// is down.
  ///
  /// When `reservation` is live and its pinned route crosses `id`
  /// leaving `from_rack`, the packet serializes on the reservation's
  /// private per-hop FIFO at the carved rate instead of the shared
  /// residual FIFO. A stale or foreign handle falls back to the
  /// shared residual — preempted traffic degrades, never errors.
  bool send_packet(SpineLinkId id, std::uint32_t from_rack, phy::DataSize size,
                   SpineReservationHandle reservation, PacketCallback cb);
  bool send_packet(SpineLinkId id, std::uint32_t from_rack, phy::DataSize size,
                   PacketCallback cb) {
    return send_packet(id, from_rack, size, SpineReservationHandle{}, std::move(cb));
  }

  /// Slotted variant: when `schedule` is live and its pinned route
  /// crosses `id` leaving `from_rack`, the packet waits for the
  /// pair's next owned calendar slot on that hop and serializes at the
  /// full link rate inside it — collision-free by the calendar's
  /// admission rule — and the send renews the schedule's inactivity
  /// lease. A stale or foreign handle falls back to the shared
  /// residual: expired or preempted traffic degrades, never errors.
  bool send_packet(SpineLinkId id, std::uint32_t from_rack, phy::DataSize size,
                   SpineScheduleHandle schedule, PacketCallback cb);

  /// Bulk store-and-forward transfer: the whole payload occupies the
  /// direction for its serialization time. Comparison baseline for
  /// the packetized path (FleetConfig::transport selects). `cb` fires
  /// at arrival. Returns false (no callback) when the link is down.
  bool transfer(SpineLinkId id, std::uint32_t from_rack, phy::DataSize size,
                DeliveryCallback cb);

  /// Cumulative time direction (`id`, leaving `from_rack`) has spent
  /// serializing — the spine utilisation input the FleetController
  /// diffs between epochs.
  [[nodiscard]] rsf::sim::SimTime busy_time(SpineLinkId id, std::uint32_t from_rack) const;
  /// How far ahead of now the direction's FIFO is booked — the queue
  /// depth (in time) the FleetController prices against.
  [[nodiscard]] rsf::sim::SimTime queue_backlog(SpineLinkId id,
                                                std::uint32_t from_rack) const;
  /// Packets sent on direction (`id`, leaving `from_rack`).
  [[nodiscard]] std::uint64_t link_packets(SpineLinkId id, std::uint32_t from_rack) const;
  /// Packets lost on direction (`id`, leaving `from_rack`).
  [[nodiscard]] std::uint64_t link_drops(SpineLinkId id, std::uint32_t from_rack) const;

  [[nodiscard]] const telemetry::CounterSet& counters() const { return counters_; }

 private:
  struct Direction {
    rsf::sim::SimTime busy_until = rsf::sim::SimTime::zero();
    rsf::sim::SimTime busy_total = rsf::sim::SimTime::zero();
    std::uint64_t packets = 0;
    std::uint64_t drops = 0;
    /// Capacity carved out by reservations crossing this direction.
    /// The shared FIFO serializes at rate × (1 − reserved_fraction −
    /// slotted_fraction); 0 keeps the arithmetic identical to the
    /// unreserved spine.
    double reserved_fraction = 0.0;
    /// Capacity owned by slot schedules crossing this direction (the
    /// sum of their duty/period shares). Same residual arithmetic as
    /// reserved_fraction; 0 while slot schedules are unused.
    double slotted_fraction = 0.0;
  };
  struct Reservation {
    std::uint32_t src_rack = 0;
    std::uint32_t dst_rack = 0;
    double fraction = 0.0;
    /// Pinned route and, per hop, the direction index on that link
    /// and the private FIFO's booking horizon. Liveness and the
    /// stale-handle generation live in the SlotPool.
    std::vector<SpineLinkId> route;
    std::vector<int> hop_dir;
    std::vector<rsf::sim::SimTime> hop_busy_until;
  };
  /// A shared-risk group's membership and its own up/down state. The
  /// group state tracks set_group_up calls only — individual
  /// set_link_up calls on members do not move it (the group models the
  /// shared conduit, not the union of its cables' states).
  struct SharedRiskGroup {
    std::vector<SpineLinkId> links;
    bool up = true;
    /// Members this group's cut actually transitioned down (links an
    /// overlapping group or a direct set_link_up had already failed
    /// are not claimed). Repair restores exactly this set; a repair
    /// whose cut took nothing down is a pure no-op (counted as
    /// "spine.srlg_noop_repairs") instead of a phantom version bump
    /// that would resurrect links another group still holds down.
    std::vector<SpineLinkId> took_down;
  };
  struct SpineLink {
    SpineLinkParams params;
    bool up = true;
    double cost = 1.0;
    /// Cached registry slot for "spine.link<N>.packets" so the
    /// per-packet hot path never builds strings or walks the map.
    std::uint64_t* packets_slot = nullptr;
    Direction dir[2];  // [0]: a->b, [1]: b->a
  };

  [[nodiscard]] const SpineLink& at(SpineLinkId id) const;
  /// 0 when leaving params.a.rack, 1 when leaving params.b.rack.
  [[nodiscard]] int direction_index(const SpineLink& l, std::uint32_t from_rack) const;
  /// Book one serialization on the FIFO behind `busy_until` at `rate`;
  /// returns the arrival time and maintains the shared byte/latency
  /// instruments.
  rsf::sim::SimTime occupy_fifo(rsf::sim::SimTime& busy_until, phy::DataRate rate,
                                rsf::sim::SimTime latency, phy::DataSize size);
  /// Book one serialization on the shared residual FIFO of (l, d).
  rsf::sim::SimTime occupy(SpineLink& l, int d, phy::DataSize size);
  /// The shared send_packet tail: per-direction and per-link packet
  /// counters, the loss draw, and the completion event. The ordering
  /// (counters, then the RNG draw, then the scheduled callback) is
  /// part of the determinism contract — every overload shares it.
  bool finish_packet(SpineLink& ml, int d, rsf::sim::SimTime arrival, PacketCallback cb);
  [[nodiscard]] const Reservation* live_reservation(SpineReservationHandle h) const {
    // SpineReservationHandle::kInvalidId is SlotPool's invalid index,
    // so stale, foreign and never-valid handles all fail is_live.
    return reservations_.get_live(h.id, h.generation);
  }
  /// Tear one reservation down and return its carve (shared by
  /// release() and failure-driven preemption).
  void teardown_reservation(std::uint32_t idx);

  /// One pair's periodic slot schedule: a SlotCalendar booking plus
  /// the pinned route, the per-hop slotted FIFO horizon, and the
  /// inactivity lease. Liveness and the stale-handle generation live
  /// in the SlotPool.
  struct SlotSchedule {
    std::uint32_t src_rack = 0;
    std::uint32_t dst_rack = 0;
    /// duty / period — the capacity share subtracted from every
    /// crossed direction's shared residual while the schedule lives.
    double fraction = 0.0;
    SlotCalendar::Handle booking;
    SlotMask mask = 0;
    std::vector<SpineLinkId> route;
    std::vector<int> hop_dir;
    /// Per-hop booking horizon of the schedule's private slotted
    /// FIFO (successive packets of the pair queue behind each other
    /// inside their own slots, never against third parties).
    std::vector<rsf::sim::SimTime> hop_busy_until;
    /// Inactivity lease: bumped by every slotted send; the weak
    /// expiry event tears the schedule down when it goes stale.
    rsf::sim::SimTime last_activity = rsf::sim::SimTime::zero();
    rsf::sim::SimTime timeout = rsf::sim::SimTime::zero();
  };

  [[nodiscard]] const SlotSchedule* live_schedule(SpineScheduleHandle h) const {
    return schedules_.get_live(h.id, h.generation);
  }
  /// Tear one schedule down and return its slots + residual share
  /// (shared by release_slots(), expiry, and failure preemption).
  void teardown_schedule(std::uint32_t idx);
  /// Arm (or re-arm) the schedule's weak inactivity-expiry event.
  void arm_schedule_expiry(std::uint32_t idx, std::uint32_t generation);
  /// The earliest instant >= `from` inside a slot `mask` owns.
  [[nodiscard]] rsf::sim::SimTime next_owned_time(rsf::sim::SimTime from,
                                                  SlotMask mask) const;
  /// The calendar line of (`link`, direction d).
  [[nodiscard]] static SlotCalendar::LineId line_of(SpineLinkId link, int d) {
    return (static_cast<SlotCalendar::LineId>(link) << 1) | static_cast<unsigned>(d);
  }
  [[nodiscard]] static std::uint64_t pair_key(std::uint32_t src, std::uint32_t dst) {
    return (static_cast<std::uint64_t>(src) << 32) | dst;
  }

  rsf::sim::Simulator* sim_;
  std::vector<SpineLink> links_;
  std::vector<SharedRiskGroup> srlgs_;
  std::uint32_t max_rack_ = 0;
  std::uint64_t version_ = 1;
  rsf::sim::RandomStream rng_;
  // Route memoization: cleared lazily when version_ moves past the
  // stamp, so set_link_up / repricing cost one O(1) bump, not a walk.
  mutable std::uint64_t cache_version_ = 0;
  mutable std::map<std::uint64_t, std::optional<std::vector<SpineLinkId>>> route_cache_;
  // Reservation table: a SlotPool whose per-slot generation makes
  // recycled SpineReservationHandles detectably stale.
  core::SlotPool<Reservation> reservations_;
  std::map<std::uint64_t, std::uint32_t> reservation_by_pair_;
  std::uint64_t reservation_version_ = 0;
  // Slot-schedule table: same SlotPool staleness contract as the
  // reservation table; a pair may hold several schedules (multi-path).
  core::SlotPool<SlotSchedule> schedules_;
  std::map<std::uint64_t, std::vector<std::uint32_t>> schedules_by_pair_;
  std::uint64_t schedule_version_ = 0;
  SlotCalendar calendar_;
  rsf::sim::SimTime slot_duration_ = rsf::sim::SimTime::microseconds(1);
  rsf::sim::SimTime slot_timeout_ = rsf::sim::SimTime::microseconds(150);
  std::map<std::uint64_t, std::uint64_t> pair_demand_;
  telemetry::CounterSet& counters_;
  // Hot-path counter slots (stable references into counters_).
  std::uint64_t& packets_slot_;
  std::uint64_t& bytes_slot_;
  std::uint64_t& drops_slot_;
  std::uint64_t& reserved_bytes_slot_;
  std::uint64_t& slotted_bytes_slot_;
  telemetry::Histogram& transfer_latency_;
  telemetry::Histogram& queue_delay_;
};

}  // namespace rsf::fabric
