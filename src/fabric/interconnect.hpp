// rsf::fabric — the inter-rack spine.
//
// An Interconnect models the links *between* racks of a fleet: spine
// cables with a configurable rate and propagation latency, each
// connecting a designated gateway node in one rack to a gateway node
// in another. The spine is packet-switched: the fleet transport streams
// individual packets through send_packet() (per-packet FIFO busy-until
// serialization, propagation latency, and Bernoulli loss sampled from
// the link's loss_prob).
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
// Circuit-style capacity is booked on top of the packetized spine.
// book(src, dst, discipline) pins a route for a (rack, rack) pair and
// takes a share of every crossed link-direction (direction of travel
// only) under one of two disciplines:
//   - Carve{fraction}: packets sent under the booking's handle
//     serialize on a private per-hop FIFO at rate × fraction, clear of
//     the shared FIFO's contention.
//   - Slots{period, duty}: the pair owns `duty` offsets of every
//     `period` calendar slots; its packets wait for the next owned slot
//     and ride it at the full link rate, collision-free by the
//     SlotCalendar's admission rule.
// Every booking subtracts its share from the crossed directions'
// shared residual (rate × (1 − booked fraction)). Bookings survive
// repricing (the route is pinned) but are torn down when any crossed
// link fails, and slot bookings also expire after an inactivity
// lease; holders' traffic then falls back to the shared residual via
// the stale-handle check. With nothing booked the shared path is
// arithmetically identical to the pre-booking spine.
//
// Metrics land in the owning registry under "spine.*", including
// per-link packet counters ("spine.link3.packets") the fleet
// controller tests assert traffic shifts against.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <variant>
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

/// Versioned handle to a spine booking. Slots are recycled; the
/// generation detects a handle that outlived its booking (released,
/// expired, or preempted by a link failure) — stale handles are safely
/// inert everywhere they are accepted.
struct SpineBookingHandle {
  static constexpr std::uint32_t kInvalidId = 0xFFFFFFFFu;
  std::uint32_t id = kInvalidId;
  std::uint32_t generation = 0;

  [[nodiscard]] bool valid() const { return id != kInvalidId; }
  friend bool operator==(const SpineBookingHandle&, const SpineBookingHandle&) = default;
};

/// Dedicate `fraction` (0 < fraction < 1) of each crossed direction to
/// the pair through a private FIFO. One carve per pair.
struct Carve {
  double fraction = 0.0;
};

/// Own `duty` of every `period` calendar slots (period divides
/// SlotCalendar::kFrameSlots, 1 <= duty <= period) on each crossed
/// direction. A pair may hold several (the multi-path split).
struct Slots {
  int period = 0;
  int duty = 0;
};

using BookingDiscipline = std::variant<Carve, Slots>;

/// A live booking as Interconnect::booking() reports it.
struct SpineBooking {
  std::uint32_t src_rack = 0;
  std::uint32_t dst_rack = 0;
  /// The capacity share subtracted from every crossed direction's
  /// shared residual: a carve's fraction, or duty / period.
  double fraction = 0.0;
  /// Owned calendar offsets; 0 for a carve.
  SlotMask mask = 0;
  /// The pinned route, in crossing order.
  std::vector<SpineLinkId> route;

  [[nodiscard]] bool carve() const { return mask == 0; }
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
  /// cb(delivered): the packet's last bit reaches the far gateway, at
  /// now() (delivered == false when the hop lost it — the sender owns
  /// retransmission). SmallFunction (not std::function) keeps the
  /// scheduled completion trivially copyable and 32 bytes, so it rides
  /// the Simulator's inline event arm — per-packet spine sends never
  /// allocate.
  using PacketCallback = core::SmallFunction<void(bool delivered)>;

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
  /// would. Links in `avoid` are skipped as if administratively down
  /// (the multi-path slot split finds its link-disjoint second route
  /// this way).
  [[nodiscard]] std::optional<std::vector<SpineLinkId>> compute_route(
      std::uint32_t src_rack, std::uint32_t dst_rack,
      const std::vector<SpineLinkId>& avoid = {}) const;

  // --- bookings (carves and slot schedules) ---

  /// Book capacity for (src_rack, dst_rack) on the cheapest current
  /// route, or the cheapest avoiding `avoid`'s links when given (the
  /// multi-path split); the route is pinned for the booking's
  /// lifetime. Malformed disciplines (a fraction outside (0, 1), a
  /// slot shape the calendar rejects) throw. Refusals return nullopt
  /// and leave no partial state: src == dst, no route, a second carve
  /// for the pair, a crossed direction without headroom (the booked
  /// fraction per direction must stay below 1), or — for slots — any
  /// third-party calendar overlap on any crossed direction. Carves
  /// count headroom refusals in "spine.reservations_refused"; slots
  /// count every refusal except src == dst in "spine.slot_refusals".
  /// A slot booking expires on its own after slot_timeout() without a
  /// send. Bumps booking_version(). `avoid` is read before any
  /// mutation, so it may alias a live booking's route.
  std::optional<SpineBookingHandle> book(std::uint32_t src_rack, std::uint32_t dst_rack,
                                         BookingDiscipline discipline,
                                         const std::vector<SpineLinkId>& avoid = {});

  /// Tear the booking down and return its capacity (and slots) to the
  /// shared residual. Stale handles are a no-op (release is idempotent
  /// and races with expiry and failure-driven preemption are benign).
  void release(SpineBookingHandle handle);

  /// True while `handle` names a live booking (same generation).
  [[nodiscard]] bool booking_active(SpineBookingHandle handle) const;

  /// Every live booking of (src_rack, dst_rack), booking order.
  [[nodiscard]] std::vector<SpineBookingHandle> find_bookings(std::uint32_t src_rack,
                                                              std::uint32_t dst_rack) const;

  /// A live booking's pair, route, share and slot mask. Throws on
  /// stale handles — check booking_active first. The reference lives
  /// until the next book().
  [[nodiscard]] const SpineBooking& booking(SpineBookingHandle handle) const;

  /// Live bookings right now.
  [[nodiscard]] std::size_t booking_count() const {
    return bookings_.size() - bookings_.free_count();
  }

  /// Monotonic version of the booking table: bumped by book(),
  /// release(), expiry and failure-driven preemption. Transports poll
  /// it to adopt or drop a pair's bookings without a per-packet
  /// lookup. Stays 0 while bookings are never used.
  [[nodiscard]] std::uint64_t booking_version() const { return booking_version_; }

  /// Monotonic count of carve changes (book, release, preemption).
  /// A carve pins its pair's flow route, so the fleet transport
  /// re-resolves every flow's route when this moves.
  [[nodiscard]] std::uint64_t carve_version() const { return carve_version_; }

  /// Fraction of direction (`id`, leaving `from_rack`) currently taken
  /// by bookings of either discipline.
  [[nodiscard]] double booked_fraction(SpineLinkId id, std::uint32_t from_rack) const;

  /// The rate shared (unbooked) traffic actually sees on direction
  /// (`id`, leaving `from_rack`): rate × (1 − booked_fraction). This
  /// is what the FleetController prices against; with nothing booked
  /// it is exactly the nameplate rate.
  [[nodiscard]] phy::DataRate residual_rate(SpineLinkId id, std::uint32_t from_rack) const;

  /// Wall-clock length d of one calendar slot; slot s of the repeating
  /// frame covers [s·d, (s+1)·d) modulo kFrameSlots·d.
  static constexpr rsf::sim::SimTime kSlotDuration = rsf::sim::SimTime::microseconds(1);

  /// Inactivity window after which a slot booking self-expires: a pair
  /// that stopped sending returns its slots without controller help
  /// (each slotted send renews the lease). Applies to bookings made
  /// after the call.
  void set_slot_timeout(rsf::sim::SimTime timeout);
  [[nodiscard]] rsf::sim::SimTime slot_timeout() const { return slot_timeout_; }

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

  // --- packet transport ---

  /// Occupy `id` in the direction leaving `from_rack` for one packet
  /// of `size` bytes: FIFO serialization at the link rate, then
  /// propagation; loss sampled from the link's loss_prob. `cb` fires
  /// at arrival either way. Returns false (no callback) when the link
  /// is down.
  ///
  /// When `booking` is live and its pinned route crosses `id` leaving
  /// `from_rack`, the packet rides it: a carve serializes on its
  /// private per-hop FIFO at rate × fraction; slots wait for the
  /// pair's next owned slot on that hop, serialize at the full rate
  /// inside it and renew the lease. A stale, foreign or absent handle
  /// falls back to the shared residual — preempted or expired traffic
  /// degrades, never errors.
  bool send_packet(SpineLinkId id, std::uint32_t from_rack, phy::DataSize size,
                   SpineBookingHandle booking, PacketCallback cb);
  bool send_packet(SpineLinkId id, std::uint32_t from_rack, phy::DataSize size,
                   PacketCallback cb) {
    return send_packet(id, from_rack, size, SpineBookingHandle{}, std::move(cb));
  }

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
    /// Capacity taken by bookings crossing this direction. The shared
    /// FIFO serializes at rate × (1 − booked_fraction); 0 keeps the
    /// arithmetic identical to the unbooked spine.
    double booked_fraction = 0.0;
  };
  /// A booking plus its per-hop state: the direction index on each
  /// pinned link, the private FIFO's horizon per hop (successive
  /// packets of the pair queue behind each other, never against third
  /// parties), and — for slots — the calendar claim and the inactivity
  /// lease. Liveness and the stale-handle generation live in the
  /// SlotPool.
  struct Booking : SpineBooking {
    std::vector<int> hop_dir;
    std::vector<rsf::sim::SimTime> hop_busy_until;
    SlotCalendar::Handle claim;
    rsf::sim::SimTime last_activity = rsf::sim::SimTime::zero();
    rsf::sim::SimTime timeout = rsf::sim::SimTime::zero();
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
  [[nodiscard]] const Booking* live_booking(SpineBookingHandle h) const {
    // SpineBookingHandle::kInvalidId is SlotPool's invalid index, so
    // stale, foreign and never-valid handles all fail is_live.
    return bookings_.get_live(h.id, h.generation);
  }
  /// Why a booking ends; picks the per-discipline counter.
  enum class Teardown { kRelease, kPreempt, kExpire };
  /// The one teardown path: return the booking's share (and slots),
  /// drop it from its pair, recycle the slot and bump the versions.
  void teardown_booking(std::uint32_t idx, Teardown why);
  /// Arm (or re-arm) a slot booking's weak inactivity-expiry event.
  void arm_expiry(std::uint32_t idx, std::uint32_t generation);
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
  // Booking table: a SlotPool whose per-slot generation makes
  // recycled SpineBookingHandles detectably stale; a pair may hold
  // one carve and several slot bookings.
  core::SlotPool<Booking> bookings_;
  std::map<std::uint64_t, std::vector<std::uint32_t>> bookings_by_pair_;
  std::uint64_t booking_version_ = 0;
  std::uint64_t carve_version_ = 0;
  SlotCalendar calendar_;
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
