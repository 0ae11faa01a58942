#include "fabric/interconnect.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <queue>
#include <stdexcept>
#include <utility>

namespace rsf::fabric {

using rsf::sim::SimTime;

namespace {
/// Validated before the member initializers dereference it.
telemetry::Registry& checked(telemetry::Registry* registry) {
  if (registry == nullptr) throw std::invalid_argument("Interconnect: null registry");
  return *registry;
}

constexpr SpineLinkId kNone = static_cast<SpineLinkId>(-1);
}  // namespace

Interconnect::Interconnect(rsf::sim::Simulator* sim, telemetry::Registry* registry,
                           std::uint64_t seed)
    : sim_(sim),
      rng_(seed, "spine"),
      counters_(checked(registry).counters("spine")),
      packets_slot_(counters_.slot("spine.packets")),
      bytes_slot_(counters_.slot("spine.bytes")),
      drops_slot_(counters_.slot("spine.packet_drops")),
      reserved_bytes_slot_(counters_.slot("spine.reserved_bytes")),
      slotted_bytes_slot_(counters_.slot("spine.slotted_bytes")),
      transfer_latency_(registry->histogram("spine.transfer_latency")),
      queue_delay_(registry->histogram("spine.queue_delay")) {
  if (sim_ == nullptr) {
    throw std::invalid_argument("Interconnect: null simulator");
  }
}

SpineLinkId Interconnect::add_link(SpineLinkParams params) {
  if (params.a.rack == params.b.rack) {
    throw std::invalid_argument("Interconnect: spine link must join two racks");
  }
  // Negated comparisons so NaN fails every check: a bad link must be
  // refused here, not surface later as a scheduling error mid-run.
  if (!(params.rate.gbps_value() > 0) || !std::isfinite(params.rate.gbps_value())) {
    throw std::invalid_argument("Interconnect: non-positive or non-finite spine rate");
  }
  if (params.latency < SimTime::zero()) {
    throw std::invalid_argument("Interconnect: negative spine latency");
  }
  if (!(params.cost > 0) || !std::isfinite(params.cost)) {
    throw std::invalid_argument("Interconnect: non-positive or non-finite spine cost");
  }
  // The closed interval: loss_prob == 1 is a blackhole link — a
  // legitimate chaos configuration (the retransmit path above it is
  // bounded by kMaxRetries), not a misconfiguration.
  if (!(params.loss_prob >= 0 && params.loss_prob <= 1)) {
    throw std::invalid_argument("Interconnect: loss_prob outside [0, 1]");
  }
  const auto id = static_cast<SpineLinkId>(links_.size());
  max_rack_ = std::max({max_rack_, params.a.rack, params.b.rack});
  SpineLink l;
  l.params = params;
  l.cost = params.cost;
  l.packets_slot = &counters_.slot("spine.link" + std::to_string(id) + ".packets");
  links_.push_back(std::move(l));
  ++version_;
  counters_.add("spine.links_added");
  return id;
}

const Interconnect::SpineLink& Interconnect::at(SpineLinkId id) const {
  if (id >= links_.size()) throw std::invalid_argument("Interconnect: unknown spine link");
  return links_[id];
}

const SpineLinkParams& Interconnect::link(SpineLinkId id) const { return at(id).params; }

void Interconnect::set_link_up(SpineLinkId id, bool up) {
  static_cast<void>(at(id));  // validate
  // Idempotent: overlapping shared-risk groups legitimately fail the
  // same link twice. A repeated set must not double-count the
  // links_failed/restored transition, invalidate routes, or re-walk
  // the (already emptied) preemption scan.
  if (links_[id].up == up) return;
  links_[id].up = up;
  ++version_;
  counters_.add(up ? "spine.links_restored" : "spine.links_failed");
  if (!up) {
    // A failed link preempts every booking pinned across it: the share
    // (and any slots) returns to the residual and holders' handles go
    // stale, so their traffic falls back to the shared FIFO of
    // whatever route the transport re-plans.
    for (std::uint32_t idx = 0; idx < bookings_.size(); ++idx) {
      if (!bookings_.live(idx)) continue;
      const std::vector<SpineLinkId>& route = bookings_[idx].route;
      if (std::find(route.begin(), route.end(), id) == route.end()) continue;
      teardown_booking(idx, Teardown::kPreempt);
    }
  }
}

bool Interconnect::link_up(SpineLinkId id) const { return at(id).up; }

Interconnect::SrlgId Interconnect::add_shared_risk_group(std::vector<SpineLinkId> links) {
  if (links.empty()) {
    throw std::invalid_argument("Interconnect: empty shared-risk group");
  }
  for (const SpineLinkId id : links) static_cast<void>(at(id));  // validate
  const auto gid = static_cast<SrlgId>(srlgs_.size());
  srlgs_.push_back(SharedRiskGroup{std::move(links), true, {}});
  return gid;
}

void Interconnect::set_group_up(SrlgId group, bool up) {
  if (group >= srlgs_.size()) {
    throw std::invalid_argument("Interconnect: unknown shared-risk group");
  }
  SharedRiskGroup& g = srlgs_[group];
  if (g.up == up) return;  // idempotent at group granularity
  g.up = up;
  if (!up) {
    // Record which members this cut actually transitioned: links an
    // overlapping group (or a direct set_link_up) already failed are
    // not this group's to restore.
    g.took_down.clear();
    for (const SpineLinkId id : g.links) {
      if (!links_[id].up) continue;
      set_link_up(id, false);
      g.took_down.push_back(id);
    }
    counters_.add("spine.srlg_cuts");
    return;
  }
  // Repair restores exactly the members the cut took down. A cut that
  // took nothing down (every member was already failed by an
  // overlapping group) repairs as a pure no-op — no link transition,
  // no version bump, no route-cache flush — instead of resurrecting
  // links a still-cut group holds; the counter keeps the phantom
  // visible to chaos timelines that emit one.
  if (g.took_down.empty()) {
    counters_.add("spine.srlg_noop_repairs");
    return;
  }
  counters_.add("spine.srlg_repairs");
  for (const SpineLinkId id : g.took_down) set_link_up(id, true);
  g.took_down.clear();
}

bool Interconnect::group_up(SrlgId group) const {
  if (group >= srlgs_.size()) {
    throw std::invalid_argument("Interconnect: unknown shared-risk group");
  }
  return srlgs_[group].up;
}

const std::vector<SpineLinkId>& Interconnect::shared_risk_group(SrlgId group) const {
  if (group >= srlgs_.size()) {
    throw std::invalid_argument("Interconnect: unknown shared-risk group");
  }
  return srlgs_[group].links;
}

std::vector<SpineLinkId> Interconnect::rack_attachments(std::uint32_t rack) const {
  std::vector<SpineLinkId> out;
  for (SpineLinkId id = 0; id < links_.size(); ++id) {
    const SpineLinkParams& p = links_[id].params;
    if (p.a.rack == rack || p.b.rack == rack) out.push_back(id);
  }
  return out;
}

void Interconnect::set_link_cost(SpineLinkId id, double cost) {
  static_cast<void>(at(id));  // validate
  if (!(cost > 0) || !std::isfinite(cost)) {
    throw std::invalid_argument("Interconnect: non-positive or non-finite spine cost");
  }
  if (links_[id].cost == cost) return;
  links_[id].cost = cost;
  ++version_;
  counters_.add("spine.reprices");
}

double Interconnect::link_cost(SpineLinkId id) const { return at(id).cost; }

int Interconnect::direction_index(const SpineLink& l, std::uint32_t from_rack) const {
  if (from_rack == l.params.a.rack) return 0;
  if (from_rack == l.params.b.rack) return 1;
  throw std::invalid_argument("Interconnect: rack is not an endpoint of the spine link");
}

const RackNode& Interconnect::far_end(SpineLinkId id, std::uint32_t from_rack) const {
  const SpineLink& l = at(id);
  return direction_index(l, from_rack) == 0 ? l.params.b : l.params.a;
}

std::optional<std::vector<SpineLinkId>> Interconnect::route(std::uint32_t src_rack,
                                                            std::uint32_t dst_rack) const {
  if (cache_version_ != version_) {
    route_cache_.clear();
    cache_version_ = version_;
  }
  const std::uint64_t key = (static_cast<std::uint64_t>(src_rack) << 32) | dst_rack;
  if (auto it = route_cache_.find(key); it != route_cache_.end()) {
    counters_.add("spine.route_cache_hits");
    return it->second;
  }
  counters_.add("spine.route_cache_misses");
  auto r = compute_route(src_rack, dst_rack);
  route_cache_.emplace(key, r);
  return r;
}

std::optional<std::vector<SpineLinkId>> Interconnect::compute_route(
    std::uint32_t src_rack, std::uint32_t dst_rack,
    const std::vector<SpineLinkId>& avoid) const {
  if (src_rack == dst_rack) return std::vector<SpineLinkId>{};
  // Racks are few (a fleet is N racks, not N nodes): a fresh search
  // per miss is cheaper than keeping an adjacency index coherent, and
  // route() memoizes the result anyway.
  const std::size_t racks = static_cast<std::size_t>(max_rack_) + 1;
  if (src_rack >= racks || dst_rack >= racks) return std::nullopt;
  constexpr double kInf = std::numeric_limits<double>::infinity();
  std::vector<double> cost(racks, kInf);
  std::vector<int> hops(racks, std::numeric_limits<int>::max());
  std::vector<SpineLinkId> via(racks, kNone);
  // (cost, hops, rack) min-heap: ties resolve toward fewer hops, then
  // toward the expansion from the lowest-id rack (pop order), and
  // relaxation scans link ids ascending, so among equal candidates
  // out of one rack the lowest-id edge wins. Deterministic — every
  // run picks the same route for the same graph and costs.
  struct Item {
    double cost;
    int hops;
    std::uint32_t rack;
  };
  const auto later = [](const Item& a, const Item& b) {
    if (a.cost != b.cost) return a.cost > b.cost;
    if (a.hops != b.hops) return a.hops > b.hops;
    return a.rack > b.rack;
  };
  std::priority_queue<Item, std::vector<Item>, decltype(later)> frontier(later);
  cost[src_rack] = 0;
  hops[src_rack] = 0;
  frontier.push({0.0, 0, src_rack});
  while (!frontier.empty()) {
    const auto [c, h, rack] = frontier.top();
    frontier.pop();
    if (c > cost[rack] || (c == cost[rack] && h > hops[rack])) continue;  // stale
    if (rack == dst_rack) break;
    for (SpineLinkId id = 0; id < links_.size(); ++id) {
      const SpineLink& l = links_[id];
      if (!l.up) continue;
      if (std::find(avoid.begin(), avoid.end(), id) != avoid.end()) continue;
      std::uint32_t next;
      if (l.params.a.rack == rack) {
        next = l.params.b.rack;
      } else if (l.params.b.rack == rack) {
        next = l.params.a.rack;
      } else {
        continue;
      }
      const double nc = c + l.cost;
      const int nh = h + 1;
      if (nc < cost[next] || (nc == cost[next] && nh < hops[next])) {
        cost[next] = nc;
        hops[next] = nh;
        via[next] = id;
        frontier.push({nc, nh, next});
      }
    }
  }
  if (via[dst_rack] == kNone) return std::nullopt;
  std::vector<SpineLinkId> path;
  for (std::uint32_t rack = dst_rack; rack != src_rack;) {
    const SpineLinkId id = via[rack];
    path.push_back(id);
    const SpineLink& l = links_[id];
    rack = l.params.a.rack == rack ? l.params.b.rack : l.params.a.rack;
  }
  std::reverse(path.begin(), path.end());
  return path;
}

// ---------------------------------------------------------------------------
// Bookings: carves and slot schedules.
// ---------------------------------------------------------------------------

std::optional<SpineBookingHandle> Interconnect::book(std::uint32_t src_rack,
                                                     std::uint32_t dst_rack,
                                                     BookingDiscipline discipline,
                                                     const std::vector<SpineLinkId>& avoid) {
  const Slots* slots = std::get_if<Slots>(&discipline);
  // Malformed disciplines are caller bugs and throw; everything below
  // is a legitimate runtime refusal and returns nullopt.
  double fraction = 0.0;
  if (slots == nullptr) {
    fraction = std::get<Carve>(discipline).fraction;
    if (!(fraction > 0 && fraction < 1)) {  // NaN fails too
      throw std::invalid_argument("Interconnect: reservation fraction outside (0, 1)");
    }
  } else {
    SlotCalendar::validate_shape(slots->period, slots->duty);
    fraction = static_cast<double>(slots->duty) / static_cast<double>(slots->period);
  }
  // Refusal counters stay per discipline: carves count headroom misses
  // only, slots count every refusal past the self-pair check.
  const auto refuse = [&](bool headroom) -> std::optional<SpineBookingHandle> {
    if (slots != nullptr) {
      counters_.add("spine.slot_refusals");
    } else if (headroom) {
      counters_.add("spine.reservations_refused");
    }
    return std::nullopt;
  };
  if (src_rack == dst_rack) return std::nullopt;
  const std::uint64_t key = pair_key(src_rack, dst_rack);
  if (slots == nullptr) {
    if (const auto it = bookings_by_pair_.find(key); it != bookings_by_pair_.end()) {
      for (const std::uint32_t idx : it->second) {
        if (bookings_[idx].carve()) return std::nullopt;  // one carve per pair
      }
    }
  }
  auto route_opt = compute_route(src_rack, dst_rack, avoid);
  if (!route_opt || route_opt->empty()) return refuse(false);
  const std::vector<SpineLinkId>& route = *route_opt;
  // Admission, phase 1 — headroom: every crossed direction must keep a
  // positive shared residual after the booking's share leaves it (a
  // slot booking with duty == period therefore always refuses).
  // Checked before any mutation, so a refusal leaves nothing behind.
  std::vector<int> hop_dir(route.size());
  std::vector<SlotCalendar::LineId> lines(route.size());
  std::uint32_t rack = src_rack;
  for (std::size_t h = 0; h < route.size(); ++h) {
    const SpineLink& l = at(route[h]);
    const int d = direction_index(l, rack);
    if (l.dir[d].booked_fraction + fraction >= 1.0) return refuse(true);
    hop_dir[h] = d;
    lines[h] = line_of(route[h], d);
    rack = far_end(route[h], rack).rack;
  }
  // Admission, phase 2 (slots) — contention: the calendar must find
  // `duty` offsets free on every crossed line simultaneously. A
  // refusal here (third-party overlap) also leaves no partial state.
  SlotMask mask = 0;
  SlotCalendar::Handle claim;
  if (slots != nullptr) {
    mask = calendar_.propose(lines, slots->period, slots->duty);
    if (mask == 0) return refuse(false);
    // Unreachable after a successful propose() (same lines and mask).
    claim = calendar_.book(std::move(lines), mask);
    if (!claim.valid()) return refuse(false);
  }
  for (std::size_t h = 0; h < route.size(); ++h) {
    links_[route[h]].dir[hop_dir[h]].booked_fraction += fraction;
  }
  const auto slot = bookings_.claim();
  Booking& b = bookings_[slot.index];
  b.src_rack = src_rack;
  b.dst_rack = dst_rack;
  b.fraction = fraction;
  b.mask = mask;
  b.route = route;
  b.hop_dir = std::move(hop_dir);
  b.hop_busy_until.assign(route.size(), SimTime::zero());
  b.claim = claim;
  b.last_activity = sim_->now();
  b.timeout = slot_timeout_;
  bookings_by_pair_[key].push_back(slot.index);
  ++booking_version_;
  if (slots == nullptr) {
    ++carve_version_;
    counters_.add("spine.reservations");
  } else {
    counters_.add("spine.slot_reservations");
    arm_expiry(slot.index, slot.generation);
  }
  return SpineBookingHandle{slot.index, slot.generation};
}

void Interconnect::teardown_booking(std::uint32_t idx, Teardown why) {
  const Booking& b = bookings_[idx];
  const bool carve = b.carve();
  if (!carve) calendar_.release(b.claim);
  for (std::size_t h = 0; h < b.route.size(); ++h) {
    double& booked = links_[b.route[h]].dir[b.hop_dir[h]].booked_fraction;
    booked -= b.fraction;
    // Float hygiene: a direction whose last booking left must
    // serialize at exactly the full link rate again.
    if (booked < 1e-12) booked = 0.0;
  }
  const auto it = bookings_by_pair_.find(pair_key(b.src_rack, b.dst_rack));
  std::vector<std::uint32_t>& pair = it->second;
  pair.erase(std::find(pair.begin(), pair.end(), idx));
  if (pair.empty()) bookings_by_pair_.erase(it);
  // The recycle bumps the slot generation, stale-ifying every
  // outstanding handle (and disarming a pending expiry event).
  bookings_.recycle(idx);
  ++booking_version_;
  if (carve) ++carve_version_;
  // Counter names stay per discipline; only slot bookings expire.
  static constexpr const char* kCounter[2][3] = {
      {"spine.reservation_releases", "spine.reservation_preemptions", nullptr},
      {"spine.slot_releases", "spine.slot_preemptions", "spine.slot_expirations"}};
  counters_.add(kCounter[carve ? 0 : 1][static_cast<int>(why)]);
}

void Interconnect::release(SpineBookingHandle handle) {
  if (live_booking(handle) == nullptr) return;  // stale: idempotent no-op
  teardown_booking(handle.id, Teardown::kRelease);
}

bool Interconnect::booking_active(SpineBookingHandle handle) const {
  return live_booking(handle) != nullptr;
}

std::vector<SpineBookingHandle> Interconnect::find_bookings(std::uint32_t src_rack,
                                                            std::uint32_t dst_rack) const {
  std::vector<SpineBookingHandle> out;
  const auto it = bookings_by_pair_.find(pair_key(src_rack, dst_rack));
  if (it == bookings_by_pair_.end()) return out;
  out.reserve(it->second.size());
  for (const std::uint32_t idx : it->second) {
    out.push_back(SpineBookingHandle{idx, bookings_.generation(idx)});
  }
  return out;
}

const SpineBooking& Interconnect::booking(SpineBookingHandle handle) const {
  const Booking* b = live_booking(handle);
  if (b == nullptr) throw std::invalid_argument("Interconnect: stale booking handle");
  return *b;
}

double Interconnect::booked_fraction(SpineLinkId id, std::uint32_t from_rack) const {
  const SpineLink& l = at(id);
  return l.dir[direction_index(l, from_rack)].booked_fraction;
}

phy::DataRate Interconnect::residual_rate(SpineLinkId id, std::uint32_t from_rack) const {
  const SpineLink& l = at(id);
  // Same expression occupy() serializes shared traffic at: × (1 − 0.0)
  // is exact, so an unbooked direction advertises the nameplate rate.
  return l.params.rate * (1.0 - l.dir[direction_index(l, from_rack)].booked_fraction);
}

void Interconnect::set_slot_timeout(SimTime timeout) {
  if (timeout <= SimTime::zero()) {
    throw std::invalid_argument("Interconnect: non-positive slot timeout");
  }
  slot_timeout_ = timeout;
}

SimTime Interconnect::next_owned_time(SimTime from, SlotMask mask) const {
  const std::int64_t d = kSlotDuration.ps();
  const std::int64_t slot = from.ps() / d;
  if ((mask >> (slot % SlotCalendar::kFrameSlots)) & 1) return from;
  // Scan forward to the next owned slot boundary; the mask is non-zero
  // (booked schedules own at least one offset), so k < kFrameSlots.
  for (int k = 1; k < SlotCalendar::kFrameSlots; ++k) {
    if ((mask >> ((slot + k) % SlotCalendar::kFrameSlots)) & 1) {
      return SimTime::picoseconds((slot + k) * d);
    }
  }
  return from;  // unreachable for a live schedule's mask
}

void Interconnect::arm_expiry(std::uint32_t idx, std::uint32_t generation) {
  const Booking& b = bookings_[idx];
  const SimTime deadline = b.last_activity + b.timeout;
  // Weak: a fleet idling toward drain must not be kept alive by lease
  // housekeeping. The generation capture disarms the event when the
  // booking is released/preempted and the slot recycled before it
  // fires — possibly into a different pair's booking.
  sim_->schedule_weak_at(deadline, [this, idx, generation] {
    const Booking* live = bookings_.get_live(idx, generation);
    if (live == nullptr) return;
    if (sim_->now() >= live->last_activity + live->timeout) {
      teardown_booking(idx, Teardown::kExpire);
      return;
    }
    // A send renewed the lease since this was armed; chase the new
    // deadline.
    arm_expiry(idx, generation);
  });
}

// ---------------------------------------------------------------------------
// Transport.
// ---------------------------------------------------------------------------

SimTime Interconnect::occupy_fifo(SimTime& busy_until, phy::DataRate rate,
                                  SimTime latency, phy::DataSize size) {
  const SimTime now = sim_->now();
  const SimTime start = std::max(now, busy_until);
  const SimTime serialization = phy::transmission_time(size, rate);
  busy_until = start + serialization;
  const SimTime arrival = busy_until + latency;
  bytes_slot_ += static_cast<std::uint64_t>(std::max<std::int64_t>(0, size.bit_count() / 8));
  queue_delay_.record(start - now);
  transfer_latency_.record(arrival - now);
  return arrival;
}

SimTime Interconnect::occupy(SpineLink& l, int d, phy::DataSize size) {
  Direction& dir = l.dir[d];
  const SimTime before = dir.busy_until;
  // × (1 − 0.0) is exact in IEEE arithmetic: with nothing booked the
  // residual serialization is bit-identical to the full-rate spine.
  const SimTime arrival = occupy_fifo(dir.busy_until,
                                      l.params.rate * (1.0 - dir.booked_fraction),
                                      l.params.latency, size);
  dir.busy_total += dir.busy_until - std::max(sim_->now(), before);
  return arrival;
}

bool Interconnect::send_packet(SpineLinkId id, std::uint32_t from_rack, phy::DataSize size,
                               SpineBookingHandle booking, PacketCallback cb) {
  const SpineLink& l = at(id);
  const int d = direction_index(l, from_rack);
  if (!l.up) {
    counters_.add("spine.packets_refused");
    return false;
  }
  SpineLink& ml = links_[id];
  SimTime arrival = SimTime::zero();
  bool booked = false;
  if (const Booking* b = live_booking(booking)) {
    // The packet rides its booking only on hops the booking actually
    // pinned in this direction; anything else (a re-planned detour, a
    // stale handle) shares the residual like everyone.
    for (std::size_t h = 0; h < b->route.size(); ++h) {
      if (b->route[h] != id || b->hop_dir[h] != d) continue;
      Booking& mb = bookings_[booking.id];
      const auto bytes =
          static_cast<std::uint64_t>(std::max<std::int64_t>(0, size.bit_count() / 8));
      if (mb.carve()) {
        // The carve's private FIFO at the carved rate.
        arrival = occupy_fifo(mb.hop_busy_until[h], ml.params.rate * mb.fraction,
                              ml.params.latency, size);
        reserved_bytes_slot_ += bytes;
      } else {
        // Wait for the pair's next owned calendar slot past both now
        // and the booking's own per-hop FIFO, then serialize at the
        // FULL link rate inside it — the calendar's admission rule
        // guarantees nobody else owns these slots, so the hop is
        // collision-free. Each slotted send renews the lease.
        mb.hop_busy_until[h] =
            next_owned_time(std::max(sim_->now(), mb.hop_busy_until[h]), mb.mask);
        arrival = occupy_fifo(mb.hop_busy_until[h], ml.params.rate, ml.params.latency, size);
        mb.last_activity = sim_->now();
        slotted_bytes_slot_ += bytes;
      }
      booked = true;
      break;
    }
  }
  if (!booked) arrival = occupy(ml, d, size);
  // Counters, then the RNG draw, then the scheduled callback: the
  // ordering is part of the determinism contract.
  ++ml.dir[d].packets;
  ++packets_slot_;
  ++*ml.packets_slot;
  // Loss is decided at send time but observed at arrival (the far
  // gateway's FEC decoder gives up on the mangled frame there).
  const bool lost = ml.params.loss_prob > 0.0 && rng_.bernoulli(ml.params.loss_prob);
  if (lost) {
    ++ml.dir[d].drops;
    ++drops_slot_;
  }
  // The outcome picks the closure, so neither carries a flag and both
  // fit the inline payload.
  if (cb && lost) {
    const auto lost_packet = [cb] { cb(false); };
    static_assert(sim::is_inline_event_v<decltype(lost_packet)>,
                  "the spine loss completion must stay on the inline event arm");
    sim_->schedule_at(arrival, lost_packet);
  } else if (cb) {
    const auto delivered = [cb] { cb(true); };
    static_assert(sim::is_inline_event_v<decltype(delivered)>,
                  "the spine delivery completion must stay on the inline event arm");
    sim_->schedule_at(arrival, delivered);
  }
  return true;
}

SimTime Interconnect::busy_time(SpineLinkId id, std::uint32_t from_rack) const {
  const SpineLink& l = at(id);
  return l.dir[direction_index(l, from_rack)].busy_total;
}

SimTime Interconnect::queue_backlog(SpineLinkId id, std::uint32_t from_rack) const {
  const SpineLink& l = at(id);
  const SimTime until = l.dir[direction_index(l, from_rack)].busy_until;
  return until > sim_->now() ? until - sim_->now() : SimTime::zero();
}

std::uint64_t Interconnect::link_packets(SpineLinkId id, std::uint32_t from_rack) const {
  const SpineLink& l = at(id);
  return l.dir[direction_index(l, from_rack)].packets;
}

std::uint64_t Interconnect::link_drops(SpineLinkId id, std::uint32_t from_rack) const {
  const SpineLink& l = at(id);
  return l.dir[direction_index(l, from_rack)].drops;
}

}  // namespace rsf::fabric
