#include "fabric/interconnect.hpp"

#include <algorithm>
#include <limits>
#include <queue>
#include <stdexcept>
#include <tuple>
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
  if (params.rate.gbps_value() <= 0) {
    throw std::invalid_argument("Interconnect: non-positive spine rate");
  }
  if (params.cost <= 0) {
    throw std::invalid_argument("Interconnect: non-positive spine cost");
  }
  // The closed interval: loss_prob == 1 is a blackhole link — a
  // legitimate chaos configuration (the retransmit path above it is
  // bounded by max_retries), not a misconfiguration.
  if (params.loss_prob < 0 || params.loss_prob > 1) {
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
    // A failed link preempts every reservation pinned across it: the
    // carve returns to the residual and holders' handles go stale, so
    // their traffic falls back to the shared FIFO of whatever route
    // the transport re-plans.
    for (std::uint32_t idx = 0; idx < reservations_.size(); ++idx) {
      if (!reservations_.live(idx)) continue;
      const Reservation& r = reservations_[idx];
      if (std::find(r.route.begin(), r.route.end(), id) == r.route.end()) continue;
      teardown_reservation(idx);
      counters_.add("spine.reservation_preemptions");
    }
    // Slot schedules pinned across the dead link are preempted the
    // same way: slots return to the calendar, the residual share
    // comes back, and holders degrade through the stale handle.
    for (std::uint32_t idx = 0; idx < schedules_.size(); ++idx) {
      if (!schedules_.live(idx)) continue;
      const SlotSchedule& s = schedules_[idx];
      if (std::find(s.route.begin(), s.route.end(), id) == s.route.end()) continue;
      teardown_schedule(idx);
      counters_.add("spine.slot_preemptions");
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
  srlgs_.push_back(SharedRiskGroup{std::move(links), true});
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
  if (cost <= 0) throw std::invalid_argument("Interconnect: non-positive spine cost");
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
    std::uint32_t src_rack, std::uint32_t dst_rack) const {
  return compute_route_avoiding(src_rack, dst_rack, {});
}

std::optional<std::vector<SpineLinkId>> Interconnect::compute_route_avoiding(
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
  using Item = std::tuple<double, int, std::uint32_t>;
  std::priority_queue<Item, std::vector<Item>, std::greater<>> frontier;
  cost[src_rack] = 0;
  hops[src_rack] = 0;
  frontier.emplace(0.0, 0, src_rack);
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
        frontier.emplace(nc, nh, next);
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
// Circuit reservations.
// ---------------------------------------------------------------------------

std::optional<SpineReservationHandle> Interconnect::reserve(std::uint32_t src_rack,
                                                            std::uint32_t dst_rack,
                                                            double bandwidth_fraction) {
  if (bandwidth_fraction <= 0 || bandwidth_fraction >= 1) {
    throw std::invalid_argument("Interconnect: reservation fraction outside (0, 1)");
  }
  if (src_rack == dst_rack) return std::nullopt;
  if (reservation_by_pair_.contains(pair_key(src_rack, dst_rack))) return std::nullopt;
  auto route_opt = compute_route(src_rack, dst_rack);
  if (!route_opt || route_opt->empty()) return std::nullopt;
  const std::vector<SpineLinkId>& route = *route_opt;
  // Admission: every crossed direction must keep a positive residual
  // after the carve. Checked before any mutation, so a refused
  // reservation leaves no partial carve behind.
  std::vector<int> hop_dir(route.size());
  std::uint32_t rack = src_rack;
  for (std::size_t h = 0; h < route.size(); ++h) {
    const SpineLink& l = at(route[h]);
    const int d = direction_index(l, rack);
    if (l.dir[d].reserved_fraction + l.dir[d].slotted_fraction + bandwidth_fraction >=
        1.0) {
      counters_.add("spine.reservations_refused");
      return std::nullopt;
    }
    hop_dir[h] = d;
    rack = far_end(route[h], rack).rack;
  }
  for (std::size_t h = 0; h < route.size(); ++h) {
    links_[route[h]].dir[hop_dir[h]].reserved_fraction += bandwidth_fraction;
  }
  const auto slot = reservations_.claim();
  Reservation& r = reservations_[slot.index];
  r.src_rack = src_rack;
  r.dst_rack = dst_rack;
  r.fraction = bandwidth_fraction;
  r.route = route;
  r.hop_dir = std::move(hop_dir);
  r.hop_busy_until.assign(route.size(), SimTime::zero());
  reservation_by_pair_[pair_key(src_rack, dst_rack)] = slot.index;
  ++reservation_version_;
  counters_.add("spine.reservations");
  return SpineReservationHandle{slot.index, slot.generation};
}

void Interconnect::teardown_reservation(std::uint32_t idx) {
  const Reservation& r = reservations_[idx];
  for (std::size_t h = 0; h < r.route.size(); ++h) {
    double& carved = links_[r.route[h]].dir[r.hop_dir[h]].reserved_fraction;
    carved -= r.fraction;
    // Float hygiene: a direction whose last reservation left must
    // serialize at exactly the full link rate again.
    if (carved < 1e-12) carved = 0.0;
  }
  reservation_by_pair_.erase(pair_key(r.src_rack, r.dst_rack));
  // The recycle bumps the slot generation, stale-ifying every
  // outstanding handle.
  reservations_.recycle(idx);
  ++reservation_version_;
}

void Interconnect::release(SpineReservationHandle handle) {
  if (live_reservation(handle) == nullptr) return;  // stale: idempotent no-op
  teardown_reservation(handle.id);
  counters_.add("spine.reservation_releases");
}

bool Interconnect::reservation_active(SpineReservationHandle handle) const {
  return live_reservation(handle) != nullptr;
}

std::optional<SpineReservationHandle> Interconnect::find_reservation(
    std::uint32_t src_rack, std::uint32_t dst_rack) const {
  const auto it = reservation_by_pair_.find(pair_key(src_rack, dst_rack));
  if (it == reservation_by_pair_.end()) return std::nullopt;
  return SpineReservationHandle{it->second, reservations_.generation(it->second)};
}

const std::vector<SpineLinkId>& Interconnect::reservation_route(
    SpineReservationHandle handle) const {
  const Reservation* r = live_reservation(handle);
  if (r == nullptr) throw std::invalid_argument("Interconnect: stale reservation handle");
  return r->route;
}

double Interconnect::reservation_fraction(SpineReservationHandle handle) const {
  const Reservation* r = live_reservation(handle);
  if (r == nullptr) throw std::invalid_argument("Interconnect: stale reservation handle");
  return r->fraction;
}

double Interconnect::reserved_fraction(SpineLinkId id, std::uint32_t from_rack) const {
  const SpineLink& l = at(id);
  return l.dir[direction_index(l, from_rack)].reserved_fraction;
}

phy::DataRate Interconnect::residual_rate(SpineLinkId id, std::uint32_t from_rack) const {
  const SpineLink& l = at(id);
  // Same expression occupy() serializes shared traffic at: × (1 − 0.0
  // − 0.0) is exact, so an uncarved, unslotted direction advertises
  // the nameplate rate.
  const Direction& dir = l.dir[direction_index(l, from_rack)];
  return l.params.rate * (1.0 - dir.reserved_fraction - dir.slotted_fraction);
}

// ---------------------------------------------------------------------------
// Slot schedules (the TDMA regime).
// ---------------------------------------------------------------------------

void Interconnect::set_slot_duration(SimTime d) {
  if (d <= SimTime::zero()) {
    throw std::invalid_argument("Interconnect: non-positive slot duration");
  }
  if (schedule_count() > 0) {
    throw std::logic_error(
        "Interconnect: slot duration cannot change under live schedules");
  }
  slot_duration_ = d;
}

void Interconnect::set_slot_timeout(SimTime timeout) {
  if (timeout <= SimTime::zero()) {
    throw std::invalid_argument("Interconnect: non-positive slot timeout");
  }
  slot_timeout_ = timeout;
}

std::optional<SpineScheduleHandle> Interconnect::reserve_slots(
    std::uint32_t src_rack, std::uint32_t dst_rack, int period, int duty,
    const std::vector<SpineLinkId>& avoid) {
  // Shape errors are caller bugs and throw; everything below is a
  // legitimate runtime refusal and returns nullopt.
  if (period < 1 || period > SlotCalendar::kFrameSlots ||
      SlotCalendar::kFrameSlots % period != 0 || duty < 1 || duty > period) {
    throw std::invalid_argument("Interconnect: invalid slot schedule shape");
  }
  if (src_rack == dst_rack) return std::nullopt;
  auto route_opt = avoid.empty() ? compute_route(src_rack, dst_rack)
                                 : compute_route_avoiding(src_rack, dst_rack, avoid);
  if (!route_opt || route_opt->empty()) {
    counters_.add("spine.slot_refusals");
    return std::nullopt;
  }
  const std::vector<SpineLinkId>& route = *route_opt;
  const double fraction = static_cast<double>(duty) / static_cast<double>(period);
  // Admission, phase 1 — headroom: every crossed direction must keep a
  // positive shared residual after the schedule's share leaves it
  // (duty == period therefore always refuses: a schedule may not starve
  // the shared FIFO outright). Checked before any mutation.
  std::vector<int> hop_dir(route.size());
  std::vector<SlotCalendar::LineId> lines(route.size());
  std::uint32_t rack = src_rack;
  for (std::size_t h = 0; h < route.size(); ++h) {
    const SpineLink& l = at(route[h]);
    const int d = direction_index(l, rack);
    if (l.dir[d].reserved_fraction + l.dir[d].slotted_fraction + fraction >= 1.0) {
      counters_.add("spine.slot_refusals");
      return std::nullopt;
    }
    hop_dir[h] = d;
    lines[h] = line_of(route[h], d);
    rack = far_end(route[h], rack).rack;
  }
  // Admission, phase 2 — contention: the calendar must find `duty`
  // offsets free on every crossed line simultaneously. A refusal here
  // (third-party overlap) also leaves no partial state behind.
  const SlotMask mask = calendar_.propose(lines, period, duty);
  if (mask == 0) {
    counters_.add("spine.slot_refusals");
    return std::nullopt;
  }
  const SlotCalendar::Handle booking =
      calendar_.book(std::vector<SlotCalendar::LineId>(lines), mask);
  if (!booking.valid()) {
    // Unreachable after a successful propose() (same lines, same
    // mask, no mutation in between), but refuse defensively rather
    // than leak an untracked claim.
    counters_.add("spine.slot_refusals");
    return std::nullopt;
  }
  for (std::size_t h = 0; h < route.size(); ++h) {
    links_[route[h]].dir[hop_dir[h]].slotted_fraction += fraction;
  }
  const auto slot = schedules_.claim();
  SlotSchedule& s = schedules_[slot.index];
  s.src_rack = src_rack;
  s.dst_rack = dst_rack;
  s.fraction = fraction;
  s.booking = booking;
  s.mask = mask;
  s.route = route;
  s.hop_dir = std::move(hop_dir);
  s.hop_busy_until.assign(route.size(), SimTime::zero());
  s.last_activity = sim_->now();
  s.timeout = slot_timeout_;
  schedules_by_pair_[pair_key(src_rack, dst_rack)].push_back(slot.index);
  ++schedule_version_;
  counters_.add("spine.slot_reservations");
  arm_schedule_expiry(slot.index, slot.generation);
  return SpineScheduleHandle{slot.index, slot.generation};
}

void Interconnect::teardown_schedule(std::uint32_t idx) {
  const SlotSchedule& s = schedules_[idx];
  calendar_.release(s.booking);
  for (std::size_t h = 0; h < s.route.size(); ++h) {
    double& slotted = links_[s.route[h]].dir[s.hop_dir[h]].slotted_fraction;
    slotted -= s.fraction;
    // Float hygiene: a direction whose last schedule left must
    // serialize shared traffic at exactly the full residual again.
    if (slotted < 1e-12) slotted = 0.0;
  }
  const auto it = schedules_by_pair_.find(pair_key(s.src_rack, s.dst_rack));
  std::vector<std::uint32_t>& pair = it->second;
  pair.erase(std::find(pair.begin(), pair.end(), idx));
  if (pair.empty()) schedules_by_pair_.erase(it);
  // The recycle bumps the slot generation, stale-ifying every
  // outstanding handle (and disarming the pending expiry event).
  schedules_.recycle(idx);
  ++schedule_version_;
}

void Interconnect::release_slots(SpineScheduleHandle handle) {
  if (live_schedule(handle) == nullptr) return;  // stale: idempotent no-op
  teardown_schedule(handle.id);
  counters_.add("spine.slot_releases");
}

bool Interconnect::schedule_active(SpineScheduleHandle handle) const {
  return live_schedule(handle) != nullptr;
}

std::vector<SpineScheduleHandle> Interconnect::find_schedules(
    std::uint32_t src_rack, std::uint32_t dst_rack) const {
  std::vector<SpineScheduleHandle> out;
  const auto it = schedules_by_pair_.find(pair_key(src_rack, dst_rack));
  if (it == schedules_by_pair_.end()) return out;
  out.reserve(it->second.size());
  for (const std::uint32_t idx : it->second) {
    out.push_back(SpineScheduleHandle{idx, schedules_.generation(idx)});
  }
  return out;
}

const std::vector<SpineLinkId>& Interconnect::schedule_route(
    SpineScheduleHandle handle) const {
  const SlotSchedule* s = live_schedule(handle);
  if (s == nullptr) throw std::invalid_argument("Interconnect: stale schedule handle");
  return s->route;
}

SlotMask Interconnect::schedule_mask(SpineScheduleHandle handle) const {
  const SlotSchedule* s = live_schedule(handle);
  if (s == nullptr) throw std::invalid_argument("Interconnect: stale schedule handle");
  return s->mask;
}

double Interconnect::schedule_fraction(SpineScheduleHandle handle) const {
  const SlotSchedule* s = live_schedule(handle);
  if (s == nullptr) throw std::invalid_argument("Interconnect: stale schedule handle");
  return s->fraction;
}

double Interconnect::slotted_fraction(SpineLinkId id, std::uint32_t from_rack) const {
  const SpineLink& l = at(id);
  return l.dir[direction_index(l, from_rack)].slotted_fraction;
}

SimTime Interconnect::next_owned_time(SimTime from, SlotMask mask) const {
  const std::int64_t d = slot_duration_.ps();
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

void Interconnect::arm_schedule_expiry(std::uint32_t idx, std::uint32_t generation) {
  const SlotSchedule& s = schedules_[idx];
  const SimTime deadline = s.last_activity + s.timeout;
  // Weak: a fleet idling toward drain must not be kept alive by lease
  // housekeeping. The generation capture disarms the event when the
  // schedule is released/preempted and the slot recycled before it
  // fires — possibly into a different pair's schedule.
  sim_->schedule_weak_at(deadline, [this, idx, generation] {
    if (schedules_.get_live(idx, generation) == nullptr) return;
    const SlotSchedule& sched = schedules_[idx];
    if (sim_->now() >= sched.last_activity + sched.timeout) {
      teardown_schedule(idx);
      counters_.add("spine.slot_expirations");
      return;
    }
    // A send renewed the lease since this was armed; chase the new
    // deadline.
    arm_schedule_expiry(idx, generation);
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
  // × (1 − 0.0 − 0.0) is exact in IEEE arithmetic: with nothing
  // reserved and nothing slotted the residual serialization is
  // bit-identical to the full-rate spine.
  const SimTime arrival = occupy_fifo(
      dir.busy_until,
      l.params.rate * (1.0 - dir.reserved_fraction - dir.slotted_fraction),
      l.params.latency, size);
  dir.busy_total += dir.busy_until - std::max(sim_->now(), before);
  return arrival;
}

bool Interconnect::send_packet(SpineLinkId id, std::uint32_t from_rack, phy::DataSize size,
                               SpineReservationHandle reservation, PacketCallback cb) {
  const SpineLink& l = at(id);
  const int d = direction_index(l, from_rack);
  if (!l.up) {
    counters_.add("spine.packets_refused");
    return false;
  }
  SpineLink& ml = links_[id];
  SimTime arrival = SimTime::zero();
  bool reserved_slice = false;
  if (const Reservation* r = live_reservation(reservation)) {
    // The packet rides its circuit only on hops the reservation
    // actually pinned in this direction; anything else (a re-planned
    // detour, a stale handle) shares the residual like everyone.
    for (std::size_t h = 0; h < r->route.size(); ++h) {
      if (r->route[h] == id && r->hop_dir[h] == d) {
        Reservation& mr = reservations_[reservation.id];
        arrival = occupy_fifo(mr.hop_busy_until[h], ml.params.rate * r->fraction,
                              ml.params.latency, size);
        reserved_slice = true;
        reserved_bytes_slot_ +=
            static_cast<std::uint64_t>(std::max<std::int64_t>(0, size.bit_count() / 8));
        break;
      }
    }
  }
  if (!reserved_slice) arrival = occupy(ml, d, size);
  return finish_packet(ml, d, arrival, std::move(cb));
}

bool Interconnect::send_packet(SpineLinkId id, std::uint32_t from_rack, phy::DataSize size,
                               SpineScheduleHandle schedule, PacketCallback cb) {
  const SpineLink& l = at(id);
  const int d = direction_index(l, from_rack);
  if (!l.up) {
    counters_.add("spine.packets_refused");
    return false;
  }
  SpineLink& ml = links_[id];
  SimTime arrival = SimTime::zero();
  bool slotted = false;
  if (const SlotSchedule* s = live_schedule(schedule)) {
    // The packet rides its slots only on hops the schedule actually
    // pinned in this direction; anything else (a re-planned detour, a
    // stale handle) shares the residual like everyone.
    for (std::size_t h = 0; h < s->route.size(); ++h) {
      if (s->route[h] == id && s->hop_dir[h] == d) {
        SlotSchedule& ms = schedules_[schedule.id];
        // Wait for the pair's next owned calendar slot past both now
        // and the schedule's own per-hop FIFO, then serialize at the
        // FULL link rate inside it — the calendar's admission rule
        // guarantees nobody else owns these slots, so the hop is
        // collision-free.
        const SimTime start =
            next_owned_time(std::max(sim_->now(), ms.hop_busy_until[h]), ms.mask);
        ms.hop_busy_until[h] = start;
        arrival = occupy_fifo(ms.hop_busy_until[h], ml.params.rate, ml.params.latency,
                              size);
        // Each slotted send renews the inactivity lease.
        ms.last_activity = sim_->now();
        slotted = true;
        slotted_bytes_slot_ +=
            static_cast<std::uint64_t>(std::max<std::int64_t>(0, size.bit_count() / 8));
        break;
      }
    }
  }
  if (!slotted) arrival = occupy(ml, d, size);
  return finish_packet(ml, d, arrival, std::move(cb));
}

bool Interconnect::finish_packet(SpineLink& ml, int d, SimTime arrival,
                                 PacketCallback cb) {
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
  if (cb) {
    const auto complete = [cb = std::move(cb), arrival, lost] { cb(arrival, !lost); };
    static_assert(sim::is_inline_event_v<decltype(complete)>,
                  "the spine packet completion must stay on the inline event arm");
    sim_->schedule_at(arrival, complete);
  }
  return true;
}

bool Interconnect::transfer(SpineLinkId id, std::uint32_t from_rack, phy::DataSize size,
                            DeliveryCallback cb) {
  const SpineLink& l = at(id);
  const int d = direction_index(l, from_rack);
  if (!l.up) {
    counters_.add("spine.transfers_refused");
    return false;
  }
  const SimTime arrival = occupy(links_[id], d, size);
  counters_.add("spine.transfers");
  if (cb) {
    sim_->schedule_at(arrival, [cb = std::move(cb), arrival] { cb(arrival); });
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
