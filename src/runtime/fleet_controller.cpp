#include "runtime/fleet_controller.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace rsf::runtime {

using rsf::sim::SimTime;

namespace {
/// Cost floor every link returns to when idle.
constexpr double kBaseCost = 1.0;
/// Reprice only when the derived cost moved more than this from the
/// link's current cost.
constexpr double kCostEpsilon = 0.5;
/// Utilisation at or above which a link counts toward "fleet.hot_links".
constexpr double kHotThreshold = 0.7;
}  // namespace

FleetController::FleetController(rsf::sim::Simulator* sim, fabric::Interconnect* spine,
                                 FleetControllerConfig config,
                                 telemetry::Registry* registry)
    : sim_(sim),
      spine_(spine),
      config_(config),
      own_registry_(registry ? nullptr : std::make_unique<telemetry::Registry>()),
      registry_(registry ? registry : own_registry_.get()),
      counters_(registry_->counters("fleet")),
      util_series_(registry_->series("fleet.max_spine_util")) {
  if (sim_ == nullptr || spine_ == nullptr) {
    throw std::invalid_argument("FleetController: null simulator or spine");
  }
  if (config_.epoch <= SimTime::zero()) {
    throw std::invalid_argument("FleetController: non-positive epoch");
  }
  // Every weight must be finite and non-negative, or the first loaded
  // tick would hand set_link_cost a non-positive or NaN cost and throw
  // out of the middle of a run.
  if (!std::isfinite(config_.utilization_weight) || config_.utilization_weight < 0 ||
      !std::isfinite(config_.backlog_weight_per_us) || config_.backlog_weight_per_us < 0) {
    throw std::invalid_argument("FleetController: negative or non-finite cost weight");
  }
  const FleetBookingPolicy& bp = config_.booking;
  if (bp.discipline == BookingDiscipline::kNone) return;
  if (bp.discipline == BookingDiscipline::kCarve && !(bp.fraction > 0 && bp.fraction < 1)) {
    throw std::invalid_argument("FleetController: reservation fraction outside (0, 1)");
  }
  if (bp.discipline == BookingDiscipline::kSlots) {
    fabric::SlotCalendar::validate_shape(bp.period, bp.duty);
  }
  if (bp.promote_after < 1 || bp.demote_after < 1) {
    throw std::invalid_argument("FleetController: non-positive hysteresis epochs");
  }
  if (bp.idle_bytes_per_epoch >= bp.hot_bytes_per_epoch) {
    throw std::invalid_argument("FleetController: idle threshold not below hot threshold");
  }
}

void FleetController::snapshot_busy() {
  last_busy_.resize(spine_->link_count());
  for (fabric::SpineLinkId id = 0; id < spine_->link_count(); ++id) {
    const fabric::SpineLinkParams& p = spine_->link(id);
    last_busy_[id][0] = spine_->busy_time(id, p.a.rack);
    last_busy_[id][1] = spine_->busy_time(id, p.b.rack);
  }
}

void FleetController::start() {
  if (running_) return;
  running_ = true;
  snapshot_busy();  // open the first observation window at "now"
  // Warm-spine start: pairs this controller knows nothing about get
  // their demand baseline pinned to the current cumulative total, so a
  // cold mid-run restart diffs only post-restart traffic instead of
  // misreading the fleet's whole history as one epoch's delta. At
  // t = 0 the demand map is empty and this is a no-op; checkpointed
  // pairs were restored into pair_state_ already and keep their
  // (deliberately stale) baselines.
  for (const auto& [key, total] : spine_->pair_demand()) {
    auto [it, inserted] = pair_state_.try_emplace(key);
    if (inserted) it->second.last_bytes = total;
  }
  next_tick_ = sim_->schedule_weak_after(config_.epoch, [this] { tick(); });
}

FleetControllerCheckpoint FleetController::checkpoint() const {
  FleetControllerCheckpoint ckpt;
  ckpt.epochs = epochs_;
  ckpt.pairs.reserve(pair_state_.size());
  for (const auto& [key, st] : pair_state_) {
    ckpt.pairs.push_back(
        {key, st.last_bytes, st.score, st.hot_streak, st.idle_streak, booked(st)});
  }
  return ckpt;
}

void FleetController::restore(const FleetControllerCheckpoint& ckpt) {
  if (running_) {
    throw std::logic_error("FleetController: restore into a running controller");
  }
  pair_state_.clear();
  promoted_ = 0;
  for (const FleetControllerCheckpoint::PairEntry& e : ckpt.pairs) {
    PairState st;
    st.last_bytes = e.last_bytes;
    st.score = e.score;
    st.hot_streak = e.hot_streak;
    st.idle_streak = e.idle_streak;
    // A booking intent restores as a full promote streak: if the pair
    // is still hot in the first post-restart epoch, the normal pass-2
    // admission re-books it immediately; if it cooled during the
    // outage, the streak resets to zero there and nothing is booked.
    // Handles are never resurrected.
    if (e.booked) st.hot_streak = std::max(st.hot_streak, config_.booking.promote_after);
    pair_state_.emplace(e.key, st);
  }
}

bool FleetController::booked(const PairState& st) const {
  return !st.bookings.empty() &&
         std::all_of(st.bookings.begin(), st.bookings.end(),
                     [this](fabric::SpineBookingHandle h) { return spine_->booking_active(h); });
}

std::size_t FleetController::release_pair(PairState& st) {
  // Legs that already expired or were preempted are stale; release()
  // is a no-op on them.
  std::size_t live = 0;
  for (const fabric::SpineBookingHandle h : st.bookings) {
    live += spine_->booking_active(h) ? 1 : 0;
    spine_->release(h);
  }
  st.bookings.clear();
  return live;
}

std::size_t FleetController::release_bookings() {
  std::size_t released = 0;
  for (auto& [key, st] : pair_state_) released += release_pair(st);
  promoted_ = 0;
  return released;
}

void FleetController::stop() {
  if (!running_) return;
  running_ = false;
  sim_->cancel(next_tick_);
  next_tick_ = rsf::sim::kInvalidEventId;
}

void FleetController::tick() {
  if (!running_) return;
  const double epoch_s = std::max(config_.epoch.sec(), 1e-12);
  // Links added since the last tick diff against a zero baseline.
  const std::size_t known = last_busy_.size();
  last_busy_.resize(spine_->link_count());
  for (std::size_t i = known; i < last_busy_.size(); ++i) last_busy_[i] = {};

  double max_util = 0.0;
  for (fabric::SpineLinkId id = 0; id < spine_->link_count(); ++id) {
    const fabric::SpineLinkParams& p = spine_->link(id);
    const std::uint32_t rack_of[2] = {p.a.rack, p.b.rack};
    double util = 0.0;
    SimTime backlog = SimTime::zero();
    for (int d = 0; d < 2; ++d) {
      const SimTime busy = spine_->busy_time(id, rack_of[d]);
      // busy_total is booked at send time, so an epoch that enqueued a
      // deep FIFO can show > 1: that is pressure, and the cost should
      // reflect it — no clamping here.
      double u = (busy - last_busy_[id][d]).sec() / epoch_s;
      last_busy_[id][d] = busy;
      // Price what shared traffic actually sees, not the nameplate
      // rate: `u` is the fraction of the epoch the *residual* FIFO
      // spent serializing, so re-express it against full capacity
      // (× residual/rate) and add the booked fraction back — booked
      // capacity is spoken-for whether or not the circuit is busy, so
      // a hot booked direction can no longer advertise itself as
      // cheap. With nothing booked the ratio is exactly 1 and this is
      // the pre-booking arithmetic, bit for bit.
      const double residual_ratio = spine_->residual_rate(id, rack_of[d]) / p.rate;
      u = u * residual_ratio + (1.0 - residual_ratio);
      util = std::max(util, u);
      backlog = std::max(backlog, spine_->queue_backlog(id, rack_of[d]));
    }
    max_util = std::max(max_util, util);
    if (util >= kHotThreshold) counters_.add("fleet.hot_links");
    const double cost = kBaseCost + config_.utilization_weight * util +
                        config_.backlog_weight_per_us * backlog.us();
    if (std::abs(cost - spine_->link_cost(id)) > kCostEpsilon) {
      // set_link_cost bumps the spine version: memoized routes drop
      // and the packetized transport re-plans at its next packet.
      spine_->set_link_cost(id, cost);
      ++reprices_;
      counters_.add("fleet.reprices");
    }
  }
  last_max_util_ = max_util;
  util_series_.record(sim_->now(), max_util);
  if (config_.booking.discipline != BookingDiscipline::kNone) run_booking_policy();
  ++epochs_;
  counters_.add("fleet.epochs");
  next_tick_ = sim_->schedule_weak_after(config_.epoch, [this] { tick(); });
}

void FleetController::run_booking_policy() {
  const FleetBookingPolicy& bp = config_.booking;
  // Counter names stay per discipline.
  const bool slots = bp.discipline == BookingDiscipline::kSlots;
  // Pass 1 — streaks and demotions. The demand map only ever grows,
  // so iterating it visits every pair this fleet has offered
  // cross-rack load for — including pairs that went silent this
  // epoch (their delta is 0 and their idle streak advances).
  std::vector<std::pair<double, std::uint64_t>> candidates;  // (score, key)
  for (const auto& [key, total_bytes] : spine_->pair_demand()) {
    PairState& st = pair_state_[key];
    const std::uint64_t delta = total_bytes - st.last_bytes;
    st.last_bytes = total_bytes;
    st.score += static_cast<double>(delta);
    if (!st.bookings.empty() && !booked(st)) {
      // Preempted by a link failure (or, for slots, expired) since
      // the last epoch, possibly one leg of a split at a time: forfeit
      // the rest; the pair re-earns its promotion on the new topology.
      release_pair(st);
      st.hot_streak = 0;
      st.idle_streak = 0;
      --promoted_;
    }
    if (st.bookings.empty()) {
      st.hot_streak = delta >= bp.hot_bytes_per_epoch ? st.hot_streak + 1 : 0;
      // Rank candidates by the cumulative demand score, not this epoch's
      // delta: a long multi-hop pair fills its pipeline slower and
      // would lose an early delta race to a short-haul burst.
      if (st.hot_streak >= bp.promote_after) candidates.emplace_back(st.score, key);
      continue;
    }
    st.idle_streak = delta <= bp.idle_bytes_per_epoch ? st.idle_streak + 1 : 0;
    if (st.idle_streak >= bp.demote_after) {
      release_pair(st);
      st.hot_streak = 0;
      st.idle_streak = 0;
      --promoted_;
      ++demotions_;
      counters_.add(slots ? "fleet.schedule_demotions" : "fleet.demotions");
    }
  }
  // Pass 2 — promotions, hottest first: when several pairs cleared
  // the streak this epoch, the scarce capacity goes to the largest
  // cumulative demand score (key ascending on ties — deterministic).
  std::sort(candidates.begin(), candidates.end(),
            [](const auto& a, const auto& b) {
              return a.first != b.first ? a.first > b.first : a.second < b.second;
            });
  for (const auto& [score, key] : candidates) {
    if (promoted_ >= bp.max_pairs) break;
    PairState& st = pair_state_[key];
    const auto src = static_cast<std::uint32_t>(key >> 32);
    const auto dst = static_cast<std::uint32_t>(key & 0xFFFFFFFFu);
    if (book_pair(src, dst, st)) {
      st.idle_streak = 0;
      ++promoted_;
      ++promotions_;
      counters_.add(slots ? "fleet.schedule_promotions" : "fleet.promotions");
    } else {
      // No headroom, no slots or no route: back off a full promote
      // window instead of hammering admission every epoch.
      st.hot_streak = 0;
    }
  }
}

bool FleetController::book_pair(std::uint32_t src, std::uint32_t dst, PairState& st) {
  const FleetBookingPolicy& bp = config_.booking;
  if (bp.discipline == BookingDiscipline::kCarve) {
    const auto h = spine_->book(src, dst, fabric::Carve{bp.fraction});
    if (h) st.bookings = {*h};
    return h.has_value();
  }
  // Rotor-style split: duty − duty/2 on the cheapest route, the rest
  // on the cheapest route avoiding the primary's links, so parallel
  // spine links carry the pair concurrently.
  const int secondary = bp.duty / 2;
  const auto primary = spine_->book(src, dst, fabric::Slots{bp.period, bp.duty - secondary});
  if (!primary) return false;
  st.bookings = {*primary};
  if (secondary == 0) return true;
  if (const auto h = spine_->book(src, dst, fabric::Slots{bp.period, secondary},
                                  spine_->booking(*primary).route)) {
    st.bookings.push_back(*h);
    counters_.add("fleet.schedule_splits");
  } else if (const auto top_up = spine_->book(src, dst, fabric::Slots{bp.period, secondary})) {
    // No disjoint second route (or no capacity there): top the pair
    // back up to the full duty on the default route. When even that
    // is refused the reduced primary still beats nothing.
    st.bookings.push_back(*top_up);
  }
  return true;
}

}  // namespace rsf::runtime
