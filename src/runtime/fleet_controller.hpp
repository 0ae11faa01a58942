// rsf::runtime — the spine-aware fleet controller.
//
// A FleetController is the fleet's brain: a periodic control loop on
// the shared clock that closes the gap PR 2 left open — racks adapted
// independently and nothing repriced the spine. Every epoch it
// observes each spine link's per-direction utilisation (serialization
// time diffed between ticks) and queue backlog (how far ahead the FIFO
// is booked), derives a congestion cost, and reprices the link through
// Interconnect::set_link_cost. Repricing bumps the spine version,
// which invalidates the memoized rack routes — so the per-packet
// transport re-plans onto cheaper links at the next packet, shifting
// traffic off hot spine links without touching any in-flight packet.
//
// The controller also mirrors the CRC's intra-rack circuit loop at
// fleet scope: with a booking discipline configured it diffs the
// spine's per-(src, dst) rack-pair demand between epochs, promotes
// pairs that stay hot for `promote_after` consecutive epochs into spine
// bookings (Interconnect::book, hottest cumulative demand score
// first), and demotes pairs that stay idle for `demote_after` epochs
// (release) — hysteresis on both edges so bursty demand doesn't
// thrash the booking table. The
// discipline only changes what a promotion books: one carve, or slots
// split across two routes when the duty allows (rotor-style
// multi-path). A pair that lost any booking to a link failure or to
// slot expiry forfeits the rest and must re-earn its promotion on the
// surviving topology.
//
// Repricing is booking-aware: utilisation is judged against the
// residual rate a direction advertises (Interconnect::residual_rate),
// with the booked fraction counted as spoken-for capacity — so a hot
// booked link can no longer advertise itself as cheap to the shared
// traffic that would only get its residual.
//
// The loop schedules weak events (like the CRC's epochs), so "run
// until the workload drains" still terminates, and it draws no random
// numbers: fleet runs stay bit-for-bit deterministic with the
// controller on.
//
// Metrics land in the owning registry under "fleet.*":
// fleet.epochs, fleet.reprices, fleet.hot_links, fleet.promotions /
// fleet.demotions (carves), fleet.schedule_promotions /
// fleet.schedule_demotions / fleet.schedule_splits (slots) and
// fleet.max_spine_util (time series).
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "fabric/interconnect.hpp"
#include "sim/event.hpp"
#include "sim/simulator.hpp"
#include "telemetry/counters.hpp"
#include "telemetry/registry.hpp"
#include "telemetry/series.hpp"

namespace rsf::runtime {

/// What a promotion books: nothing (the packetized shared path, the
/// untouched baseline), a Carve, or Slots.
enum class BookingDiscipline { kNone, kCarve, kSlots };

/// Promote/demote policy for spine bookings. Disabled by default.
struct FleetBookingPolicy {
  BookingDiscipline discipline = BookingDiscipline::kNone;
  /// Carve: per-direction capacity fraction booked per promoted pair.
  double fraction = 0.4;
  /// Slots: `duty` owned offsets per `period` slots (period divides
  /// SlotCalendar::kFrameSlots, 1 <= duty <= period). A promotion books
  /// duty − duty/2 on the cheapest route and duty/2 on the cheapest
  /// route avoiding the primary's links (parallel spine links carry
  /// the pair concurrently; packets round-robin the legs); without a
  /// disjoint route the remainder books on the default route, and
  /// when even that fails the pair keeps the reduced primary.
  int period = 4;
  int duty = 2;
  /// Offered byte·hops per epoch (the pair's spine resource
  /// footprint, see Interconnect::pair_demand_slot) at or above which
  /// a pair counts hot.
  std::uint64_t hot_bytes_per_epoch = 64 * 1024;
  /// Offered byte·hops per epoch at or below which a promoted pair
  /// counts idle. Must stay below hot_bytes_per_epoch (hysteresis).
  std::uint64_t idle_bytes_per_epoch = 4 * 1024;
  /// Consecutive hot epochs before a pair is promoted.
  int promote_after = 2;
  /// Consecutive idle epochs before a promoted pair is demoted.
  int demote_after = 4;
  /// Cap on concurrently promoted pairs (a split pair counts once).
  std::size_t max_pairs = 4;
};

struct FleetControllerConfig {
  /// Control epoch: how often spine links are observed and repriced.
  /// Each epoch a link is priced 1 (the idle floor) plus the two
  /// weighted terms below, and repriced only when that moved more than
  /// 0.5 from its current cost (hysteresis, so stable load doesn't
  /// thrash the route cache). Links at or above 70% utilisation count
  /// toward "fleet.hot_links".
  rsf::sim::SimTime epoch = rsf::sim::SimTime::microseconds(100);
  /// Cost added per unit of utilisation (fraction of the epoch the
  /// direction spent serializing; can exceed 1 when the FIFO is booked
  /// ahead of real time).
  double utilization_weight = 8.0;
  /// Cost added per microsecond of queued backlog at the tick.
  double backlog_weight_per_us = 0.25;
  /// Spine booking promote/demote policy.
  FleetBookingPolicy booking{};
};

/// A serialized snapshot of the controller's learned state: per-pair
/// demand baselines, ranking scores, hysteresis streaks, and
/// booking *intents*. Intents, not handles: a controller that died
/// lost its leases (the fabric releases a dead controller's bookings,
/// the mcsotdma renewal/timeout model collapsed to immediate expiry),
/// so a restore never resurrects a handle — it marks the pair as
/// holding a full promote streak, and the first post-restart epoch
/// re-books through the normal admission path if the pair is still
/// hot.
struct FleetControllerCheckpoint {
  struct PairEntry {
    /// (src_rack << 32) | dst_rack.
    std::uint64_t key = 0;
    std::uint64_t last_bytes = 0;
    double score = 0.0;
    int hot_streak = 0;
    int idle_streak = 0;
    /// Every booking the pair held was live at checkpoint time. A pair
    /// that lost any leg is not booked: the live policy forfeits it
    /// and makes it re-earn its streak, and a restore must agree.
    bool booked = false;
  };
  std::vector<PairEntry> pairs;
  /// Epochs the checkpointing controller had completed (informational;
  /// a restored controller's own epoch count starts at zero).
  std::uint64_t epochs = 0;
};

class FleetController {
 public:
  /// Metrics land in `registry` under "fleet.*" when one is supplied
  /// (the FleetRuntime passes the fleet registry); without one the
  /// controller owns a private registry, keeping direct construction
  /// in unit tests working.
  FleetController(rsf::sim::Simulator* sim, fabric::Interconnect* spine,
                  FleetControllerConfig config = {},
                  telemetry::Registry* registry = nullptr);

  FleetController(const FleetController&) = delete;
  FleetController& operator=(const FleetController&) = delete;

  /// Begin epoch ticking. The first observation window opens now; the
  /// first repricing decision lands one epoch later. A controller
  /// starting on a warm spine (a mid-run restart) seeds its demand
  /// baselines at the current cumulative totals for pairs it has no
  /// state for, so the fleet's entire history is not misread as one
  /// epoch's delta — restored pairs keep their checkpointed baselines
  /// (the outage gap *is* their post-restart heat).
  void start();
  void stop();
  [[nodiscard]] bool running() const { return running_; }

  // --- checkpoint / restore (the chaos harness's restart primitive) ---

  /// Freeze the learned state. Cheap (one pass over the pair map) and
  /// side-effect free; safe to take mid-epoch on a running controller.
  [[nodiscard]] FleetControllerCheckpoint checkpoint() const;

  /// Load a checkpoint into a stopped (typically freshly built)
  /// controller, replacing any existing pair state. Booking intents
  /// are restored as full promote streaks — see
  /// FleetControllerCheckpoint. Throws while running.
  void restore(const FleetControllerCheckpoint& ckpt);

  /// Release every booking this controller holds and forget the
  /// handles (streaks survive). The kill path: the fabric expiring a
  /// dead controller's leases before the process goes away (slot
  /// bookings would also expire on their own after slot_timeout(); this
  /// returns them promptly). Returns how many were released.
  std::size_t release_bookings();

  [[nodiscard]] std::uint64_t epochs_completed() const { return epochs_; }
  [[nodiscard]] std::uint64_t reprices() const { return reprices_; }
  /// Rack pairs promoted into / demoted out of spine bookings.
  [[nodiscard]] std::uint64_t promotions() const { return promotions_; }
  [[nodiscard]] std::uint64_t demotions() const { return demotions_; }
  [[nodiscard]] const FleetControllerConfig& config() const { return config_; }

  /// Peak per-direction utilisation seen in the last completed epoch.
  [[nodiscard]] double last_max_utilization() const { return last_max_util_; }

  [[nodiscard]] const telemetry::CounterSet& counters() const { return counters_; }
  [[nodiscard]] const telemetry::TimeSeries& utilization_series() const {
    return util_series_;
  }

 private:
  void tick();
  /// Capture every direction's cumulative busy time as the baseline
  /// the next tick diffs against (links added mid-run start cold).
  void snapshot_busy();
  /// One epoch of the booking policy: diff per-pair demand, advance
  /// hot/idle streaks, promote and demote.
  void run_booking_policy();

  rsf::sim::Simulator* sim_;
  fabric::Interconnect* spine_;
  FleetControllerConfig config_;

  bool running_ = false;
  rsf::sim::EventId next_tick_ = rsf::sim::kInvalidEventId;
  std::uint64_t epochs_ = 0;
  std::uint64_t reprices_ = 0;
  std::uint64_t promotions_ = 0;
  std::uint64_t demotions_ = 0;
  double last_max_util_ = 0.0;
  /// Per link, per direction ([0]: leaving a.rack): busy_total at the
  /// last tick.
  std::vector<std::array<rsf::sim::SimTime, 2>> last_busy_;
  /// Booking policy state per (src << 32 | dst) rack pair: demand
  /// baseline, the ranking score, hysteresis streaks, and the
  /// held handles. Ordered map → deterministic promote order within
  /// an epoch.
  struct PairState {
    std::uint64_t last_bytes = 0;
    /// Cumulative byte·hops: each epoch adds the epoch's delta.
    double score = 0.0;
    int hot_streak = 0;
    int idle_streak = 0;
    /// One carve, or one or two slot legs. Empty = not promoted.
    std::vector<fabric::SpineBookingHandle> bookings;
  };
  /// Book a promoted pair into `st`; false when the spine refused
  /// everything (the caller backs the streak off).
  bool book_pair(std::uint32_t src, std::uint32_t dst, PairState& st);
  /// The pair holds bookings and every one is live.
  [[nodiscard]] bool booked(const PairState& st) const;
  /// Release the pair's bookings and forget them; returns how many
  /// were still live.
  std::size_t release_pair(PairState& st);
  std::map<std::uint64_t, PairState> pair_state_;
  /// Pairs holding live bookings (≤ max_pairs).
  std::size_t promoted_ = 0;

  // Instruments live in the registry (owned locally only when the
  // caller supplied none).
  std::unique_ptr<telemetry::Registry> own_registry_;
  telemetry::Registry* registry_;
  telemetry::CounterSet& counters_;
  telemetry::TimeSeries& util_series_;
};

}  // namespace rsf::runtime
