// rsf::fabric — the per-link-direction TDMA slot calendar.
//
// A SlotCalendar is the admission ledger behind the spine's third
// transport regime (beside fraction-carves and pure packet sharing):
// periodic slot schedules over a fixed planning horizon. Time is
// divided into repeating frames of kFrameSlots slots; a booking owns a
// concrete *periodic* slot set — `duty` offsets out of every `period`
// consecutive slots, period dividing the frame so the pattern tiles
// the frame exactly — on one or more *lines* (a line is one spine
// link-direction; the Interconnect keys them (link << 1) | dir).
//
// The calendar is deliberately pure bookkeeping: no simulator, no
// clock, no floating point. The Interconnect maps slot indices to
// simulated time through its kSlotDuration; tests compare the calendar
// against a brute-force per-slot reference without standing up a
// fleet. Everything is deterministic — propose() scans offsets
// ascending, so equal demand always yields the same slot set.
//
// Admission rule (the mcsotdma ReservationTable discipline): a
// proposed slot set is admitted only when every slot of it is free on
// *every* line it crosses — any third-party contention overlap refuses
// the whole proposal, and book() commits atomically, so a refused or
// failed booking never leaves a partial claim behind. Owners therefore
// never overlap on a line, which is what makes slotted transmission
// collision-free by construction.
//
// Bookings live in a core::SlotPool: handles are generation-stamped,
// so a handle that outlived its booking (released, expired, preempted)
// is detectably stale and inert everywhere it is accepted.
#pragma once

#include <cstdint>
#include <map>
#include <vector>

#include "core/slot_pool.hpp"

namespace rsf::fabric {

/// One frame's slot ownership as a bitmask: bit s set = slot s of the
/// frame is claimed. The frame is exactly the mask width, so per-line
/// admission is a single AND.
using SlotMask = std::uint64_t;

class SlotCalendar {
 public:
  /// Slots per frame. A power of two equal to the SlotMask width:
  /// every valid period divides it, and the whole frame's occupancy is
  /// one machine word per line.
  static constexpr int kFrameSlots = 64;

  /// A line is one direction of one spine link (or any other
  /// serialized resource the caller keys). The calendar itself only
  /// compares keys.
  using LineId = std::uint64_t;

  /// Versioned handle to a booking. Slots are recycled; the generation
  /// detects a handle that outlived its booking.
  struct Handle {
    static constexpr std::uint32_t kInvalidId = 0xFFFFFFFFu;
    std::uint32_t id = kInvalidId;
    std::uint32_t generation = 0;

    [[nodiscard]] bool valid() const { return id != kInvalidId; }
    friend bool operator==(const Handle&, const Handle&) = default;
  };

  /// The periodic mask of one offset: slots {offset, offset + period,
  /// offset + 2·period, ...} within the frame. Throws unless
  /// 0 <= offset < period and period validly divides the frame.
  [[nodiscard]] static SlotMask periodic_mask(int period, int offset);

  /// Throws std::invalid_argument unless `period` divides kFrameSlots
  /// and 1 <= duty <= period — the one slot-shape rule every layer
  /// (calendar, spine bookings, controller policy) enforces.
  static void validate_shape(int period, int duty);

  /// Propose a slot set with `duty` owned offsets per `period` slots,
  /// free on every line of `lines` simultaneously: offsets are scanned
  /// ascending and the first `duty` contention-free ones win
  /// (deterministic). Returns 0 when fewer than `duty` offsets are
  /// free — the caller must treat 0 as a refusal, never book it.
  /// Throws on invalid period/duty (period must divide kFrameSlots,
  /// 1 <= duty <= period).
  [[nodiscard]] SlotMask propose(const std::vector<LineId>& lines, int period,
                                 int duty) const;

  /// Book `mask` on every line of `lines` atomically. Refuses
  /// (invalid handle) when the mask is 0, `lines` is empty, a line
  /// repeats, or any line already has any of the mask's slots claimed
  /// — no partial booking ever happens. A booked handle stays valid
  /// until release().
  [[nodiscard]] Handle book(std::vector<LineId> lines, SlotMask mask);

  /// Release the booking and return exactly its booked slots on every
  /// line. Stale handles are an inert no-op (returns false).
  bool release(Handle h);

  /// True while `h` names a live booking (same generation).
  [[nodiscard]] bool active(Handle h) const { return live(h) != nullptr; }
  /// The booking's slot set (0 for a stale handle).
  [[nodiscard]] SlotMask mask(Handle h) const;
  /// The booking's lines. Throws on stale handles — check active().
  [[nodiscard]] const std::vector<LineId>& lines(Handle h) const;

  /// Claimed slots of `line` (0 for a line never booked).
  [[nodiscard]] SlotMask occupancy(LineId line) const;
  /// Free slots of `line` out of kFrameSlots.
  [[nodiscard]] int free_slots(LineId line) const;

  /// Live bookings right now.
  [[nodiscard]] std::size_t booking_count() const {
    return bookings_.size() - bookings_.free_count();
  }

  /// Test seam: force a booking slot's generation so wrap-around
  /// staleness is coverable without 2^32 book/release cycles.
  void set_generation_for_test(std::uint32_t index, std::uint32_t generation) {
    bookings_.set_generation_for_test(index, generation);
  }

 private:
  struct Booking {
    std::vector<LineId> lines;
    SlotMask mask = 0;
  };

  [[nodiscard]] const Booking* live(Handle h) const {
    return bookings_.get_live(h.id, h.generation);
  }

  core::SlotPool<Booking> bookings_;
  /// Per-line occupancy; absent means fully free. Entries are erased
  /// when they return to 0, so a drained calendar leaves no residue.
  std::map<LineId, SlotMask> lines_;
};

}  // namespace rsf::fabric
