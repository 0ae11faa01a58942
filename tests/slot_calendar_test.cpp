// SlotCalendar: the admission ledger behind the spine's TDMA slot
// regime. The shape/propose/book/release contract is pinned by small
// property cases (atomic all-or-nothing booking, release returning
// exactly the booked set, generation-stale handles staying inert even
// across the generation wrap), and a 400-round seeded randomized mix
// of book / release / contention probes is checked after every round
// against a brute-force linear-scan reference — per line, a 64-entry
// owner table — including the invariant that makes slotted transport
// collision-free: no two live bookings ever own the same slot of the
// same line-direction.
#include "fabric/slot_calendar.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <map>
#include <random>
#include <stdexcept>
#include <vector>

namespace rsf {
namespace {

using fabric::SlotCalendar;
using fabric::SlotMask;
using LineId = SlotCalendar::LineId;

TEST(SlotCalendar, PeriodicMaskShapesAndShapeValidation) {
  EXPECT_EQ(SlotCalendar::periodic_mask(1, 0), ~SlotMask{0});
  EXPECT_EQ(SlotCalendar::periodic_mask(64, 0), SlotMask{1});
  EXPECT_EQ(SlotCalendar::periodic_mask(64, 63), SlotMask{1} << 63);
  SlotMask odd = 0;
  for (int s = 1; s < SlotCalendar::kFrameSlots; s += 2) odd |= SlotMask{1} << s;
  EXPECT_EQ(SlotCalendar::periodic_mask(2, 1), odd);
  // The pattern must tile the frame exactly: a period that does not
  // divide it, and offsets outside [0, period), are caller bugs.
  EXPECT_THROW(static_cast<void>(SlotCalendar::periodic_mask(3, 0)), std::invalid_argument);
  EXPECT_THROW(static_cast<void>(SlotCalendar::periodic_mask(0, 0)), std::invalid_argument);
  EXPECT_THROW(static_cast<void>(SlotCalendar::periodic_mask(128, 0)), std::invalid_argument);
  EXPECT_THROW(static_cast<void>(SlotCalendar::periodic_mask(2, 2)), std::invalid_argument);
  EXPECT_THROW(static_cast<void>(SlotCalendar::periodic_mask(2, -1)), std::invalid_argument);

  SlotCalendar cal;
  EXPECT_THROW(static_cast<void>(cal.propose({1}, 3, 1)), std::invalid_argument);
  EXPECT_THROW(static_cast<void>(cal.propose({1}, 4, 0)), std::invalid_argument);
  EXPECT_THROW(static_cast<void>(cal.propose({1}, 4, 5)), std::invalid_argument);
}

TEST(SlotCalendar, ProposeScansOffsetsAscendingDeterministically) {
  SlotCalendar cal;
  const SlotMask first = cal.propose({7}, 4, 1);
  EXPECT_EQ(first, SlotCalendar::periodic_mask(4, 0));
  const auto h = cal.book({7}, first);
  ASSERT_TRUE(h.valid());
  // The next proposal on the occupied line takes the next free offset;
  // an untouched line still gets offset 0.
  EXPECT_EQ(cal.propose({7}, 4, 1), SlotCalendar::periodic_mask(4, 1));
  EXPECT_EQ(cal.propose({8}, 4, 1), SlotCalendar::periodic_mask(4, 0));
  // duty > 1 unions the first `duty` free offsets.
  EXPECT_EQ(cal.propose({7}, 4, 2),
            SlotCalendar::periodic_mask(4, 1) | SlotCalendar::periodic_mask(4, 2));
  // Refusal when fewer than duty offsets are free: 4 requested, 3 left.
  EXPECT_EQ(cal.propose({7}, 4, 4), 0u);
}

TEST(SlotCalendar, BookIsAtomicAcrossLines) {
  SlotCalendar cal;
  const auto h = cal.book({2}, SlotCalendar::periodic_mask(2, 0));
  ASSERT_TRUE(h.valid());
  // A booking spanning lines 1..3 with a mask line 2 already holds
  // must refuse outright and leave lines 1 and 3 untouched — a
  // contention overlap on *any* line never leaves a partial claim.
  const auto refused = cal.book({1, 2, 3}, SlotCalendar::periodic_mask(2, 0));
  EXPECT_FALSE(refused.valid());
  EXPECT_EQ(cal.occupancy(1), 0u);
  EXPECT_EQ(cal.occupancy(3), 0u);
  EXPECT_EQ(cal.booking_count(), 1u);
  // propose() routes the span around the contention.
  EXPECT_EQ(cal.propose({1, 2, 3}, 2, 1), SlotCalendar::periodic_mask(2, 1));
}

TEST(SlotCalendar, BookRefusesMalformedRequests) {
  SlotCalendar cal;
  EXPECT_FALSE(cal.book({}, SlotCalendar::periodic_mask(2, 0)).valid());
  EXPECT_FALSE(cal.book({1}, 0).valid());
  EXPECT_FALSE(cal.book({1, 1}, SlotCalendar::periodic_mask(2, 0)).valid());
  EXPECT_EQ(cal.booking_count(), 0u);
  EXPECT_EQ(cal.occupancy(1), 0u);
}

TEST(SlotCalendar, ReleaseReturnsExactlyTheBookedSet) {
  SlotCalendar cal;
  const SlotMask a = SlotCalendar::periodic_mask(4, 0);
  const SlotMask b = SlotCalendar::periodic_mask(4, 2);
  const auto ha = cal.book({5, 6}, a);
  const auto hb = cal.book({6, 7}, b);
  ASSERT_TRUE(ha.valid());
  ASSERT_TRUE(hb.valid());
  EXPECT_EQ(cal.occupancy(6), a | b);
  EXPECT_EQ(cal.free_slots(6), SlotCalendar::kFrameSlots - 32);

  EXPECT_TRUE(cal.release(ha));
  // Exactly a's slots came back on both of a's lines; b is untouched.
  EXPECT_EQ(cal.occupancy(5), 0u);
  EXPECT_EQ(cal.occupancy(6), b);
  EXPECT_EQ(cal.occupancy(7), b);
  // The released handle is stale everywhere from now on.
  EXPECT_FALSE(cal.release(ha));
  EXPECT_FALSE(cal.active(ha));
  EXPECT_EQ(cal.mask(ha), 0u);
  EXPECT_THROW(static_cast<void>(cal.lines(ha)), std::invalid_argument);
  EXPECT_EQ(cal.booking_count(), 1u);
}

TEST(SlotCalendar, StaleHandlesStayInertAcrossGenerationWrap) {
  SlotCalendar cal;
  const SlotMask m = SlotCalendar::periodic_mask(2, 0);
  const auto h1 = cal.book({1}, m);
  ASSERT_TRUE(h1.valid());
  ASSERT_TRUE(cal.release(h1));

  // Park the recycled slot's generation at the wrap point and walk it
  // over the edge: the handle minted just before the wrap must stay
  // stale after it, exactly like any other stale handle.
  cal.set_generation_for_test(h1.id, 0xFFFFFFFFu);
  const auto h2 = cal.book({1}, m);
  ASSERT_EQ(h2.id, h1.id);  // LIFO slot reuse
  ASSERT_EQ(h2.generation, 0xFFFFFFFFu);
  EXPECT_FALSE(cal.active(h1));
  ASSERT_TRUE(cal.release(h2));  // the generation wraps to 0 here

  const auto h3 = cal.book({1}, m);
  ASSERT_EQ(h3.id, h1.id);
  ASSERT_EQ(h3.generation, 0u);
  EXPECT_TRUE(cal.active(h3));
  // The pre-wrap handle is inert against the post-wrap occupant: no
  // release, no mask, no occupancy change.
  EXPECT_FALSE(cal.active(h2));
  EXPECT_FALSE(cal.release(h2));
  EXPECT_EQ(cal.mask(h2), 0u);
  EXPECT_EQ(cal.occupancy(1), m);
  EXPECT_EQ(cal.booking_count(), 1u);
}

// The oracle: 400 rounds of a seeded book / release / contention-probe
// mix, with the calendar checked against a brute-force per-slot owner
// table after every round — occupancy per line, per-booking masks, the
// live-booking census, and the no-overlapping-owners invariant.
TEST(SlotCalendar, FourHundredRoundRandomizedMixMatchesLinearScanReference) {
  constexpr int kRounds = 400;
  constexpr int kLines = 6;
  SlotCalendar cal;
  std::mt19937_64 rng(0xC0FFEEu);

  struct RefBooking {
    SlotCalendar::Handle handle;
    std::vector<LineId> lines;
    SlotMask mask = 0;
  };
  std::vector<RefBooking> live;
  // owner[line][slot]: booking serial, 0 = free. Maintained by linear
  // scan — deliberately the dumbest possible bookkeeping.
  std::map<LineId, std::array<int, SlotCalendar::kFrameSlots>> owner;
  int next_serial = 1;

  const auto table = [&](LineId line) -> std::array<int, SlotCalendar::kFrameSlots>& {
    return owner.try_emplace(line).first->second;  // value-initialized: all 0
  };
  const auto ref_occupancy = [&](LineId line) {
    SlotMask m = 0;
    const auto it = owner.find(line);
    if (it == owner.end()) return m;
    for (int s = 0; s < SlotCalendar::kFrameSlots; ++s) {
      if (it->second[s] != 0) m |= SlotMask{1} << s;
    }
    return m;
  };
  const auto ref_propose = [&](const std::vector<LineId>& lines, int period, int duty) {
    SlotMask combined = 0;
    int found = 0;
    for (int offset = 0; offset < period && found < duty; ++offset) {
      const SlotMask cand = SlotCalendar::periodic_mask(period, offset);
      bool free = true;
      for (const LineId l : lines) {
        if ((ref_occupancy(l) & cand) != 0) {
          free = false;
          break;
        }
      }
      if (free) {
        combined |= cand;
        ++found;
      }
    }
    return found == duty ? combined : SlotMask{0};
  };

  constexpr int kPeriods[] = {2, 4, 8, 16};
  for (int round = 0; round < kRounds; ++round) {
    const int op = static_cast<int>(rng() % 100);
    if (op < 55 || live.empty()) {
      // Book: a 1-3 line span with a random periodic shape. The mix
      // saturates small line sets fast, so plenty of proposals hit
      // third-party contention and must refuse in lockstep with the
      // reference.
      const int period = kPeriods[rng() % 4];
      const int duty =
          1 + static_cast<int>(rng() % static_cast<unsigned>(std::min(period, 3)));
      const auto first = static_cast<int>(rng() % kLines);
      const int span = 1 + static_cast<int>(rng() % 3);
      std::vector<LineId> lines;
      for (int i = 0; i < span; ++i) lines.push_back((first + i) % kLines);
      const SlotMask expect = ref_propose(lines, period, duty);
      const SlotMask got = cal.propose(lines, period, duty);
      ASSERT_EQ(got, expect) << "round " << round;
      const auto h = cal.book(lines, got);
      if (expect == 0) {
        EXPECT_FALSE(h.valid()) << "round " << round;
      } else {
        ASSERT_TRUE(h.valid()) << "round " << round;
        for (const LineId l : lines) {
          auto& tab = table(l);
          for (int s = 0; s < SlotCalendar::kFrameSlots; ++s) {
            if ((expect >> s) & 1) {
              ASSERT_EQ(tab[s], 0) << "reference corrupted at round " << round;
              tab[s] = next_serial;
            }
          }
        }
        live.push_back(RefBooking{h, lines, expect});
        ++next_serial;
      }
    } else if (op < 85) {
      // Release a random live booking; its handle goes stale at once.
      const std::size_t pick = rng() % live.size();
      const RefBooking b = live[pick];
      ASSERT_TRUE(cal.release(b.handle)) << "round " << round;
      EXPECT_FALSE(cal.release(b.handle)) << "round " << round;
      for (const LineId l : b.lines) {
        auto& tab = table(l);
        for (int s = 0; s < SlotCalendar::kFrameSlots; ++s) {
          if ((b.mask >> s) & 1) tab[s] = 0;
        }
      }
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(pick));
    } else {
      // Contention probe: a full-frame proposal is admitted exactly
      // when the line is completely free.
      const LineId line = rng() % kLines;
      const SlotMask got = cal.propose({line}, 1, 1);
      EXPECT_EQ(got != 0, ref_occupancy(line) == 0) << "round " << round;
    }

    // Lockstep invariants after every round.
    for (LineId l = 0; l < kLines; ++l) {
      ASSERT_EQ(cal.occupancy(l), ref_occupancy(l)) << "round " << round;
      ASSERT_EQ(cal.free_slots(l),
                SlotCalendar::kFrameSlots - std::popcount(ref_occupancy(l)))
          << "round " << round;
    }
    ASSERT_EQ(cal.booking_count(), live.size()) << "round " << round;
    std::array<SlotMask, kLines> per_line_union{};
    for (const RefBooking& b : live) {
      ASSERT_TRUE(cal.active(b.handle)) << "round " << round;
      ASSERT_EQ(cal.mask(b.handle), b.mask) << "round " << round;
      ASSERT_EQ(cal.lines(b.handle), b.lines) << "round " << round;
      for (const LineId l : b.lines) {
        // The collision-freedom invariant: no two live bookings own
        // the same slot of the same line.
        ASSERT_EQ(per_line_union[l] & b.mask, 0u)
            << "overlapping owners at round " << round;
        per_line_union[l] |= b.mask;
      }
    }
  }

  // Drain: releasing every survivor leaves no residue anywhere.
  for (const RefBooking& b : live) EXPECT_TRUE(cal.release(b.handle));
  for (LineId l = 0; l < kLines; ++l) EXPECT_EQ(cal.occupancy(l), 0u);
  EXPECT_EQ(cal.booking_count(), 0u);
}

}  // namespace
}  // namespace rsf
