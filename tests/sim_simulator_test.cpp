#include "sim/simulator.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <iterator>
#include <memory>
#include <stdexcept>
#include <utility>
#include <vector>

namespace rsf::sim {

/// Test seam: forces an event record's generation counter so the
/// EventId generation wrap is coverable without 2^32 schedule/fire
/// cycles per record index.
struct SimulatorTestPeer {
  static void set_record_generation(Simulator& sim, std::uint32_t index,
                                    std::uint32_t generation) {
    ASSERT_LT(index, sim.record_count_);
    sim.records_[index].generation = generation;
  }
  static std::uint32_t slot_of(EventId id) {
    return static_cast<std::uint32_t>((id >> 32) - 1);
  }
  static std::uint32_t generation_of(EventId id) {
    return static_cast<std::uint32_t>(id & 0xFFFFFFFFu);
  }
  // The calendar geometry, for tests that aim at level boundaries.
  static constexpr std::int64_t kWindowPs = Simulator::kWindowPs;
  static constexpr std::int64_t kTier2SpanPs = Simulator::kTier2SpanPs;
  static constexpr std::int64_t kBucketPs = std::int64_t{1} << Simulator::kBucketShift;
  /// The re-anchor rule: tier 2's base, then the ring's, at or before
  /// the clock.
  static bool bases_behind_clock(const Simulator& sim) {
    return sim.base2_ps_ <= sim.base_ps_ && sim.base_ps_ <= sim.now_.ps();
  }
};

namespace {

using namespace rsf::sim::literals;

TEST(Simulator, StartsAtZeroAndIdle) {
  Simulator sim;
  EXPECT_EQ(sim.now(), SimTime::zero());
  EXPECT_TRUE(sim.idle());
  EXPECT_EQ(sim.pending(), 0u);
}

TEST(Simulator, RunsSingleEventAtItsTime) {
  Simulator sim;
  SimTime fired_at = SimTime::zero();
  sim.schedule_at(10_ns, [&] { fired_at = sim.now(); });
  EXPECT_EQ(sim.run_until(), 1u);
  EXPECT_EQ(fired_at, 10_ns);
  EXPECT_EQ(sim.now(), 10_ns);
}

TEST(Simulator, EventsFireInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule_at(30_ns, [&] { order.push_back(3); });
  sim.schedule_at(10_ns, [&] { order.push_back(1); });
  sim.schedule_at(20_ns, [&] { order.push_back(2); });
  sim.run_until();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(Simulator, SimultaneousEventsFireInScheduleOrder) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    sim.schedule_at(5_ns, [&order, i] { order.push_back(i); });
  }
  sim.run_until();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(Simulator, ScheduleAfterUsesCurrentTime) {
  Simulator sim;
  SimTime inner_fired = SimTime::zero();
  sim.schedule_at(10_ns, [&] {
    sim.schedule_after(5_ns, [&] { inner_fired = sim.now(); });
  });
  sim.run_until();
  EXPECT_EQ(inner_fired, 15_ns);
}

TEST(Simulator, SchedulingInThePastThrows) {
  Simulator sim;
  sim.schedule_at(10_ns, [] {});
  sim.run_until();
  EXPECT_THROW(sim.schedule_at(5_ns, [] {}), std::logic_error);
}

TEST(Simulator, EmptyHandlerThrows) {
  Simulator sim;
  EXPECT_THROW(sim.schedule_at(1_ns, EventHandler{}), std::invalid_argument);
}

TEST(Simulator, RunUntilHorizonStopsAndAdvancesClock) {
  Simulator sim;
  int fired = 0;
  sim.schedule_at(10_ns, [&] { ++fired; });
  sim.schedule_at(100_ns, [&] { ++fired; });
  EXPECT_EQ(sim.run_until(50_ns), 1u);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.now(), 10_ns);  // clock stays at last event, horizon not reached by idle
  EXPECT_EQ(sim.pending(), 1u);
  EXPECT_EQ(sim.run_until(100_ns), 1u);
  EXPECT_EQ(fired, 2);
}

TEST(Simulator, RunUntilInclusiveOfBoundary) {
  Simulator sim;
  int fired = 0;
  sim.schedule_at(50_ns, [&] { ++fired; });
  sim.run_until(50_ns);
  EXPECT_EQ(fired, 1);
}

TEST(Simulator, RunUntilAdvancesClockToHorizonWhenIdle) {
  Simulator sim;
  sim.run_until(1_us);
  EXPECT_EQ(sim.now(), 1_us);
}

TEST(Simulator, CancelPreventsExecution) {
  Simulator sim;
  int fired = 0;
  const EventId id = sim.schedule_at(10_ns, [&] { ++fired; });
  EXPECT_TRUE(sim.cancel(id));
  sim.run_until();
  EXPECT_EQ(fired, 0);
}

TEST(Simulator, CancelTwiceReturnsFalse) {
  Simulator sim;
  const EventId id = sim.schedule_at(10_ns, [] {});
  EXPECT_TRUE(sim.cancel(id));
  EXPECT_FALSE(sim.cancel(id));
}

TEST(Simulator, CancelAfterFireReturnsFalse) {
  Simulator sim;
  const EventId id = sim.schedule_at(10_ns, [] {});
  sim.run_until();
  EXPECT_FALSE(sim.cancel(id));
}

TEST(Simulator, CancelInvalidIdReturnsFalse) {
  Simulator sim;
  EXPECT_FALSE(sim.cancel(kInvalidEventId));
  EXPECT_FALSE(sim.cancel(12345));
}

TEST(Simulator, CancelledEventsDontBlockHorizon) {
  Simulator sim;
  int fired = 0;
  const EventId early = sim.schedule_at(10_ns, [&] { ++fired; });
  sim.schedule_at(100_ns, [&] { ++fired; });
  sim.cancel(early);
  // Horizon between the tombstone and the live event: nothing fires.
  EXPECT_EQ(sim.run_until(50_ns), 0u);
  EXPECT_EQ(fired, 0);
  EXPECT_EQ(sim.pending(), 1u);
  sim.run_until();
  EXPECT_EQ(fired, 1);
}

TEST(Simulator, SelfReschedulingEventTerminatesWithHorizon) {
  Simulator sim;
  int count = 0;
  std::function<void()> tick = [&] {
    ++count;
    sim.schedule_after(10_ns, tick);
  };
  sim.schedule_at(SimTime::zero(), tick);
  sim.run_until(95_ns);
  EXPECT_EQ(count, 10);  // t = 0,10,...,90
}

TEST(Simulator, ExecutedCounterAccumulates) {
  Simulator sim;
  for (int i = 0; i < 7; ++i) sim.schedule_at(SimTime::nanoseconds(i + 1), [] {});
  sim.run_until();
  EXPECT_EQ(sim.executed(), 7u);
}

TEST(Simulator, HandlerSchedulingAtCurrentInstantRuns) {
  Simulator sim;
  bool ran = false;
  sim.schedule_at(10_ns, [&] { sim.schedule_at(sim.now(), [&] { ran = true; }); });
  sim.run_until();
  EXPECT_TRUE(ran);
}

TEST(Simulator, WeakEventsDoNotKeepSimulationAlive) {
  Simulator sim;
  int weak_fired = 0;
  // A self-rescheduling weak ticker (like a controller epoch).
  std::function<void()> tick = [&] {
    ++weak_fired;
    sim.schedule_weak_after(10_ns, tick);
  };
  sim.schedule_weak_at(0_ns, tick);
  int strong_fired = 0;
  sim.schedule_at(35_ns, [&] { ++strong_fired; });
  // Unbounded run terminates once only the ticker remains; the ticker
  // ran while the strong event kept the simulation alive.
  sim.run_until();
  EXPECT_EQ(strong_fired, 1);
  EXPECT_EQ(weak_fired, 4);  // t = 0, 10, 20, 30
  EXPECT_TRUE(sim.idle());
  EXPECT_EQ(sim.pending_weak(), 1u);  // next tick still queued
}

TEST(Simulator, WeakEventsRunUnderFiniteHorizon) {
  Simulator sim;
  int fired = 0;
  sim.schedule_weak_at(10_ns, [&] { ++fired; });
  sim.run_until(20_ns);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.now(), 20_ns);
}

TEST(Simulator, OnlyWeakEventsMeansImmediateReturn) {
  Simulator sim;
  int fired = 0;
  sim.schedule_weak_at(10_ns, [&] { ++fired; });
  EXPECT_EQ(sim.run_until(), 0u);
  EXPECT_EQ(fired, 0);
}

TEST(Simulator, CancelWeakEvent) {
  Simulator sim;
  int fired = 0;
  const EventId id = sim.schedule_weak_at(10_ns, [&] { ++fired; });
  EXPECT_TRUE(sim.cancel(id));
  EXPECT_FALSE(sim.cancel(id));
  sim.run_until(1_us);
  EXPECT_EQ(fired, 0);
}

TEST(Simulator, WeakAndStrongInterleaveInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule_weak_at(10_ns, [&] { order.push_back(1); });
  sim.schedule_at(20_ns, [&] { order.push_back(2); });
  sim.schedule_weak_at(15_ns, [&] { order.push_back(3); });
  sim.run_until();
  EXPECT_EQ(order, (std::vector<int>{1, 3, 2}));
}

TEST(Simulator, ManyEventsStaySorted) {
  Simulator sim;
  SimTime last = SimTime::zero();
  bool monotonic = true;
  // Deliberately adversarial insertion order.
  for (int i = 999; i >= 0; --i) {
    sim.schedule_at(SimTime::nanoseconds((i * 7919) % 1000 + 1), [&] {
      if (sim.now() < last) monotonic = false;
      last = sim.now();
    });
  }
  EXPECT_EQ(sim.run_until(), 1000u);
  EXPECT_TRUE(monotonic);
}

// A handler that schedules more work at the *same* timestamp extends
// the drain with a follow-on batch at that instant: the new events run
// after everything already pending there, still in insertion order.
TEST(Simulator, SameTimestampFifoAcrossBatchBoundaries) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule_at(5_ns, [&] {
    order.push_back(0);
    // Scheduled mid-batch for the batch's own timestamp: these form a
    // second batch at 5 ns and must fire after tags 1 and 2.
    sim.schedule_at(5_ns, [&] { order.push_back(3); });
    sim.schedule_at(5_ns, [&] {
      order.push_back(4);
      // And a third batch, from inside the second.
      sim.schedule_at(5_ns, [&] { order.push_back(5); });
    });
  });
  sim.schedule_at(5_ns, [&] { order.push_back(1); });
  sim.schedule_at(5_ns, [&] { order.push_back(2); });
  EXPECT_EQ(sim.run_until(), 6u);
  EXPECT_EQ(sim.now(), 5_ns);
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4, 5}));
}

// Cancelling a later member of the batch being drained must take
// effect even though the victim was already extracted from the queue.
TEST(Simulator, CancelDuringBatchSuppressesLaterMember) {
  Simulator sim;
  std::vector<int> order;
  EventId victim = kInvalidEventId;
  sim.schedule_at(5_ns, [&] {
    order.push_back(0);
    EXPECT_TRUE(sim.cancel(victim));
  });
  sim.schedule_at(5_ns, [&] { order.push_back(1); });
  victim = sim.schedule_at(5_ns, [&] { order.push_back(2); });
  sim.schedule_at(5_ns, [&] { order.push_back(3); });
  EXPECT_EQ(sim.run_until(), 3u);
  EXPECT_EQ(order, (std::vector<int>{0, 1, 3}));
  EXPECT_EQ(sim.executed(), 3u);  // the cancelled member never counts
}

// A handler cancelling its own id observes false: the slot was
// recycled before invocation.
TEST(Simulator, HandlerCancellingItselfSeesFalse) {
  Simulator sim;
  EventId self = kInvalidEventId;
  bool self_cancel = true;
  self = sim.schedule_at(5_ns, [&] { self_cancel = sim.cancel(self); });
  sim.run_until();
  EXPECT_FALSE(self_cancel);
}

// Generation wrap: a record index whose generation counter wraps past
// the 32-bit limit keeps minting ids that stale correctly — an id from
// before the wrap can never cancel the index's post-wrap occupant.
// Each reuse is reached by firing: a fired record frees its index at
// once, where a cancelled one keeps it until the queue sweeps it.
TEST(Simulator, GenerationWrapKeepsStaleIdsStale) {
  Simulator sim;
  // Fire once so record 0 exists and is free, then pin its generation
  // to the wrap boundary.
  const EventId warm = sim.schedule_at(1_ns, [] {});
  const std::uint32_t slot = SimulatorTestPeer::slot_of(warm);
  EXPECT_EQ(sim.run_until(), 1u);
  SimulatorTestPeer::set_record_generation(sim, slot, 0xFFFFFFFFu);

  // The LIFO free list hands the same index back at the pinned
  // generation.
  const EventId pre_wrap = sim.schedule_at(2_ns, [] {});
  ASSERT_EQ(SimulatorTestPeer::slot_of(pre_wrap), slot);
  EXPECT_EQ(SimulatorTestPeer::generation_of(pre_wrap), 0xFFFFFFFFu);
  EXPECT_EQ(sim.run_until(), 1u);  // freeing wraps the counter to 0

  // One more schedule/fire moves the index to generation 1: `warm` was
  // minted at generation 0, and an exact generation collision after a
  // full wrap is the one alias the scheme cannot catch — the occupant
  // under test must sit at a fresh generation.
  const EventId mid = sim.schedule_at(3_ns, [] {});
  ASSERT_EQ(SimulatorTestPeer::slot_of(mid), slot);
  EXPECT_EQ(SimulatorTestPeer::generation_of(mid), 0u);
  EXPECT_EQ(sim.run_until(), 1u);

  bool fired = false;
  const EventId post_wrap = sim.schedule_at(4_ns, [&] { fired = true; });
  ASSERT_EQ(SimulatorTestPeer::slot_of(post_wrap), slot);
  EXPECT_EQ(SimulatorTestPeer::generation_of(post_wrap), 1u);

  // Every pre-wrap id is stale; none may touch the new occupant.
  EXPECT_FALSE(sim.cancel(pre_wrap));
  EXPECT_FALSE(sim.cancel(warm));
  EXPECT_FALSE(sim.cancel(mid));
  EXPECT_EQ(sim.run_until(), 1u);
  EXPECT_TRUE(fired);
}

// Cancelling a cold-arm event destroys its handler at once: captured
// state is released at cancel(), not when the queue later sweeps the
// tombstone.
TEST(Simulator, CancelReleasesColdHandlerCapturesAtOnce) {
  Simulator sim;
  auto owned = std::make_shared<int>(7);
  const std::weak_ptr<int> watch = owned;
  std::array<char, 2 * kInlineEventBytes> ballast{};
  const EventId id = sim.schedule_at(1_ms, [owned, ballast] { (void)ballast; });
  owned.reset();
  EXPECT_FALSE(watch.expired());
  EXPECT_TRUE(sim.cancel(id));
  EXPECT_TRUE(watch.expired());
  EXPECT_EQ(sim.run_until(), 0u);
}

// Events beyond the ring window land in tier 2 (up to ~4.3 ms out) or
// on the far list, and are promoted into the ring when it drains;
// their order and times are unaffected.
TEST(Simulator, FarFutureEventsPromoteThroughTiers) {
  Simulator sim;
  std::vector<int> order;
  std::vector<SimTime> at;
  const auto record = [&](int tag) {
    order.push_back(tag);
    at.push_back(sim.now());
  };
  // Far beyond the ~4.2 us window, deliberately out of order, with a
  // same-time pair in tier 2 and one on the far list to check seq
  // ordering survives promotion.
  sim.schedule_at(SimTime::milliseconds(20), [&] { record(5); });
  sim.schedule_at(SimTime::milliseconds(2), [&] { record(3); });
  sim.schedule_at(SimTime::milliseconds(1), [&] { record(1); });
  sim.schedule_at(SimTime::milliseconds(1), [&] { record(2); });
  sim.schedule_at(SimTime::milliseconds(20), [&] { record(6); });
  sim.schedule_at(SimTime::milliseconds(9), [&] { record(4); });
  sim.schedule_at(10_ns, [&] { record(0); });
  EXPECT_EQ(sim.run_until(), 7u);
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4, 5, 6}));
  EXPECT_EQ(at, (std::vector<SimTime>{10_ns, 1_ms, 1_ms, 2_ms, 9_ms, 20_ms, 20_ms}));
}

// Cancelled far-future events are tombstones in tier 2 and on the far
// list: they neither fire nor block the idle horizon.
TEST(Simulator, CancelledTier2AndFarEventsLeaveNoTrace) {
  Simulator sim;
  bool fired = false;
  const EventId tier2 = sim.schedule_at(SimTime::milliseconds(2), [&] { fired = true; });
  const EventId far = sim.schedule_at(SimTime::milliseconds(5), [&] { fired = true; });
  bool near_fired = false;
  sim.schedule_at(10_ns, [&] { near_fired = true; });
  EXPECT_TRUE(sim.cancel(tier2));
  EXPECT_TRUE(sim.cancel(far));
  EXPECT_EQ(sim.next_time(), 10_ns);
  EXPECT_EQ(sim.run_until(SimTime::milliseconds(10)), 1u);
  EXPECT_TRUE(near_fired);
  EXPECT_FALSE(fired);
  EXPECT_EQ(sim.now(), SimTime::milliseconds(10));
  EXPECT_EQ(sim.next_time(), SimTime::infinity());
}

// The ring window is [base, base + kWindowPs): an event at exactly the
// window's end is the first instant of tier 2's next bucket.
TEST(Simulator, EventAtExactWindowEdgeLandsInTier2) {
  constexpr std::int64_t kW = SimulatorTestPeer::kWindowPs;
  Simulator sim;
  std::vector<int> order;
  std::vector<std::int64_t> fired_ps;
  const auto at = [&](std::int64_t t, int tag) {
    sim.schedule_at(SimTime::picoseconds(t), [&, tag] {
      order.push_back(tag);
      fired_ps.push_back(sim.now().ps());
    });
  };
  at(kW + 1, 3);
  at(kW, 1);
  at(kW - 1, 0);
  at(kW, 2);
  EXPECT_EQ(sim.next_time().ps(), kW - 1);
  EXPECT_EQ(sim.run_until(SimTime::picoseconds(kW - 1)), 1u);
  EXPECT_EQ(sim.next_time().ps(), kW);
  EXPECT_EQ(sim.run_until(SimTime::picoseconds(kW)), 2u);
  EXPECT_EQ(sim.next_time().ps(), kW + 1);
  EXPECT_EQ(sim.run_until(), 1u);
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
  EXPECT_EQ(fired_ps, (std::vector<std::int64_t>{kW - 1, kW, kW, kW + 1}));
}

// Tier 2 spans [base2, base2 + kTier2SpanPs): an event at exactly the
// span's end goes to the far list and still fires in order, right
// after the last instant tier 2 holds.
TEST(Simulator, EventAtExactTier2SpanEdgeGoesFar) {
  constexpr std::int64_t kS = SimulatorTestPeer::kTier2SpanPs;
  Simulator sim;
  std::vector<std::int64_t> fired_ps;
  for (const std::int64_t t : {kS, kS + 1, kS - 1}) {
    sim.schedule_at(SimTime::picoseconds(t), [&] { fired_ps.push_back(sim.now().ps()); });
  }
  EXPECT_EQ(sim.next_time().ps(), kS - 1);
  EXPECT_EQ(sim.run_until(SimTime::picoseconds(kS - 1)), 1u);
  EXPECT_EQ(sim.next_time().ps(), kS);
  // A schedule into the ring window that tier 2's last bucket became
  // still sorts ahead of the far list.
  sim.schedule_at(SimTime::picoseconds(kS - 1), [&] { fired_ps.push_back(-1); });
  EXPECT_EQ(sim.run_until(), 3u);
  EXPECT_EQ(fired_ps, (std::vector<std::int64_t>{kS - 1, -1, kS, kS + 1}));
}

// A bounded run that stops between tiers must not re-anchor either
// base on its peek: a schedule that then lands before the far minimum
// (behind where a premature re-anchor would have put the bases) still
// finds its bucket and fires first.
TEST(Simulator, HorizonBetweenTiersNeverReAnchors) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule_at(500_us, [&] { order.push_back(0); });
  // Weak, so the clock parks at each horizon once the strong work is done.
  sim.schedule_weak_at(20_ms, [&] { order.push_back(4); });
  // A cancelled far event leaves the far list's lower bound stale, so
  // the 19 ms horizon below makes the kernel rescan the list.
  EXPECT_TRUE(sim.cancel(sim.schedule_at(12_ms, [&] { order.push_back(-1); })));
  // Stops with the ring and tier 2 drained, short of the far minimum.
  EXPECT_EQ(sim.run_until(2_ms), 1u);
  EXPECT_EQ(sim.now(), 2_ms);
  EXPECT_TRUE(SimulatorTestPeer::bases_behind_clock(sim));
  EXPECT_EQ(sim.next_time(), 20_ms);
  // Lands in tier 2, before the far minimum.
  sim.schedule_at(3_ms, [&] { order.push_back(2); });
  EXPECT_EQ(sim.next_time(), 3_ms);
  // Stops inside that event's tier-2 bucket, just short of it.
  EXPECT_EQ(sim.run_until(3_ms - 1_ns), 0u);
  EXPECT_EQ(sim.now(), 2_ms);  // strong work pending: the clock stays put
  EXPECT_TRUE(SimulatorTestPeer::bases_behind_clock(sim));
  // Lands ahead of both.
  sim.schedule_at(2_ms + 1_us, [&] { order.push_back(1); });
  EXPECT_EQ(sim.next_time(), 2_ms + 1_us);
  EXPECT_EQ(sim.run_until(19_ms), 2u);
  EXPECT_TRUE(SimulatorTestPeer::bases_behind_clock(sim));
  // Tier 2 is empty again: one more event before the far minimum.
  sim.schedule_at(SimTime::milliseconds(19.5), [&] { order.push_back(3); });
  EXPECT_EQ(sim.run_until(25_ms), 2u);
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
  EXPECT_EQ(sim.next_time(), SimTime::infinity());
}

// With every far event cancelled the kernel is idle; the tombstones
// must not resurface, and both levels take new near and far work.
TEST(Simulator, CancellingEveryFarEventLeavesTheKernelIdleAndReusable) {
  Simulator sim;
  int stale = 0;
  std::vector<EventId> ids;
  for (int ms : {1, 3, 6, 40, 900}) {
    ids.push_back(sim.schedule_at(SimTime::milliseconds(ms), [&] { ++stale; }));
  }
  ids.push_back(sim.schedule_weak_at(7_ms, [&] { ++stale; }));
  for (EventId id : ids) EXPECT_TRUE(sim.cancel(id));
  EXPECT_TRUE(sim.idle());
  EXPECT_EQ(sim.next_time(), SimTime::infinity());
  std::vector<SimTime> at;
  for (SimTime d : {5_ms, 1_ns, 10_ms, 100_us}) {
    sim.schedule_at(d, [&] { at.push_back(sim.now()); });
  }
  EXPECT_EQ(sim.next_time(), 1_ns);
  EXPECT_EQ(sim.run_until(), 4u);
  EXPECT_EQ(stale, 0);
  EXPECT_EQ(at, (std::vector<SimTime>{1_ns, 100_us, 5_ms, 10_ms}));
}

// One ring bucket, filled out of time order: the bucket keeps (time,
// seq) order, so every record earlier than the tail finds its place.
TEST(Simulator, OneRingBucketFiresOutOfOrderSchedulesInTimeOrder) {
  constexpr std::int64_t kB = SimulatorTestPeer::kBucketPs;
  static_assert(kB > 1500);
  Simulator sim;
  std::vector<std::pair<std::int64_t, int>> fired;
  int tag = 0;
  // Head, middle and tail insertions, and a tie behind an earlier seq.
  for (const std::int64_t ps : {std::int64_t{900}, std::int64_t{1500}, std::int64_t{200},
                                kB - 1, std::int64_t{900}, std::int64_t{0}, std::int64_t{1200},
                                std::int64_t{200}}) {
    const int t = tag++;
    sim.schedule_at(SimTime::picoseconds(ps), [&, t] { fired.emplace_back(sim.now().ps(), t); });
  }
  EXPECT_EQ(sim.run_until(), 8u);
  const std::vector<std::pair<std::int64_t, int>> expected = {
      {0, 5}, {200, 2}, {200, 7}, {900, 0}, {900, 4}, {1200, 6}, {1500, 1}, {kB - 1, 3}};
  EXPECT_EQ(fired, expected);
}

// Records promoted from tier 2 keep their older seq: at one instant
// they fire before a record scheduled into the ring after the
// promotion, and the tier-2 list's reverse order does not leak.
TEST(Simulator, PromotedRecordsKeepTheirSeqInARingBucket) {
  constexpr std::int64_t kW = SimulatorTestPeer::kWindowPs;
  Simulator sim;
  std::vector<int> order;
  const SimTime t = SimTime::picoseconds(kW + 100);
  sim.schedule_at(SimTime::picoseconds(kW + 10), [&] {
    order.push_back(0);
    // The bucket now holds the promoted records; these come later.
    sim.schedule_at(t, [&] { order.push_back(4); });
    sim.schedule_at(t - SimTime::picoseconds(50), [&] { order.push_back(1); });
  });
  for (int i = 0; i < 3; ++i) sim.schedule_at(t, [&order, i] { order.push_back(10 + i); });
  sim.schedule_at(t + SimTime::picoseconds(50), [&] { order.push_back(5); });
  EXPECT_EQ(sim.run_until(), 7u);
  EXPECT_EQ(order, (std::vector<int>{0, 1, 10, 11, 12, 4, 5}));
}

// Tombstones at a ring bucket's head, in its middle (inside an
// equal-time run, too) and at its tail: none fires, none moves the
// clock, and a record scheduled behind them still lands in order.
TEST(Simulator, TombstonesAnywhereInARingBucketNeitherFireNorMoveTheClock) {
  Simulator sim;
  std::vector<std::pair<std::int64_t, int>> fired;
  std::vector<EventId> ids;
  for (const std::int64_t ps : {100, 200, 300, 300, 300, 400, 500}) {
    const int t = static_cast<int>(ids.size());
    ids.push_back(sim.schedule_at(SimTime::picoseconds(ps),
                                  [&, t] { fired.emplace_back(sim.now().ps(), t); }));
  }
  EXPECT_TRUE(sim.cancel(ids[0]));  // head
  EXPECT_TRUE(sim.cancel(ids[3]));  // middle of the 300 ps run
  EXPECT_TRUE(sim.cancel(ids[6]));  // tail
  sim.schedule_at(SimTime::picoseconds(450), [&] { fired.emplace_back(sim.now().ps(), 7); });
  EXPECT_EQ(sim.next_time(), SimTime::picoseconds(200));
  // A horizon past the head tombstone but short of the first live
  // record: nothing fires and the clock stays put.
  EXPECT_EQ(sim.run_until(SimTime::picoseconds(150)), 0u);
  EXPECT_EQ(sim.now(), SimTime::zero());
  EXPECT_EQ(sim.run_until(SimTime::picoseconds(300)), 3u);
  EXPECT_EQ(sim.now(), SimTime::picoseconds(300));
  EXPECT_EQ(sim.run_until(), 2u);
  const std::vector<std::pair<std::int64_t, int>> expected = {
      {200, 1}, {300, 2}, {300, 4}, {400, 5}, {450, 7}};
  EXPECT_EQ(fired, expected);
  EXPECT_EQ(sim.now(), SimTime::picoseconds(450));
  EXPECT_EQ(sim.pending(), 0u);
  EXPECT_EQ(sim.next_time(), SimTime::infinity());
}

// Randomized oracle: the calendar kernel against a straightforward
// sorted-reference kernel, over a seeded op mix of schedules (same
// instant, in the ring, in tier 2, on the far list, weak; or all
// within one ring bucket of now), cancels (live and stale), and
// bounded runs. Execution order, cancel results,
// clocks, the next_time() peek and the executed counter must agree
// exactly.
struct RefEvent {
  std::int64_t time_ps;
  std::uint64_t seq;
  int tag;
  bool weak;
  bool alive;
};

struct RefKernel {
  std::vector<RefEvent> events;
  std::int64_t now_ps = 0;
  std::uint64_t next_seq = 1;  // the Simulator's first sequence number
  std::uint64_t executed = 0;

  std::size_t schedule(std::int64_t t, int tag, bool weak) {
    events.push_back(RefEvent{t, next_seq++, tag, weak, true});
    return events.size() - 1;
  }
  bool cancel(std::size_t ref_id) {
    if (!events[ref_id].alive) return false;
    events[ref_id].alive = false;
    return true;
  }
  bool strong_pending() const {
    return std::any_of(events.begin(), events.end(),
                       [](const RefEvent& e) { return e.alive && !e.weak; });
  }
  /// The earliest live event at or before `until_ps`, by (time, seq).
  RefEvent* earliest(std::int64_t until_ps) {
    RefEvent* best = nullptr;
    for (RefEvent& e : events) {
      if (!e.alive || e.time_ps > until_ps) continue;
      if (best == nullptr || e.time_ps < best->time_ps ||
          (e.time_ps == best->time_ps && e.seq < best->seq)) {
        best = &e;
      }
    }
    return best;
  }
  SimTime min_live_time() {
    const RefEvent* e = earliest(INT64_MAX);
    return e == nullptr ? SimTime::infinity() : SimTime::picoseconds(e->time_ps);
  }
  void run_until(std::int64_t until_ps, std::vector<int>& fired) {
    while (RefEvent* e = earliest(until_ps)) {
      now_ps = e->time_ps;
      e->alive = false;
      ++executed;
      fired.push_back(e->tag);
    }
    if (!strong_pending() && now_ps < until_ps) now_ps = until_ps;
  }
};

struct OracleMix {
  const char* name;
  std::uint32_t schedule_pct;  // share of ops that schedule
  std::uint32_t cancel_pct;    // share that cancel; the rest run
  bool far_heavy;              // draw delays from the beyond-ring set only
  std::int64_t dense_ps;       // when non-zero: every delay and horizon below this
};

void run_oracle(std::uint64_t seed, const OracleMix& mix) {
  SCOPED_TRACE(testing::Message() << "mix " << mix.name << ", seed " << seed);
  Simulator sim;
  RefKernel ref;
  std::vector<int> sim_fired;
  std::vector<int> ref_fired;
  std::vector<std::pair<EventId, std::size_t>> ids;  // (sim id, ref id)

  std::uint64_t rng = 0x9E3779B97F4A7C15ull * seed;
  const auto rand_u32 = [&rng] {
    rng ^= rng << 13;
    rng ^= rng >> 7;
    rng ^= rng << 17;
    return static_cast<std::uint32_t>(rng >> 32);
  };
  const auto expect_peek_agrees = [&](int round) {
    ASSERT_EQ(sim.next_time(), ref.min_live_time()) << "round " << round;
  };

  // Same instant and in the ring; then 10 and 60 us (tier 2), 5 ms
  // (tier 2 or far, depending on the base), 50 ms and 1 s (far).
  static constexpr std::int64_t kDelaysPs[] = {
      0, 100, 4096, 50000, 10'000'000, 60'000'000, 5'000'000'000, 50'000'000'000,
      1'000'000'000'000};
  static constexpr std::size_t kDelayCount = std::size(kDelaysPs);
  static constexpr std::size_t kFirstBeyondRing = 4;

  int next_tag = 0;
  for (int round = 0; round < 400; ++round) {
    const std::uint32_t op = rand_u32() % 100;
    if (op < mix.schedule_pct) {
      const std::size_t d = mix.far_heavy
                                ? kFirstBeyondRing + rand_u32() % (kDelayCount - kFirstBeyondRing)
                                : rand_u32() % kDelayCount;
      const std::int64_t delay =
          mix.dense_ps != 0 ? static_cast<std::int64_t>(rand_u32()) % mix.dense_ps : kDelaysPs[d];
      const SimTime when = sim.now() + SimTime::picoseconds(delay);
      const bool weak = rand_u32() % 4 == 0;
      const int tag = next_tag++;
      EventId id;
      if (weak) {
        id = sim.schedule_weak_at(when, [&sim_fired, tag] { sim_fired.push_back(tag); });
      } else {
        id = sim.schedule_at(when, [&sim_fired, tag] { sim_fired.push_back(tag); });
      }
      ids.emplace_back(id, ref.schedule(when.ps(), tag, weak));
    } else if (op < mix.schedule_pct + mix.cancel_pct) {
      if (ids.empty()) continue;
      // Cancel a random id — may be live, fired, or already cancelled.
      // Half the picks favour the most recent ids, which are likely
      // still pending, so tombstones pile up in every level.
      const std::size_t pick = rand_u32() % 2 == 0
                                   ? ids.size() - 1 - rand_u32() % std::min<std::size_t>(ids.size(), 8)
                                   : rand_u32() % ids.size();
      const auto& [sim_id, ref_id] = ids[pick];
      EXPECT_EQ(sim.cancel(sim_id), ref.cancel(ref_id));
    } else {
      // Horizons from within the ring to well past the far list.
      static constexpr std::int64_t kHorizonPs[] = {20'000'000, 10'000'000'000,
                                                    2'000'000'000'000};
      // A dense mix advances a quarter bucket at most per run, so about
      // two dozen records stay pending within a bucket or two.
      const std::int64_t h = mix.dense_ps != 0 ? mix.dense_ps / 4 : kHorizonPs[rand_u32() % 3];
      const SimTime until = sim.now() + SimTime::picoseconds(
                                            static_cast<std::int64_t>(rand_u32()) % h);
      expect_peek_agrees(round);
      sim.run_until(until);
      ref.run_until(until.ps(), ref_fired);
      ASSERT_EQ(sim.now().ps(), ref.now_ps) << "round " << round;
      ASSERT_EQ(sim_fired, ref_fired) << "round " << round;
      ASSERT_TRUE(SimulatorTestPeer::bases_behind_clock(sim)) << "round " << round;
      expect_peek_agrees(round);
    }
  }
  sim.run_until(sim.now() + SimTime::seconds(1));
  ref.run_until(sim.now().ps(), ref_fired);
  EXPECT_EQ(sim_fired, ref_fired);
  EXPECT_EQ(sim.executed(), ref.executed);
  EXPECT_EQ(sim.pending(), 0u);
}

TEST(Simulator, RandomizedOracleAgainstSortedReference) {
  static constexpr OracleMix kMixes[] = {
      {"balanced", 60, 20, false, 0},
      {"far-and-cancel-heavy", 45, 40, true, 0},
      // Many records in one 2 ns ring bucket, out of order, with
      // cancels: bucket order, head tombstones and equal-time runs.
      {"dense-bucket", 65, 25, false, SimulatorTestPeer::kBucketPs},
  };
  for (const OracleMix& mix : kMixes) {
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
      run_oracle(seed, mix);
      if (testing::Test::HasFatalFailure()) return;
    }
  }
}

}  // namespace
}  // namespace rsf::sim
