// rsf::sim — the discrete-event simulation kernel.
//
// A Simulator owns the future-event set and the simulation clock.
// Components schedule closures at absolute or relative times; run()
// drains events in (time, insertion-sequence) order. The kernel is
// single-threaded: determinism is a design requirement because every
// experiment in the benchmark suite must be re-runnable bit-for-bit.
//
// Internally the future-event set is a three-level calendar of
// trivially copyable EventRecords (see event.hpp). Every record lives
// in one grow-only, cache-line aligned slab (recycled through a free
// list) and each level is a set of intrusive singly linked lists
// threaded through the slab, so a bucket is just a head index —
// constructing a Simulator allocates no records, steady-state
// scheduling reuses slab slots, and no level ever copies a record:
//
//  - **Calendar ring.** 2048 buckets of 2^11 ps (~2 ns) cover a ~4.2 µs
//    window from base_ps_. Each bucket is kept in (time, seq) order: a
//    record not earlier than its tail (any same-instant or in-order
//    schedule) appends in O(1); an earlier one walks to its place.
//  - **Tier 2.** 1024 unsorted buckets, each one ring window (2^22 ps)
//    wide, cover ~4.3 ms from base2_ps_. The ring window is always one
//    tier-2 bucket, so when the ring drains the lowest occupied tier-2
//    bucket is relinked into it whole: each event is promoted once.
//  - **Far list.** One unsorted list for everything beyond tier 2
//    (watchdogs, far-future epochs). It is rescanned only when tier 2
//    is empty, to re-anchor base2_ps_ at its minimum and distribute
//    what now fits into tier 2.
//  - **Re-anchor rule.** A base moves only once the kernel has
//    committed to executing an event in the range it newly covers —
//    never on a peek or a run that stops short — so neither base
//    passes now_ and a schedule at or after now_ always finds its
//    level and bucket.
//  - **Liveness in the record.** EventId packs {slab index+1,
//    generation}, so cancel() is a bounds check plus a live +
//    generation compare on the record — no hashing, no side table. It
//    leaves a tombstone, freed at its ring bucket's head or in a sweep
//    of its tier-2 bucket or the far list; freeing bumps the generation.
//    Cold-arm handlers wait in a small pool, indexed from the payload.
//  - **Batch drain.** Once the tombstones at the earliest occupied
//    ring bucket's head are freed, the head's run of equal-time records
//    (in insertion-sequence order already) is the batch: the clock
//    advances once and the batch fires in order, with no sort.
//    Handlers scheduling at now() extend the drain with a follow-on
//    batch at the same instant.
//
// The (time, insertion-sequence) total order is what callers observe;
// bucket layout and batch boundaries are invisible to it. Handlers
// must not re-enter run_until().
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/slot_pool.hpp"
#include "sim/event.hpp"
#include "sim/time.hpp"

namespace rsf::sim {

class Simulator {
 public:
  Simulator();
  ~Simulator();
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Current simulation time. Starts at zero.
  [[nodiscard]] SimTime now() const { return now_; }

  /// Schedule a callable to run at absolute time `when`.
  /// `when` must not precede now(); scheduling in the past is a logic
  /// error and throws. Small trivially copyable callables are stored
  /// inline in the event record (no allocation); anything else takes
  /// the cold EventHandler arm. An empty handler throws.
  template <typename F>
  EventId schedule_at(SimTime when, F&& f) {
    return schedule_arm(when, std::forward<F>(f), /*weak=*/false);
  }

  /// Schedule a callable to run `delay` after the current time.
  template <typename F>
  EventId schedule_after(SimTime delay, F&& f) {
    return schedule_arm(now_ + delay, std::forward<F>(f), /*weak=*/false);
  }

  /// Weak events do not keep the simulation alive: run_until() with no
  /// horizon stops once only weak events remain. Periodic background
  /// activities (controller epochs, BER drivers, watchdogs) schedule
  /// weak so "run until the workload drains" terminates naturally.
  template <typename F>
  EventId schedule_weak_at(SimTime when, F&& f) {
    return schedule_arm(when, std::forward<F>(f), /*weak=*/true);
  }
  template <typename F>
  EventId schedule_weak_after(SimTime delay, F&& f) {
    return schedule_arm(now_ + delay, std::forward<F>(f), /*weak=*/true);
  }

  /// Cancel a previously scheduled event. Returns true if the event was
  /// pending (it will no longer fire); false if it already fired, was
  /// already cancelled, or never existed. Cancellation is O(1): the
  /// record becomes a tombstone and a cold handler is destroyed at once.
  bool cancel(EventId id);

  /// Run until the event set is empty or `until` is reached (events at
  /// exactly `until` DO fire). Returns the number of events processed.
  std::size_t run_until(SimTime until = SimTime::infinity());

  /// True if no live *strong* events remain (weak events do not count).
  [[nodiscard]] bool idle() const { return strong_count_ == 0; }

  /// Number of live pending strong events.
  [[nodiscard]] std::size_t pending() const { return strong_count_; }
  /// Number of live pending weak events.
  [[nodiscard]] std::size_t pending_weak() const { return weak_count_; }

  /// Total events executed since construction.
  [[nodiscard]] std::uint64_t executed() const { return executed_; }

  /// Time of the earliest live pending event (strong or weak), or
  /// infinity when none remain. A pure peek: no batch is formed, no
  /// window re-anchor is committed (tombstones are skipped, not
  /// reclaimed).
  [[nodiscard]] SimTime next_time() const;

 private:
  friend struct SimulatorTestPeer;

  // Calendar geometry: 2048 buckets of 2^11 ps give a ~4.2 us window,
  // matching the sub-us inter-event gaps of the packet paths. The ring
  // is a flat window [base_ps_, base_ps_ + kWindowPs) — it only
  // re-anchors when empty, so buckets never wrap. Tier 2 is 1024
  // buckets of one window each.
  static constexpr int kBucketShift = 11;  // 2^11 ps ≈ 2 ns per bucket
  static constexpr std::size_t kRingBuckets = 2048;
  static constexpr std::size_t kTier2Buckets = 1024;
  static constexpr int kWindowShift = 22;
  static constexpr std::int64_t kWindowPs = std::int64_t{1} << kWindowShift;
  static constexpr std::int64_t kTier2SpanPs =
      static_cast<std::int64_t>(kTier2Buckets) << kWindowShift;
  static_assert(kWindowPs == static_cast<std::int64_t>(kRingBuckets) << kBucketShift);

  template <typename F>
  EventId schedule_arm(SimTime when, F&& f, bool weak) {
    using Fn = std::decay_t<F>;
    if constexpr (is_inline_event_v<Fn>) {
      if constexpr (std::is_convertible_v<const Fn&, bool>) {
        if (!static_cast<bool>(f)) throw_empty_handler();
      }
      // The record is built in its final storage: acquire writes the
      // header, the payload is placement-new'd directly into the slab.
      EventRecord& rec = acquire_record(when, weak);
      ::new (static_cast<void*>(rec.payload)) Fn(std::forward<F>(f));
      rec.invoke = [](void* payload) {
        // Copy out before running: the trampoline knows sizeof(Fn), so
        // it copies just the functor (not the whole payload), and the
        // handler may then schedule, growing or reusing the slab
        // behind `payload`.
        Fn fn = *std::launder(reinterpret_cast<Fn*>(payload));
        fn();
      };
      return encode_id(rec);
    } else {
      return schedule_cold(when, EventHandler(std::forward<F>(f)), weak);
    }
  }

  static constexpr std::uint32_t kNilIndex = 0xFFFFFFFFu;

  // Defined below the class: the whole schedule fast path is in the
  // header so every call site inlines it — scheduling an event must
  // not cost a cross-TU call.
  EventId schedule_cold(SimTime when, EventHandler handler, bool weak);
  EventRecord& acquire_record(SimTime when, bool weak);
  /// Links slab record `index` (time and seq set) into its ring bucket
  /// in (time, seq) order; `rel` is its time minus base_ps_.
  void link_ring(std::uint32_t index, std::int64_t rel) {
    const auto b = static_cast<std::size_t>(rel >> kBucketShift);
    if (heads_[b] != kNilIndex && fires_before(index, tails_[b])) {
      insert_before_tail(b, index);
    } else {
      record_next_[index] = kNilIndex;
      (heads_[b] == kNilIndex ? heads_[b] : record_next_[tails_[b]]) = index;
      tails_[b] = index;
      occupied_[b >> 6] |= std::uint64_t{1} << (b & 63);
      if ((b >> 6) < scan_word_) scan_word_ = b >> 6;
    }
    sole_ring_index_ = ring_count_ == 0 ? index : kNilIndex;
    ++ring_count_;
  }
  bool fires_before(std::uint32_t a, std::uint32_t b) const {
    const EventRecord &x = records_[a], &y = records_[b];
    return x.time < y.time || (x.time == y.time && x.seq < y.seq);
  }
  /// Walks ring bucket `b` to the place of `index`, earlier than its tail.
  void insert_before_tail(std::size_t b, std::uint32_t index);
  /// Pushes slab record `index`, due at `when` past the ring window,
  /// onto its tier-2 bucket or the far list.
  void link_beyond_ring(std::uint32_t index, SimTime when);
  [[noreturn]] static void throw_empty_handler();
  [[noreturn]] void throw_past_time(SimTime when) const;

  bool next_batch(SimTime until);
  /// Unlinks and frees the tombstones of the unsorted list at `head`
  /// (a tier-2 bucket or the far list), counting them into `freed`;
  /// returns the earliest live time left (infinity when none is).
  SimTime sweep_tombstones(std::uint32_t& head, std::size_t& freed);
  bool promote_tier2(SimTime until);
  bool refill_tier2(SimTime until);
  template <std::size_t N>
  SimTime first_live_time(const std::array<std::uint32_t, N>& heads,
                          const std::array<std::uint64_t, N / 64>& occupied,
                          std::size_t word) const;
  std::size_t drain_one();

  /// The record-slab free list is threaded through record_next_ like
  /// every queue level, so freeing a record never allocates — however
  /// many tombstones a run leaves behind. Reuse is LIFO. Freeing clears
  /// `live` and bumps the generation: every id minted for it goes stale.
  std::uint32_t claim_record_index() {
    if (record_free_ != kNilIndex) {
      const std::uint32_t index = record_free_;
      record_free_ = record_next_[index];
      return index;
    }
    if (record_count_ == record_capacity_) grow_records();
    const std::uint32_t index = record_count_++;
    records_[index].generation = 0;
    records_[index].live = false;
    record_next_.emplace_back();
    return index;
  }
  /// Doubles the slab (64 records at first): a fresh block from plain
  /// operator new, aligned by hand to a cache line. Over-aligned
  /// operator new goes through memalign, which bypasses the
  /// allocator's thread cache and made slab growth a set-up cost.
  void grow_records();
  void free_record_index(std::uint32_t index) {
    records_[index].live = false;
    ++records_[index].generation;
    record_next_[index] = record_free_;
    record_free_ = index;
  }

  static std::uint32_t cold_handler_index(const EventRecord& rec) {
    std::uint32_t slot;
    std::memcpy(&slot, rec.payload, sizeof slot);
    return slot;
  }
  EventId encode_id(const EventRecord& rec) const {
    const auto index = static_cast<EventId>(&rec - records_);
    return (index + 1) << 32 | rec.generation;
  }

  SimTime now_ = SimTime::zero();
  std::uint64_t next_seq_ = 1;
  std::uint64_t executed_ = 0;
  std::size_t strong_count_ = 0;
  std::size_t weak_count_ = 0;

  // Handlers of pending cold-arm events. A handler leaves the pool when
  // its event fires or is cancelled, so the pool holds peak cold
  // concurrency and recycles.
  core::SlotPool<EventHandler> handlers_;

  // The record slab: every pending record (and tombstone) lives here,
  // threaded into its level's singly linked lists (or the free list)
  // via record_next_. records_ is the 64-byte aligned start inside
  // record_block_, which owns the allocation.
  void* record_block_ = nullptr;
  EventRecord* records_ = nullptr;
  std::uint32_t record_count_ = 0;
  std::uint32_t record_capacity_ = 0;
  std::vector<std::uint32_t> record_next_;
  std::uint32_t record_free_ = kNilIndex;  // head of the free list
  std::array<std::uint32_t, kRingBuckets> heads_, tails_;  // tail read only if non-empty
  // One bit per non-empty bucket; the next candidate bucket is the
  // lowest set bit (buckets below it were drained). scan_word_ is
  // a lower bound on the first non-zero word: every word below it is
  // zero. Scans advance it past zeros; inserts pull it back down.
  std::array<std::uint64_t, kRingBuckets / 64> occupied_{};
  std::size_t scan_word_ = 0;
  std::int64_t base_ps_ = 0;        // ring window origin, a tier-2 bucket start
  std::size_t ring_count_ = 0;      // records (live + tombstone) in the ring
  // While ring_count_ == 1, the slab index of that one record, or
  // kNilIndex if others have left (read only while the ring is not
  // empty). Chained workloads — one pending event at a time — spend
  // their whole life in this state, and next_batch() then skips the
  // bitmap scan outright.
  std::uint32_t sole_ring_index_ = kNilIndex;

  // Tier 2: window-wide buckets over [base2_ps_, base2_ps_ +
  // kTier2SpanPs); every occupied one lies later than the ring window.
  std::array<std::uint32_t, kTier2Buckets> heads2_;
  std::array<std::uint64_t, kTier2Buckets / 64> occupied2_{};
  std::int64_t base2_ps_ = 0;       // tier-2 origin, window-aligned
  std::size_t tier2_count_ = 0;     // records (live + tombstone) in tier 2
  // The far list, past tier 2. far_min_ is a lower bound on its
  // earliest live time (cancels only raise the true minimum), so a
  // bounded run stops short of it without rescanning.
  std::uint32_t far_head_ = kNilIndex;
  SimTime far_min_ = SimTime::infinity();

  // The batch being drained: slab indices of all records at
  // batch_time_, in insertion order. Persists across run_*() calls so
  // a run that stops mid-batch (event budget, weak-only break) resumes
  // exactly where it left off.
  std::vector<std::uint32_t> batch_;
  std::size_t batch_cursor_ = 0;
  SimTime batch_time_ = SimTime::zero();
};

inline EventRecord& Simulator::acquire_record(SimTime when, bool weak) {
  if (when < now_) throw_past_time(when);
  ++(weak ? weak_count_ : strong_count_);
  const std::uint32_t index = claim_record_index();
  EventRecord& rec = records_[index];
  rec.time = when;
  rec.seq = next_seq_++;
  rec.live = true;
  rec.weak = weak;
  const std::int64_t rel = when.ps() - base_ps_;
  if (rel < kWindowPs) {
    link_ring(index, rel);
  } else {
    link_beyond_ring(index, when);
  }
  return rec;
}

inline EventId Simulator::schedule_cold(SimTime when, EventHandler handler, bool weak) {
  if (!handler) throw_empty_handler();
  EventRecord& rec = acquire_record(when, weak);
  const std::uint32_t slot = handlers_.claim().index;
  // The pool's slot is empty (recycle clears it), so a swap is a plain
  // member exchange — no construct-and-swap temporary.
  handlers_[slot].swap(handler);
  rec.invoke = nullptr;
  std::memcpy(rec.payload, &slot, sizeof slot);
  return encode_id(rec);
}

}  // namespace rsf::sim
