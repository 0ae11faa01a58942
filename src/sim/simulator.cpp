#include "sim/simulator.hpp"

#include <bit>
#include <memory>
#include <stdexcept>

namespace rsf::sim {

Simulator::Simulator() {
  heads_.fill(kNilIndex);
  heads2_.fill(kNilIndex);
  batch_.reserve(16);
}

Simulator::~Simulator() { ::operator delete(record_block_); }

void Simulator::grow_records() {
  const std::uint32_t capacity = record_capacity_ == 0 ? 64 : record_capacity_ * 2;
  const std::size_t bytes = std::size_t{capacity} * sizeof(EventRecord);
  std::size_t space = bytes + alignof(EventRecord) - 1;
  void* const block = ::operator new(space);
  void* aligned = block;
  std::align(alignof(EventRecord), bytes, aligned, space);
  auto* records = static_cast<EventRecord*>(aligned);
  // Records are trivially copyable: growth is a plain byte copy.
  if (record_count_ != 0) {
    std::memcpy(static_cast<void*>(records), records_, record_count_ * sizeof(EventRecord));
  }
  ::operator delete(record_block_);
  record_block_ = block;
  records_ = records;
  record_capacity_ = capacity;
}

void Simulator::throw_empty_handler() {
  throw std::invalid_argument("Simulator::schedule_at: empty handler");
}

void Simulator::throw_past_time(SimTime when) const {
  throw std::logic_error("Simulator::schedule_at: time " + when.to_string() +
                         " precedes now " + now_.to_string());
}

// Out of line: only schedules past the ring window and the far-list
// redistribution come here.
void Simulator::link_beyond_ring(std::uint32_t index, SimTime when) {
  const std::int64_t rel2 = when.ps() - base2_ps_;
  if (rel2 < kTier2SpanPs) {
    const auto b = static_cast<std::size_t>(rel2 >> kWindowShift);
    record_next_[index] = heads2_[b];
    heads2_[b] = index;
    occupied2_[b >> 6] |= std::uint64_t{1} << (b & 63);
    ++tier2_count_;
  } else {
    record_next_[index] = far_head_;
    far_head_ = index;
    if (when < far_min_) far_min_ = when;
  }
}

bool Simulator::cancel(EventId id) {
  // An invalid id wraps to an index past any slab.
  const std::uint64_t index = (id >> 32) - 1;
  if (index >= record_count_) return false;
  EventRecord& rec = records_[index];
  if (!rec.live || rec.generation != static_cast<std::uint32_t>(id)) return false;
  rec.live = false;
  --(rec.weak ? weak_count_ : strong_count_);
  if (rec.invoke == nullptr) handlers_.recycle(cold_handler_index(rec));
  return true;
}

bool Simulator::next_batch(SimTime until) {
  for (;;) {
    if (ring_count_ == 0 && !promote_tier2(until)) return false;
    // Sole-record fast path: with exactly one record in the ring it is
    // the earliest by definition and the head of its bucket — no scan.
    std::size_t b;
    if (sole_ring_index_ != kNilIndex) {
      b = static_cast<std::size_t>((records_[sole_ring_index_].time.ps() - base_ps_) >>
                                   kBucketShift);
    } else {
      std::size_t word = scan_word_;
      while (occupied_[word] == 0) ++word;
      scan_word_ = word;
      b = (word << 6) + static_cast<std::size_t>(std::countr_zero(occupied_[word]));
    }
    // The bucket is sorted: past the tombstones at its head, the head is
    // the minimum and the batch is its run of equal-time records
    // (tombstones inside the run ride along; drain_one frees them).
    std::uint32_t index = heads_[b];
    while (index != kNilIndex && !records_[index].live) {
      const std::uint32_t next = record_next_[index];
      free_record_index(index);
      --ring_count_;
      index = next;
    }
    if (index == kNilIndex) {
      heads_[b] = kNilIndex;
      occupied_[b >> 6] &= ~(std::uint64_t{1} << (b & 63));
      continue;
    }
    const SimTime time = records_[index].time;
    if (time > until) {
      heads_[b] = index;
      return false;
    }
    batch_.clear();
    batch_cursor_ = 0;
    do {
      batch_.push_back(index);
      --ring_count_;
      index = record_next_[index];
    } while (index != kNilIndex && records_[index].time == time);
    heads_[b] = index;
    if (index == kNilIndex) occupied_[b >> 6] &= ~(std::uint64_t{1} << (b & 63));
    now_ = time;
    batch_time_ = time;
    return true;
  }
}

void Simulator::insert_before_tail(std::size_t b, std::uint32_t index) {
  std::uint32_t* link = &heads_[b];
  while (!fires_before(index, *link)) link = &record_next_[*link];
  record_next_[index] = *link;
  *link = index;
}

SimTime Simulator::sweep_tombstones(std::uint32_t& head, std::size_t& freed) {
  SimTime min_time = SimTime::infinity();
  std::uint32_t index = head;
  std::uint32_t prev = kNilIndex;
  while (index != kNilIndex) {
    const std::uint32_t next = record_next_[index];
    const EventRecord& rec = records_[index];
    if (!rec.live) {
      (prev == kNilIndex ? head : record_next_[prev]) = next;
      free_record_index(index);
      ++freed;
    } else {
      if (rec.time < min_time) min_time = rec.time;
      prev = index;
    }
    index = next;
  }
  return min_time;
}

bool Simulator::promote_tier2(SimTime until) {
  // The ring is empty; its successor is the lowest occupied tier-2
  // bucket, exactly one window wide.
  for (;;) {
    if (tier2_count_ == 0 && !refill_tier2(until)) return false;
    std::size_t word = 0;
    while (occupied2_[word] == 0) ++word;
    const std::size_t b =
        (word << 6) + static_cast<std::size_t>(std::countr_zero(occupied2_[word]));
    const std::int64_t start = base2_ps_ + (static_cast<std::int64_t>(b) << kWindowShift);
    if (start > until.ps()) return false;  // the whole bucket lies past the horizon
    std::size_t freed = 0;
    const SimTime min_time = sweep_tombstones(heads2_[b], freed);
    tier2_count_ -= freed;
    if (heads2_[b] == kNilIndex) {
      occupied2_[b >> 6] &= ~(std::uint64_t{1} << (b & 63));
      continue;
    }
    // Peeking alone must not re-anchor: base_ps_ may never pass now_,
    // or a schedule between them would compute a negative bucket.
    if (min_time > until) return false;
    // Committed to executing at min_time: the ring window becomes this
    // bucket, and every record in it moves by relinking.
    base_ps_ = start;
    std::uint32_t index = heads2_[b];
    heads2_[b] = kNilIndex;
    occupied2_[b >> 6] &= ~(std::uint64_t{1} << (b & 63));
    while (index != kNilIndex) {
      const std::uint32_t next = record_next_[index];
      link_ring(index, records_[index].time.ps() - base_ps_);
      --tier2_count_;
      index = next;
    }
    return true;
  }
}

bool Simulator::refill_tier2(SimTime until) {
  // Tier 2 is empty too. Only now is the far list rescanned: sweep its
  // tombstones and find its earliest live time.
  if (far_head_ == kNilIndex || far_min_ > until) return false;
  std::size_t freed = 0;
  far_min_ = sweep_tombstones(far_head_, freed);
  if (far_head_ == kNilIndex || far_min_ > until) return false;
  // Committed (the minimum is within the horizon): re-anchor tier 2 on
  // the minimum's window and redistribute — what now fits goes into
  // tier 2, the rest back onto the far list.
  base2_ps_ = (far_min_.ps() >> kWindowShift) << kWindowShift;
  std::uint32_t index = far_head_;
  far_head_ = kNilIndex;
  far_min_ = SimTime::infinity();
  while (index != kNilIndex) {
    const std::uint32_t next = record_next_[index];
    link_beyond_ring(index, records_[index].time);
    index = next;
  }
  return true;
}

std::size_t Simulator::drain_one() {
  const std::uint32_t index = batch_[batch_cursor_++];
  // Freed before the handler runs, so a handler cancelling its own id
  // sees false and a chained reschedule reuses this index. `rec` stays
  // valid until then: freeing touches only its header and the free list.
  EventRecord& rec = records_[index];
  const bool live = rec.live;
  free_record_index(index);
  if (!live) return 0;  // cancelled while batched
  --(rec.weak ? weak_count_ : strong_count_);
  ++executed_;
  if (rec.invoke != nullptr) {
    // The trampoline copies the functor off the slab before running
    // it; no user code touches the record between here and that copy.
    rec.invoke(rec.payload);
  } else {
    // Move the handler out before recycling and invoking: the handler
    // may schedule cold events and grow the pool mid-call.
    const std::uint32_t slot = cold_handler_index(rec);
    EventHandler fn = std::move(handlers_[slot]);
    handlers_.recycle(slot);
    fn();
  }
  return 1;
}

// Flattened: the per-event loop must not pay call prologues for
// next_batch/drain_one on every event.
__attribute__((flatten)) std::size_t Simulator::run_until(SimTime until) {
  const bool unbounded = until == SimTime::infinity();
  std::size_t count = 0;
  for (;;) {
    if (unbounded && strong_count_ == 0) break;
    if (batch_cursor_ < batch_.size()) {
      if (batch_time_ > until) break;  // resumed batch beyond this horizon
    } else if (!next_batch(until)) {
      break;
    }
    count += drain_one();
  }
  if (strong_count_ == 0 && !unbounded && now_ < until) {
    now_ = until;
  }
  return count;
}

SimTime Simulator::next_time() const {
  // An in-flight batch resumes first: any live remainder runs at
  // batch_time_, which is <= every still-queued time.
  for (std::size_t c = batch_cursor_; c < batch_.size(); ++c) {
    if (records_[batch_[c]].live) return batch_time_;
  }
  // Then ring, tier 2, far list: every level lies wholly after the one
  // before it, so the first level holding a live record holds the
  // minimum.
  SimTime best = SimTime::infinity();
  if (ring_count_ != 0) {
    best = first_live_time(heads_, occupied_, scan_word_);
    if (best != SimTime::infinity()) return best;
  }
  if (tier2_count_ != 0) {
    best = first_live_time(heads2_, occupied2_, 0);
    if (best != SimTime::infinity()) return best;
  }
  for (std::uint32_t index = far_head_; index != kNilIndex; index = record_next_[index]) {
    const EventRecord& rec = records_[index];
    if (rec.live && rec.time < best) best = rec.time;
  }
  return best;
}

template <std::size_t N>
SimTime Simulator::first_live_time(const std::array<std::uint32_t, N>& heads,
                                   const std::array<std::uint64_t, N / 64>& occupied,
                                   std::size_t word) const {
  // Earliest occupied bucket first. Buckets partition the level by
  // time, so the first bucket holding a live record contains the
  // level's minimum. Tombstone-only buckets are skipped, not swept —
  // this is a const peek.
  SimTime best = SimTime::infinity();
  for (; word < occupied.size(); ++word) {
    std::uint64_t bits = occupied[word];
    while (bits != 0) {
      const auto b = (word << 6) + static_cast<std::size_t>(std::countr_zero(bits));
      bits &= bits - 1;
      for (std::uint32_t index = heads[b]; index != kNilIndex; index = record_next_[index]) {
        const EventRecord& rec = records_[index];
        if (rec.live && rec.time < best) best = rec.time;
      }
      if (best != SimTime::infinity()) return best;
    }
  }
  return best;
}

}  // namespace rsf::sim
