// rsf::core — the shared dense-slot free-list pool.
//
// SlotPool<T> is the one implementation of the recycled-slot idiom the
// hot paths rely on: Network flow, probe-completion and packet slots,
// Interconnect booking slots, FleetRuntime flow and
// packet slots and the Simulator's cold-handler pool. Storage is a dense
// std::vector<T> addressed by small integer indices; freed slots
// return to a LIFO free list, so claim() reuses the most recently
// recycled slot — churning millions of short-lived objects holds the
// pool at its peak concurrency, and the LIFO order
// keeps recycled-index sequences (and therefore whole simulations)
// bit-for-bit identical to the hand-rolled pools this replaces.
//
// Staleness is detected by generation: every slot carries a counter
// bumped at recycle, and claim() returns a {index, generation} Handle.
// A closure (or an externally held versioned handle like
// SpineBookingHandle) that captured a handle outliving its slot
// fails is_live() / get_live() instead of corrupting the slot's next
// occupant. The generation wraps at its type's limit; staleness
// checks are pure equality, so the wrap is benign (only an exact
// generation collision after a full wrap of one slot could alias —
// pick a wider Gen where closures can outlive 2^32 recycles).
//
// Recycle ordering contract: recycle() resets the slot to T{} and
// pushes it on the free list *before* the caller runs any completion
// callback, so a callback that immediately claims again (a chained
// relaunch) reuses the very slot that just drained. Every migrated
// call site follows recycle-before-callback; a future fix to that
// ordering lands here, once.
//
// Gate policy: pools whose slots drain asynchronously (a flow is
// recyclable only when it is done AND its last straggler packet has
// drained) construct the pool with a Gate functor and use
// maybe_recycle(), which recycles only when the gate passes. The
// default gate always passes, so plain pools (packets, bookings)
// call recycle() directly or maybe_recycle()
// interchangeably.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <utility>
#include <vector>

namespace rsf::core {

/// Default recycle gate: every slot is recyclable the moment the call
/// site asks.
struct AlwaysRecyclable {
  template <typename T>
  [[nodiscard]] constexpr bool operator()(const T&) const {
    return true;
  }
};

template <typename T, typename Gen = std::uint32_t, typename Gate = AlwaysRecyclable>
class SlotPool {
 public:
  /// A versioned slot reference: the index addresses the dense
  /// storage, the generation detects reuse since the handle was made.
  struct Handle {
    static constexpr std::uint32_t kInvalidIndex = 0xFFFFFFFFu;
    std::uint32_t index = kInvalidIndex;
    Gen generation = 0;

    [[nodiscard]] constexpr bool valid() const { return index != kInvalidIndex; }
    friend constexpr bool operator==(const Handle&, const Handle&) = default;
  };

  SlotPool() = default;
  explicit SlotPool(Gate gate) : gate_(std::move(gate)) {}

  /// Claim a slot: the most recently recycled one when the free list
  /// has any (LIFO — bounded pools under churn), else a fresh slot
  /// grown at the back. The slot's contents are default-constructed
  /// (recycle resets in place); the caller fills it through
  /// operator[]. Returns the slot's versioned handle.
  ///
  /// The free list's top element lives in spare_, not the vector:
  /// one-deep churn (claim, recycle, claim, ... — every per-event hot
  /// path) never touches vector bookkeeping. LIFO order is unchanged;
  /// spare_ is simply the top of the stack.
  [[nodiscard]] Handle claim() {
    std::uint32_t idx;
    if (spare_ != Handle::kInvalidIndex) {
      idx = spare_;
      spare_ = Handle::kInvalidIndex;
    } else if (!free_.empty()) {
      idx = free_.back();
      free_.pop_back();
    } else {
      idx = static_cast<std::uint32_t>(slots_.size());
      slots_.emplace_back();
      meta_.emplace_back();
    }
    meta_[idx].live = true;
    return Handle{idx, meta_[idx].generation};
  }

  /// Return the slot to the free list: reset to T{} in place (dropping
  /// captured callbacks / shared_ptr refs), bump the generation so
  /// every outstanding handle to it goes detectably stale, then push.
  /// Call this *before* running any completion callback, so a callback
  /// that immediately claims again reuses this very slot.
  void recycle(std::uint32_t index) {
    // Double-recycle is the one corruption the generation could not
    // catch later (the index would sit on the free list twice and two
    // claims would alias one slot at the same generation): fail
    // loudly at the bug instead of corrupting a future claimant.
    if (index >= meta_.size() || !meta_[index].live) {
      throw std::logic_error("SlotPool: recycle of a free or unknown slot");
    }
    slots_[index] = T{};
    ++meta_[index].generation;
    meta_[index].live = false;
    if (spare_ != Handle::kInvalidIndex) free_.push_back(spare_);
    spare_ = index;
  }

  /// Gate-checked recycle: a no-op (false) while the pool's Gate says
  /// the slot has not fully drained — or when the slot is already
  /// free (drain paths may legitimately ask again after a completion
  /// callback's recycle; only an index the pool never allocated is
  /// misuse). `cleanup` runs on the still-intact slot just before the
  /// reset (e.g. erasing an id -> index map entry).
  template <typename Cleanup>
  bool maybe_recycle(std::uint32_t index, Cleanup&& cleanup) {
    if (index >= meta_.size()) {
      throw std::logic_error("SlotPool: maybe_recycle of an unknown slot");
    }
    if (!meta_[index].live || !gate_(slots_[index])) return false;
    std::forward<Cleanup>(cleanup)(slots_[index]);
    recycle(index);
    return true;
  }
  bool maybe_recycle(std::uint32_t index) {
    return maybe_recycle(index, [](T&) {});
  }

  /// True while `handle` names the live occupant it was claimed for:
  /// the slot is claimed and has not been recycled since. The bounds
  /// check runs against meta_ (same length as slots_) because its
  /// element size is a power of two — hot callers pay a shift, not a
  /// divide by sizeof(T).
  [[nodiscard]] bool is_live(Handle handle) const {
    return handle.valid() && handle.index < meta_.size() && meta_[handle.index].live &&
           meta_[handle.index].generation == handle.generation;
  }
  [[nodiscard]] bool is_live(std::uint32_t index, Gen generation) const {
    return is_live(Handle{index, generation});
  }

  /// The slot behind a handle, or nullptr when the handle is stale.
  [[nodiscard]] T* get_live(Handle handle) {
    return is_live(handle) ? &slots_[handle.index] : nullptr;
  }
  [[nodiscard]] const T* get_live(Handle handle) const {
    return is_live(handle) ? &slots_[handle.index] : nullptr;
  }
  [[nodiscard]] T* get_live(std::uint32_t index, Gen generation) {
    return get_live(Handle{index, generation});
  }
  [[nodiscard]] const T* get_live(std::uint32_t index, Gen generation) const {
    return get_live(Handle{index, generation});
  }

  /// Unchecked dense access (hot paths that already validated, and
  /// claim-site initialization).
  [[nodiscard]] T& operator[](std::uint32_t index) { return slots_[index]; }
  [[nodiscard]] const T& operator[](std::uint32_t index) const { return slots_[index]; }

  /// Hint that slot `index` and its liveness entry will be read soon:
  /// a caller that knows ahead of time starts the cache misses early.
  /// The slot's first and last bytes are both fetched, so a slot of up
  /// to one cache line is covered where it straddles two. No effect on
  /// the pool's state.
  void prefetch(std::uint32_t index) const {
    const auto* slot = reinterpret_cast<const char*>(&slots_[index]);
    __builtin_prefetch(slot);
    __builtin_prefetch(slot + sizeof(T) - 1);
    __builtin_prefetch(&meta_[index]);
  }

  /// Whether the slot at `index` is currently claimed (pool-iteration
  /// sites skip free slots).
  [[nodiscard]] bool live(std::uint32_t index) const { return meta_[index].live; }
  /// The slot's current generation (handle minting at claim sites that
  /// publish their own handle type).
  [[nodiscard]] Gen generation(std::uint32_t index) const {
    return meta_[index].generation;
  }

  /// Test seam: force a slot's generation counter so wrap-around
  /// behaviour is coverable without 2^32 claim/recycle cycles. Never
  /// called from production code.
  void set_generation_for_test(std::uint32_t index, Gen generation) {
    meta_.at(index).generation = generation;
  }

  /// Total slots ever allocated — the pool's high-water concurrency,
  /// not the number of objects that passed through it.
  [[nodiscard]] std::size_t size() const { return slots_.size(); }
  /// Slots currently on the free list (spare_ included).
  [[nodiscard]] std::size_t free_count() const {
    return free_.size() + (spare_ != Handle::kInvalidIndex ? 1 : 0);
  }

 private:
  struct Meta {
    Gen generation = 0;
    bool live = false;
  };

  std::vector<T> slots_;
  std::vector<Meta> meta_;
  std::vector<std::uint32_t> free_;  // LIFO below spare_
  std::uint32_t spare_ = Handle::kInvalidIndex;  // top of the free stack
  [[no_unique_address]] Gate gate_{};
};

}  // namespace rsf::core
