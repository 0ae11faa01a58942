// rsf::sim — event ids, the tagged event record, and its two arms.
//
// The kernel stores every scheduled event as a fixed-size, trivially
// copyable EventRecord. A record has two arms:
//
//  - **Inline arm.** A callable that is trivially copyable, trivially
//    destructible, and at most kInlineEventBytes big is placement-new'd
//    straight into the record's payload, with a monomorphized
//    trampoline as the invoke pointer. This covers every per-packet
//    continuation on the hot paths (rack-fabric hops, which capture a
//    packet-pool index rather than the packet; spine completions, which
//    are 32-byte core::SmallFunctions; fleet retries and pumps) —
//    scheduling one is a memcpy into a bucket, not a heap allocation.
//  - **Cold arm.** Anything else (move-captured vectors, stored
//    std::functions, oversized captures) is wrapped in an EventHandler
//    parked in the Simulator's small handler pool; the record's payload
//    carries the pool index. Cold callers keep working unchanged — they
//    just don't get the inline fast path.
//
// The arm is selected automatically per call site by Simulator's
// templated schedule_* front end (is_inline_event_v below), so no
// caller migrates by hand and a capture that grows past the budget
// degrades to the cold arm instead of breaking the build. Hot paths
// pin their eligibility with static_asserts at the call site.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <type_traits>

#include "sim/time.hpp"

namespace rsf::sim {

/// Identifies a scheduled event so it can be cancelled. An id packs
/// the event's slab record index + 1 and that record's generation;
/// indices are recycled, so a stale id (fired, cancelled, never
/// existed, or outlived by 2^32 reuses of one index) fails the
/// liveness check and cancel() reports false instead of touching the
/// new occupant.
using EventId = std::uint64_t;
inline constexpr EventId kInvalidEventId = 0;

/// The cold arm's closure type. Handlers run at the event's timestamp;
/// they may schedule further events but must not block and must not
/// re-enter the Simulator's run loops.
using EventHandler = std::function<void()>;

/// Inline payload budget. Sized for the largest per-packet
/// continuation on the hot paths — Network::hop's
/// [this, packet index, NodeId, SimTime, SimTime] capture (32 bytes;
/// the packet itself waits in Network's packet pool) — which lands the
/// whole record on exactly one cache line (static_assert below). A
/// capture that outgrows the budget falls off the fast path onto the
/// cold arm; the hot paths pin themselves with static_asserts at the
/// call site.
inline constexpr std::size_t kInlineEventBytes = 32;

/// True when scheduling `F` takes the inline arm: invocable, trivially
/// copyable and destructible (records move between buckets by memcpy,
/// and tombstones are dropped without running destructors), within the
/// payload budget, and not over-aligned.
template <typename F>
inline constexpr bool is_inline_event_v =
    std::is_invocable_r_v<void, F&> && std::is_trivially_copyable_v<F> &&
    std::is_trivially_destructible_v<F> && sizeof(F) <= kInlineEventBytes &&
    alignof(F) <= alignof(std::max_align_t);

/// One scheduled event. Ordered by (time, seq): seq is the global
/// insertion sequence, so two events scheduled for the same instant
/// always fire in scheduling order — determinism does not depend on
/// queue internals. Trivially copyable by design: calendar buckets
/// shuffle records freely.
/// Deliberately without default member initializers: records are
/// constructed in place inside the calendar slab and every field is
/// written at schedule time — a trivial default constructor keeps slab
/// growth a pure reallocation.
/// Cache-line aligned: the slab hands out 64-byte aligned storage, so
/// every touch of a pending record (schedule, promotion, sweep,
/// extraction, drain) costs one line, never two.
struct alignas(64) EventRecord {
  SimTime time;
  std::uint64_t seq;
  /// Liveness: `live` while pending. Cancel clears it, leaving a
  /// tombstone the queue skips and reclaims when it next touches it;
  /// freeing the slab index bumps `generation`, staling older ids.
  std::uint32_t generation;
  bool live;
  bool weak;
  /// Inline arm: monomorphized trampoline over `payload`.
  /// nullptr tags the cold arm; the payload then holds the index of
  /// the event's EventHandler in the Simulator's handler pool.
  void (*invoke)(void*);
  alignas(alignof(std::max_align_t)) std::byte payload[kInlineEventBytes];
};

static_assert(std::is_trivially_copyable_v<EventRecord>);
// Exactly one cache line: slab addressing is a shift, and a record
// never straddles two lines.
static_assert(sizeof(EventRecord) == 64 && alignof(EventRecord) == 64);
static_assert(kInlineEventBytes == 32);

}  // namespace rsf::sim
