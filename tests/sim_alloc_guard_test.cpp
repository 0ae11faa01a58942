// Regression guard for the allocation-free inline event path: once the
// kernel's pools are warm, scheduling and draining inline-record events
// must not touch the global heap at all. A refactor that reintroduces a
// per-event allocation (std::function capture, node-based queue, record
// copy-out) fails here immediately rather than as a silent perf cliff.
//
// Far-future events (tier 2 and the far list) are held to the same bar:
// they live in the same record slab and reuse its slots. So is the rack
// transport's per-hop path on top of the kernel.
//
// The counters instrument the global operator new/delete for this test
// binary only. gtest itself allocates freely between the probe windows;
// the assertion covers only the bracketed drain.

#include <cstddef>
#include <cstdlib>
#include <new>

#include <gtest/gtest.h>

#include "fabric/packet.hpp"
#include "phy/units.hpp"
#include "runtime/runtime.hpp"
#include "sim/event.hpp"
#include "sim/simulator.hpp"
#include "sim/time.hpp"

namespace {

std::size_t g_allocations = 0;
std::size_t g_deallocations = 0;

}  // namespace

void* operator new(std::size_t size) {
  ++g_allocations;
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc{};
}

void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  ++g_allocations;
  return std::malloc(size);
}

void operator delete(void* p) noexcept {
  ++g_deallocations;
  std::free(p);
}

void operator delete(void* p, std::size_t) noexcept {
  ++g_deallocations;
  std::free(p);
}

void operator delete(void* p, const std::nothrow_t&) noexcept {
  ++g_deallocations;
  std::free(p);
}

namespace rsf::sim {
namespace {

// The workload under guard: a self-rescheduling trivially-copyable
// functor (the shape of every per-packet continuation) plus a same-time
// burst wide enough to exercise batch extraction and sorting.
struct SelfReschedule {
  Simulator* sim;
  int* remaining;

  void operator()() {
    if (--*remaining > 0) {
      sim->schedule_at(sim->now() + SimTime::nanoseconds(5), *this);
    }
  }
};
static_assert(is_inline_event_v<SelfReschedule>);

struct CountTick {
  int* counter;
  void operator()() { ++*counter; }
};
static_assert(is_inline_event_v<CountTick>);

void run_workload(Simulator& sim, int chain_events, int burst_width) {
  int remaining = chain_events;
  sim.schedule_at(sim.now() + SimTime::nanoseconds(1),
                  SelfReschedule{&sim, &remaining});
  int burst_fired = 0;
  const SimTime burst_at = sim.now() + SimTime::nanoseconds(2);
  for (int i = 0; i < burst_width; ++i) {
    sim.schedule_at(burst_at, CountTick{&burst_fired});
  }
  sim.run_until(SimTime::infinity());
  ASSERT_EQ(remaining, 0);
  ASSERT_EQ(burst_fired, burst_width);
}

TEST(SimAllocGuardTest, DrainingInlineEventsIsAllocationFree) {
  Simulator sim;
  // Warm-up: an identical workload pre-sizes every internal vector —
  // the liveness slot pool, the calendar slab and free list, the batch
  // buffer. Steady state begins here.
  run_workload(sim, 10'000, 64);

  const std::size_t allocs_before = g_allocations;
  const std::size_t deallocs_before = g_deallocations;
  run_workload(sim, 10'000, 64);
  const std::size_t allocs = g_allocations - allocs_before;
  const std::size_t deallocs = g_deallocations - deallocs_before;

  EXPECT_EQ(allocs, 0u) << "inline event drain touched the heap";
  EXPECT_EQ(deallocs, 0u) << "inline event drain freed to the heap";
  EXPECT_EQ(sim.executed(), 2u * (10'000 + 64));
}

TEST(SimAllocGuardTest, CancelOfInlineEventIsAllocationFree) {
  Simulator sim;
  int fired = 0;
  // Warm-up including a cancel so the tombstone path is also sized.
  const EventId warm = sim.schedule_at(sim.now() + SimTime::nanoseconds(1),
                                       CountTick{&fired});
  ASSERT_TRUE(sim.cancel(warm));
  run_workload(sim, 1'000, 8);

  const std::size_t allocs_before = g_allocations;
  const std::size_t deallocs_before = g_deallocations;
  const EventId id = sim.schedule_at(sim.now() + SimTime::nanoseconds(1),
                                     CountTick{&fired});
  ASSERT_TRUE(sim.cancel(id));
  run_workload(sim, 1'000, 8);
  EXPECT_EQ(g_allocations - allocs_before, 0u);
  EXPECT_EQ(g_deallocations - deallocs_before, 0u);
  EXPECT_EQ(fired, 0);
}

// A far-future chain: every firing reschedules itself 10 us to 10 ms
// out, skipping past the ring into tier 2 and onto the far list, and
// plants a decoy at another of those distances that it cancels at once,
// leaving tombstones in every level.
struct FarChain {
  Simulator* sim;
  int* fired;
  int* decoys_fired;
  int left;
  unsigned step;

  void operator()() {
    ++*fired;
    if (left == 0) return;
    static constexpr double kDelaysUs[] = {10, 100, 1'000, 10'000};
    const SimTime now = sim->now();
    const EventId decoy = sim->schedule_at(
        now + SimTime::microseconds(kDelaysUs[(step + 2) % 4]), CountTick{decoys_fired});
    sim->cancel(decoy);
    sim->schedule_at(now + SimTime::microseconds(kDelaysUs[step % 4]),
                     FarChain{sim, fired, decoys_fired, left - 1, step + 1});
  }
};
static_assert(is_inline_event_v<FarChain>);

void run_far_workload(Simulator& sim, int chains, int steps) {
  int fired = 0;
  int decoys_fired = 0;
  for (int c = 0; c < chains; ++c) {
    sim.schedule_at(sim.now() + SimTime::microseconds(c),
                    FarChain{&sim, &fired, &decoys_fired, steps, static_cast<unsigned>(c)});
  }
  sim.run_until(SimTime::infinity());
  ASSERT_EQ(fired, chains * (steps + 1));
  ASSERT_EQ(decoys_fired, 0);
}

TEST(SimAllocGuardTest, DrainingFarFutureChainIsAllocationFree) {
  Simulator sim;
  // Warm-up with twice the chains: far records live in the same slab as
  // ring records, and how many tombstones are outstanding at once (some
  // outlive each run) depends on where the level bases fall, so the
  // measured run must stay under the warm-up's peak, not just match it.
  run_far_workload(sim, 128, 200);

  const std::size_t allocs_before = g_allocations;
  const std::size_t deallocs_before = g_deallocations;
  run_far_workload(sim, 64, 200);
  EXPECT_EQ(g_allocations - allocs_before, 0u) << "far-future drain touched the heap";
  EXPECT_EQ(g_deallocations - deallocs_before, 0u) << "far-future drain freed to the heap";
  EXPECT_EQ(sim.executed(), (128u + 64u) * 201u);
}

// The rack hop path under the same bar: once a CRC-less rack is warm
// (router tables built, port and link-use vectors sized, the
// switched-bits ring grown to its retention window, every link's frame
// memo keyed), forwarding the middle of a long flow allocates nothing.
TEST(SimAllocGuardTest, RackHopPathIsAllocationFree) {
  runtime::RuntimeConfig cfg;
  cfg.rack.width = 4;
  cfg.rack.height = 4;
  cfg.enable_crc = false;
  runtime::FabricRuntime rt(cfg);
  fabric::FlowSpec spec;
  spec.id = 1;
  spec.src = 0;
  spec.dst = 15;
  spec.size = phy::DataSize::megabytes(32);
  rt.network().start_flow(spec, nullptr);

  // Warm for two retention windows (the ring keeps 1 ms of hops).
  rt.run_until(SimTime::milliseconds(2));
  ASSERT_EQ(rt.network().flows_completed(), 0u);
  const std::size_t events_before = rt.sim().executed();
  const std::size_t allocs_before = g_allocations;
  const std::size_t deallocs_before = g_deallocations;
  rt.run_until(SimTime::milliseconds(4));
  const std::size_t allocs = g_allocations - allocs_before;
  const std::size_t deallocs = g_deallocations - deallocs_before;
  ASSERT_EQ(rt.network().flows_completed(), 0u) << "the bracket must sit inside the flow";
  EXPECT_GT(rt.sim().executed(), events_before + 10'000);
  EXPECT_EQ(allocs, 0u) << "rack hop path touched the heap";
  EXPECT_EQ(deallocs, 0u) << "rack hop path freed to the heap";

  rt.run_until();
  EXPECT_EQ(rt.network().flows_completed(), 1u);
}

}  // namespace
}  // namespace rsf::sim
