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
#include <cstdint>
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
  // the calendar slab and its free list, the batch buffer. Steady state
  // begins here.
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

// The cold arm under the same bar: a std::function small enough for its
// small-buffer storage copies into the Simulator without allocating,
// so once the handler pool is warm, schedule->fire and schedule->cancel
// churn must recycle pool slots instead of growing the pool.
void churn_cold(Simulator& sim, const EventHandler& handler, int rounds) {
  for (int i = 0; i < rounds; ++i) {
    sim.schedule_at(sim.now() + SimTime::nanoseconds(1), handler);
    sim.schedule_at(sim.now() + SimTime::nanoseconds(2), handler);
    const EventId doomed = sim.schedule_at(sim.now() + SimTime::nanoseconds(3), handler);
    ASSERT_TRUE(sim.cancel(doomed));
    sim.run_until(SimTime::infinity());
  }
}

TEST(SimAllocGuardTest, ColdArmChurnIsAllocationFree) {
  Simulator sim;
  int fired = 0;
  const EventHandler handler = [counter = &fired] { ++*counter; };
  churn_cold(sim, handler, 100);

  const std::size_t allocs_before = g_allocations;
  const std::size_t deallocs_before = g_deallocations;
  churn_cold(sim, handler, 1'000);
  EXPECT_EQ(g_allocations - allocs_before, 0u) << "cold event churn touched the heap";
  EXPECT_EQ(g_deallocations - deallocs_before, 0u) << "cold event churn freed to the heap";
  EXPECT_EQ(fired, 2 * (100 + 1'000));
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

// A fleet rack leg's shape: every probe's completion callback captures
// only [this, idx] (the probe's whole 16-byte inline callable) and
// sends the chain's next probe, which reuses the packet and completion
// slots just freed.
struct ProbeChains {
  fabric::Network* net;
  bool stop = false;
  std::uint64_t delivered = 0;

  void send(std::uint32_t idx) {
    net->send_probe(idx, 15 - idx, phy::DataSize::bytes(1024),
                    [this, idx](const fabric::ProbeResult& r) {
                      if (!r.failed) ++delivered;
                      if (!stop) send(idx);
                    });
  }
};

// The rack hop path under the same bar: once a CRC-less rack is warm
// (router tables built, port and link-use vectors sized, the
// switched-bits ring grown to its retention window, every link's frame
// memo keyed), forwarding the middle of a long flow allocates nothing,
// and neither does steady-state probe churn.
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

  // Warm for two retention windows (the ring keeps 1 ms of hops). The
  // bracket then spans three more with no switch-power query, so the
  // log is pruned only when full: it must stay within its warm size.
  rt.run_until(SimTime::milliseconds(2));
  ASSERT_EQ(rt.network().flows_completed(), 0u);
  const std::size_t events_before = rt.sim().executed();
  const std::size_t allocs_before = g_allocations;
  const std::size_t deallocs_before = g_deallocations;
  rt.run_until(SimTime::milliseconds(5));
  const std::size_t allocs = g_allocations - allocs_before;
  const std::size_t deallocs = g_deallocations - deallocs_before;
  ASSERT_EQ(rt.network().flows_completed(), 0u) << "the bracket must sit inside the flow";
  EXPECT_GT(rt.sim().executed(), events_before + 10'000);
  EXPECT_EQ(allocs, 0u) << "rack hop path touched the heap";
  EXPECT_EQ(deallocs, 0u) << "rack hop path freed to the heap";

  rt.run_until();
  EXPECT_EQ(rt.network().flows_completed(), 1u);

  // Fleet legs: eight probe chains, warmed for two retention windows.
  ProbeChains chains{&rt.network()};
  for (std::uint32_t idx = 0; idx < 8; ++idx) chains.send(idx);
  const SimTime t0 = rt.sim().now();
  rt.run_until(t0 + SimTime::milliseconds(2));
  const std::uint64_t delivered_before = chains.delivered;
  const std::size_t probe_allocs_before = g_allocations;
  const std::size_t probe_deallocs_before = g_deallocations;
  rt.run_until(t0 + SimTime::milliseconds(4));
  const std::size_t probe_allocs = g_allocations - probe_allocs_before;
  const std::size_t probe_deallocs = g_deallocations - probe_deallocs_before;
  EXPECT_GT(chains.delivered, delivered_before + 1'000);
  EXPECT_EQ(probe_allocs, 0u) << "probe churn touched the heap";
  EXPECT_EQ(probe_deallocs, 0u) << "probe churn freed to the heap";

  chains.stop = true;
  rt.run_until();
  // Probes hold no flow slot: the pool holds only the long flow's.
  EXPECT_EQ(rt.network().flow_slots(), 1u);
  EXPECT_EQ(rt.network().free_flow_slots(), 1u);
  EXPECT_EQ(rt.network().free_packet_slots(), rt.network().packet_slots());
  EXPECT_EQ(rt.network().flows_completed(), 1u) << "probes stay out of the flow tallies";
}

// The rack's resend paths under the same bar. FEC loss: with a lossy,
// uncoded rack every few hops a frame is lost and resent from its
// source through the packet pool. No route: packets toward a cut-off
// node back off and retry from where they stand. Once warm, neither
// path allocates; the bracket stops short of any drop (a drop names
// its counter by string): the stranded flow's packets spend their
// fabric::kMaxRetries no-route backoffs (5 us doubling to a 320 us
// cap) by about 3.5 ms, so the bracket closes at 3.4 ms.
TEST(SimAllocGuardTest, RetransmitAndNoRoutePathsAreAllocationFree) {
  runtime::RuntimeConfig cfg;
  cfg.rack.width = 4;
  cfg.rack.height = 4;
  cfg.enable_crc = false;
  runtime::FabricRuntime rt(cfg);
  fabric::Network& net = rt.network();
  for (std::size_t c = 0; c < rt.plant().cable_count(); ++c) {
    rt.plant().set_cable_ber(static_cast<phy::CableId>(c), 1e-6);
  }
  for (const phy::LinkId id : rt.plant().link_ids()) {
    rt.plant().set_fec(id, phy::FecSpec::of(phy::FecScheme::kNone));
  }
  fabric::FlowSpec lossy;
  lossy.id = 1;
  lossy.src = 0;
  lossy.dst = 15;
  lossy.size = phy::DataSize::megabytes(32);
  net.start_flow(lossy, nullptr);
  // Node 5 loses every lane: its flow's packets find no route.
  for (const phy::LinkId id : rt.topology().links_at(5)) {
    rt.plant().fail_lane({rt.plant().link(id).segments().front().cable, 0});
    rt.plant().fail_lane({rt.plant().link(id).segments().front().cable, 1});
  }
  fabric::FlowSpec stranded;
  stranded.id = 2;
  stranded.src = 0;
  stranded.dst = 5;
  stranded.size = phy::DataSize::kilobytes(16);
  net.start_flow(stranded, nullptr);

  const auto& counters = net.counters();
  rt.run_until(SimTime::milliseconds(2));
  const std::uint64_t corrupted_before = counters.get("net.frames_corrupted");
  const std::uint64_t waits_before = counters.get("net.reroute_waits");
  const std::size_t allocs_before = g_allocations;
  const std::size_t deallocs_before = g_deallocations;
  rt.run_until(SimTime::microseconds(3'400));
  const std::size_t allocs = g_allocations - allocs_before;
  const std::size_t deallocs = g_deallocations - deallocs_before;
  EXPECT_GT(counters.get("net.frames_corrupted"), corrupted_before + 100);
  EXPECT_GT(counters.get("net.reroute_waits"), waits_before);
  ASSERT_EQ(net.flows_completed() + net.flows_failed(), 0u)
      << "the bracket must sit inside both flows";
  EXPECT_EQ(allocs, 0u) << "retransmit / no-route paths touched the heap";
  EXPECT_EQ(deallocs, 0u) << "retransmit / no-route paths freed to the heap";
  EXPECT_EQ(net.packet_slots(), 2u * static_cast<std::size_t>(fabric::kFlowWindow));
}

}  // namespace
}  // namespace rsf::sim
