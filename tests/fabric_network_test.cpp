#include "fabric/network.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <optional>

#include "fabric/builders.hpp"

namespace rsf::fabric {
namespace {

using phy::DataSize;
using phy::LinkId;
using rsf::sim::SimTime;
using rsf::sim::Simulator;
using namespace rsf::sim::literals;

struct NetFixture : ::testing::Test {
  Simulator sim;
  Rack rack;

  explicit NetFixture(int w = 4, int h = 4) {
    RackParams p;
    p.width = w;
    p.height = h;
    rack = build_grid(&sim, p);
  }

  SimTime probe_latency(phy::NodeId src, phy::NodeId dst,
                        DataSize size = DataSize::bytes(1024)) {
    std::optional<SimTime> out;
    rack.network->send_probe(src, dst, size, [&](const FlowResult& r) {
      ASSERT_FALSE(r.failed);
      out = r.completion_time();
    });
    sim.run_until();
    EXPECT_TRUE(out.has_value());
    return out.value_or(SimTime::zero());
  }
};

TEST_F(NetFixture, ProbeDeliversWithExpectedSingleHopLatency) {
  const auto link = rack.topology->link_between(0, 1);
  ASSERT_TRUE(link.has_value());
  const auto& l = rack.plant->link(*link);
  const DataSize size = DataSize::bytes(1024);
  const SimTime expected = kNicLatency + l.serialization_delay(size) + l.propagation_delay() +
                           l.fec().latency + kNicLatency;
  EXPECT_EQ(probe_latency(0, 1, size), expected);
}

TEST_F(NetFixture, LatencyGrowsWithHopCount) {
  const SimTime l1 = probe_latency(rack.node_at(0, 0), rack.node_at(1, 0));
  const SimTime l2 = probe_latency(rack.node_at(0, 0), rack.node_at(2, 0));
  const SimTime l3 = probe_latency(rack.node_at(0, 0), rack.node_at(3, 0));
  EXPECT_GT(l2, l1);
  EXPECT_GT(l3, l2);
  // Per-hop increment includes the switch pipeline.
  EXPECT_GE((l2 - l1).ns(), kSwitchLatency.ns());
}

TEST_F(NetFixture, CutThroughBeatsStoreAndForward) {
  RackParams sf;
  sf.net_config.cut_through = false;
  Simulator sim2;
  Rack rack_sf = build_grid(&sim2, sf);

  std::optional<SimTime> sf_lat;
  rack_sf.network->send_probe(rack_sf.node_at(0, 0), rack_sf.node_at(3, 0),
                              DataSize::bytes(1024),
                              [&](const FlowResult& r) { sf_lat = r.completion_time(); });
  sim2.run_until();
  const SimTime ct_lat = probe_latency(rack.node_at(0, 0), rack.node_at(3, 0));
  ASSERT_TRUE(sf_lat.has_value());
  EXPECT_LT(ct_lat, *sf_lat);
}

TEST_F(NetFixture, ProbeHopCountMatchesRoute) {
  std::optional<int> hops;
  rack.network->send_probe(rack.node_at(0, 0), rack.node_at(3, 3), DataSize::bytes(256),
                           [&](const FlowResult& r) { hops = r.hops; });
  sim.run_until();
  EXPECT_EQ(hops, 6);
}

TEST_F(NetFixture, FlowCompletesAndAccountsBytes) {
  FlowSpec spec;
  spec.id = 1;
  spec.src = 0;
  spec.dst = 5;
  spec.size = DataSize::kilobytes(64);
  spec.packet_size = DataSize::bytes(1024);
  std::optional<FlowResult> result;
  rack.network->start_flow(spec, [&](const FlowResult& r) { result = r; });
  sim.run_until();
  ASSERT_TRUE(result.has_value());
  EXPECT_FALSE(result->failed);
  // 64 kB = 64000 B = ceil(62.5) = 63 packets of 1024 B.
  EXPECT_EQ(result->packets, 63u);
  EXPECT_GT(result->completion_time(), SimTime::zero());
  EXPECT_EQ(rack.network->flows_completed(), 1u);
}

TEST_F(NetFixture, ShortFinalPacketHandled) {
  FlowSpec spec;
  spec.id = 2;
  spec.src = 0;
  spec.dst = 1;
  spec.size = DataSize::bytes(2500);  // 2 full + 1 partial packet
  spec.packet_size = DataSize::bytes(1024);
  std::optional<FlowResult> result;
  rack.network->start_flow(spec, [&](const FlowResult& r) { result = r; });
  sim.run_until();
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->packets, 3u);
}

TEST_F(NetFixture, FlowThroughputApproachesLineRate) {
  // One flow, one hop, 2 lanes x 25G with KR4 FEC: ~48.7 Gbps effective.
  FlowSpec spec;
  spec.id = 3;
  spec.src = 0;
  spec.dst = 1;
  spec.size = DataSize::megabytes(10);
  spec.packet_size = DataSize::bytes(4096);
  std::optional<FlowResult> result;
  rack.network->start_flow(spec, [&](const FlowResult& r) { result = r; });
  sim.run_until();
  ASSERT_TRUE(result.has_value());
  const double gbps =
      static_cast<double>(spec.size.bit_count()) / result->completion_time().sec() / 1e9;
  const double line = rack.plant->link(*rack.topology->link_between(0, 1))
                          .effective_rate()
                          .gbps_value();
  EXPECT_GT(gbps, line * 0.9);
  EXPECT_LE(gbps, line * 1.01);
}

TEST_F(NetFixture, TwoFlowsShareBottleneckFairly) {
  FlowSpec a;
  a.id = 10;
  a.src = rack.node_at(0, 0);
  a.dst = rack.node_at(1, 0);
  a.size = DataSize::megabytes(1);
  FlowSpec b = a;
  b.id = 11;
  b.src = rack.node_at(0, 0);

  std::vector<FlowResult> results;
  rack.network->start_flow(a, [&](const FlowResult& r) { results.push_back(r); });
  rack.network->start_flow(b, [&](const FlowResult& r) { results.push_back(r); });
  sim.run_until();
  ASSERT_EQ(results.size(), 2u);
  // Both finish in roughly double the solo time, within 25%.
  const double t0 = results[0].completion_time().sec();
  const double t1 = results[1].completion_time().sec();
  EXPECT_NEAR(t0 / t1, 1.0, 0.25);
}

TEST_F(NetFixture, FrameLossCausesRetransmitsButFlowsComplete) {
  // Crank BER with no FEC: heavy loss, retransmissions recover.
  for (std::size_t c = 0; c < rack.plant->cable_count(); ++c) {
    rack.plant->set_cable_ber(static_cast<phy::CableId>(c), 1e-6);
  }
  for (LinkId id : rack.plant->link_ids()) {
    rack.plant->set_fec(id, phy::FecSpec::of(phy::FecScheme::kNone));
  }
  FlowSpec spec;
  spec.id = 4;
  spec.src = 0;
  spec.dst = 2;
  spec.size = DataSize::kilobytes(512);
  std::optional<FlowResult> result;
  rack.network->start_flow(spec, [&](const FlowResult& r) { result = r; });
  sim.run_until();
  ASSERT_TRUE(result.has_value());
  EXPECT_FALSE(result->failed);
  EXPECT_GT(result->retransmits, 0u);
  EXPECT_GT(rack.network->counters().get("net.frames_corrupted"), 0u);
}

TEST_F(NetFixture, ProbeIsAnUntrackedOnePacketFlow) {
  const DataSize size = DataSize::bytes(512);
  std::optional<FlowResult> probe;
  rack.network->send_probe(rack.node_at(0, 0), rack.node_at(3, 2), size,
                           [&](const FlowResult& r) { probe = r; });
  sim.run_until();
  ASSERT_TRUE(probe.has_value());
  EXPECT_FALSE(probe->failed);
  EXPECT_EQ(probe->packets, 1u);

  // The probe moved net.probes and the packet counters only.
  const auto& c = rack.network->counters();
  EXPECT_EQ(c.get("net.probes"), 1u);
  EXPECT_EQ(c.get("net.packets_delivered"), 1u);
  EXPECT_EQ(c.get("net.flows_started"), 0u);
  EXPECT_EQ(c.get("net.flows_completed"), 0u);
  EXPECT_EQ(c.get("net.flows_failed"), 0u);
  EXPECT_EQ(rack.network->flows_completed(), 0u);
  EXPECT_EQ(rack.network->flows_failed(), 0u);
  EXPECT_EQ(rack.network->flow_completion().count(), 0u);

  // A one-packet flow of the same size on the idle rack takes the
  // same path in the same time.
  FlowSpec spec;
  spec.id = 1;
  spec.src = rack.node_at(0, 0);
  spec.dst = rack.node_at(3, 2);
  spec.size = size;
  spec.packet_size = size;
  std::optional<FlowResult> flow;
  rack.network->start_flow(spec, [&](const FlowResult& r) { flow = r; });
  sim.run_until();
  ASSERT_TRUE(flow.has_value());
  EXPECT_EQ(flow->completion_time(), probe->completion_time());
  EXPECT_EQ(flow->hops, probe->hops);
  EXPECT_EQ(flow->hops, 5);
  EXPECT_EQ(c.get("net.probes"), 1u);
  EXPECT_EQ(c.get("net.flows_completed"), 1u);
  EXPECT_EQ(rack.network->flow_completion().count(), 1u);
}

TEST_F(NetFixture, ChainedProbesReuseTheFreedSlot) {
  // Recycle-before-callback: a probe whose callback sends the next one
  // hands that probe the slot it just freed.
  int left = 100;
  std::function<void(const FlowResult&)> next = [&](const FlowResult& r) {
    ASSERT_FALSE(r.failed);
    EXPECT_EQ(rack.network->free_flow_slots(), 1u);
    if (--left > 0) rack.network->send_probe(0, 15, DataSize::bytes(256), next);
  };
  rack.network->send_probe(0, 15, DataSize::bytes(256), next);
  sim.run_until();
  EXPECT_EQ(left, 0);
  EXPECT_EQ(rack.network->flow_slots(), 1u);
  EXPECT_EQ(rack.network->free_flow_slots(), 1u);
  EXPECT_EQ(rack.network->counters().get("net.probes"), 100u);
}

TEST_F(NetFixture, ProbeDropsWhenDestinationUnreachable) {
  for (LinkId id : rack.topology->links_at(rack.node_at(3, 3))) {
    rack.engine->submit(plp::ShutdownCommand{id});
  }
  sim.run_until();
  std::optional<bool> delivered;
  rack.network->send_probe(rack.node_at(0, 0), rack.node_at(3, 3), DataSize::bytes(64),
                           [&](const FlowResult& r) { delivered = !r.failed; });
  sim.run_until();
  ASSERT_TRUE(delivered.has_value());
  EXPECT_FALSE(*delivered);
  EXPECT_GT(rack.network->counters().get("net.drops.no_route"), 0u);
}

TEST_F(NetFixture, PacketsWaitOutReconfigurationWindow) {
  // Start a long flow 0->1, then set FEC on its only direct link; the
  // link is busy during actuation but packets reroute or wait and the
  // flow still completes.
  FlowSpec spec;
  spec.id = 5;
  spec.src = 0;
  spec.dst = 1;
  spec.size = DataSize::megabytes(1);
  std::optional<FlowResult> result;
  rack.network->start_flow(spec, [&](const FlowResult& r) { result = r; });
  sim.schedule_at(10_us, [&] {
    rack.engine->submit(
        plp::SetFecCommand{*rack.topology->link_between(0, 1), phy::FecScheme::kRsKp4});
  });
  sim.run_until();
  ASSERT_TRUE(result.has_value());
  EXPECT_FALSE(result->failed);
}

TEST_F(NetFixture, LinkUsageStatsAccumulate) {
  FlowSpec spec;
  spec.id = 6;
  spec.src = 0;
  spec.dst = 1;
  spec.size = DataSize::kilobytes(100);
  rack.network->start_flow(spec, nullptr);
  sim.run_until();
  const LinkId direct = *rack.topology->link_between(0, 1);
  EXPECT_GT(rack.network->link_busy_time(direct), SimTime::zero());
  EXPECT_GT(rack.network->link_packets(direct), 0u);
  EXPECT_EQ(rack.network->link_packets(9999), 0u);
  // Lane statistics (PLP #5) see the same traffic.
  EXPECT_GT(rack.engine->stats_report(direct).bits_carried, 0u);
}

TEST_F(NetFixture, HistogramsPopulated) {
  FlowSpec spec;
  spec.id = 7;
  spec.src = 0;
  spec.dst = 5;
  spec.size = DataSize::kilobytes(10);
  rack.network->start_flow(spec, nullptr);
  sim.run_until();
  EXPECT_GT(rack.network->packet_latency().count(), 0u);
  EXPECT_EQ(rack.network->flow_completion().count(), 1u);
  EXPECT_GT(rack.network->hop_counts().mean(), 0.0);
}

TEST_F(NetFixture, RejectsBadFlowSpecs) {
  FlowSpec bad;
  bad.id = kNoFlow;
  bad.src = 0;
  bad.dst = 1;
  bad.size = DataSize::bytes(1);
  EXPECT_THROW(rack.network->start_flow(bad, nullptr), std::invalid_argument);
  bad.id = 1;
  bad.size = DataSize::zero();
  EXPECT_THROW(rack.network->start_flow(bad, nullptr), std::invalid_argument);
  bad.size = DataSize::bytes(10);
  rack.network->start_flow(bad, nullptr);
  EXPECT_THROW(rack.network->start_flow(bad, nullptr), std::invalid_argument);  // dup id
}

TEST_F(NetFixture, RejectsEndpointsOutsideTheRackAndEmptyProbes) {
  const auto never = [](const FlowResult&) { ADD_FAILURE() << "a rejected probe fired"; };
  EXPECT_THROW(rack.network->send_probe(0, 99, DataSize::bytes(64), never),
               std::invalid_argument);
  EXPECT_THROW(rack.network->send_probe(16, 0, DataSize::bytes(64), never),
               std::invalid_argument);
  EXPECT_THROW(rack.network->send_probe(0, phy::kInvalidNode, DataSize::bytes(64), never),
               std::invalid_argument);
  EXPECT_THROW(rack.network->send_probe(0, 1, DataSize::zero(), never), std::invalid_argument);
  EXPECT_THROW(rack.network->send_probe(0, 1, DataSize::bytes(-64), never),
               std::invalid_argument);

  FlowSpec spec;
  spec.id = 1;
  spec.src = 0;
  spec.dst = 99;
  spec.size = DataSize::kilobytes(1);
  EXPECT_THROW(rack.network->start_flow(spec, nullptr), std::invalid_argument);
  spec.src = 99;
  spec.dst = 0;
  EXPECT_THROW(rack.network->start_flow(spec, nullptr), std::invalid_argument);
  sim.run_until();
  EXPECT_EQ(rack.network->counters().get("net.probes"), 0u);
  EXPECT_EQ(rack.network->counters().get("net.packets_injected"), 0u);

  // The rejected flow claimed nothing: its id is still free.
  spec.src = 0;
  spec.dst = 15;
  std::optional<FlowResult> result;
  rack.network->start_flow(spec, [&](const FlowResult& r) { result = r; });
  sim.run_until();
  ASSERT_TRUE(result.has_value());
  EXPECT_FALSE(result->failed);
}

TEST_F(NetFixture, SwitchPowerGrowsWithTraffic) {
  const double idle = rack.network->switch_power_watts();
  FlowSpec spec;
  spec.id = 8;
  spec.src = 0;
  spec.dst = 1;
  spec.size = DataSize::megabytes(2);
  bool done = false;
  rack.network->start_flow(spec, [&](const FlowResult&) { done = true; });
  // Sample power mid-flow.
  sim.run_until(100_us);
  const double busy = rack.network->switch_power_watts();
  sim.run_until();
  EXPECT_TRUE(done);
  EXPECT_GT(busy, idle);
}

TEST_F(NetFixture, SwitchingPortCountCachesAgainstTopologyVersion) {
  const std::size_t ports = rack.network->switching_port_count();
  EXPECT_GT(ports, 0u);
  const double idle = rack.network->switch_power_watts();

  // Destroy a link on the plant, with no engine involved: the plant
  // bumps its version itself, so the next query recomputes and sees
  // the link gone at once — two cable ends stopped paying.
  const auto link = rack.topology->link_between(0, 1);
  ASSERT_TRUE(link.has_value());
  const std::uint64_t version = rack.topology->version();
  rack.plant->destroy_link(*link);
  EXPECT_GT(rack.topology->version(), version);
  EXPECT_EQ(rack.network->switching_port_count(), ports - 2);
  EXPECT_LT(rack.network->switch_power_watts(), idle);

  // A lane failure and repair bump the version too; the recomputed
  // count stays coherent.
  const auto other = rack.topology->link_between(1, 2);
  ASSERT_TRUE(other.has_value());
  const phy::LaneRef lane{rack.plant->link(*other).segments().front().cable, 0};
  rack.plant->fail_lane(lane);
  rack.plant->repair_lane(lane);
  EXPECT_EQ(rack.network->switching_port_count(), ports - 2);
}

TEST_F(NetFixture, FlowSlotsRecycleThroughFreeList) {
  // Four concurrent flows occupy four distinct slots while live...
  for (FlowId id = 1; id <= 4; ++id) {
    FlowSpec spec;
    spec.id = id;
    spec.src = 0;
    spec.dst = 15;
    spec.size = DataSize::kilobytes(64);
    rack.network->start_flow(spec, nullptr);
  }
  EXPECT_EQ(rack.network->flow_slots(), 4u);
  EXPECT_EQ(rack.network->free_flow_slots(), 0u);
  sim.run_until();
  EXPECT_EQ(rack.network->flows_completed(), 4u);
  EXPECT_EQ(rack.network->free_flow_slots(), 4u);

  // ...and a second wave reuses them instead of growing the pool.
  // Completed ids are recycled, so restarting id 1 is legal now.
  for (FlowId id = 1; id <= 4; ++id) {
    FlowSpec spec;
    spec.id = id;
    spec.src = 0;
    spec.dst = 15;
    spec.size = DataSize::kilobytes(64);
    rack.network->start_flow(spec, nullptr);
  }
  EXPECT_EQ(rack.network->flow_slots(), 4u);
  EXPECT_EQ(rack.network->free_flow_slots(), 0u);
  sim.run_until();
  EXPECT_EQ(rack.network->flows_completed(), 8u);
}

TEST_F(NetFixture, MillionFlowChurnHoldsSlotPoolBounded) {
  // A long-lived service's flow churn: one million short flows, at
  // most `kWindow` alive at once, driven by completion callbacks. The
  // pool must stay at the peak concurrency — NOT grow with the flow
  // count — and no slot may ever be handed out while its flow lives.
  constexpr std::uint64_t kFlows = 1'000'000;
  constexpr int kWindow = 8;
  std::uint64_t launched = 0;
  std::uint64_t completed = 0;
  std::size_t peak_slots = 0;
  std::function<void()> launch_next = [&] {
    if (launched >= kFlows) return;
    FlowSpec spec;
    spec.id = ++launched;
    spec.src = 0;
    spec.dst = 1;
    spec.size = DataSize::bytes(1024);  // one packet per flow
    rack.network->start_flow(spec, [&](const FlowResult& r) {
      ASSERT_FALSE(r.failed);
      ++completed;
      peak_slots = std::max(peak_slots, rack.network->flow_slots());
      launch_next();
    });
  };
  for (int i = 0; i < kWindow; ++i) launch_next();
  sim.run_until();
  EXPECT_EQ(completed, kFlows);
  EXPECT_EQ(rack.network->flows_completed(), kFlows);
  // Bounded: finish_flow recycles the slot before invoking the
  // completion callback, so the chained relaunch reuses it and the
  // pool never exceeds the concurrency window.
  EXPECT_LE(peak_slots, static_cast<std::size_t>(kWindow));
  EXPECT_EQ(rack.network->flow_slots(), rack.network->free_flow_slots());
}

TEST_F(NetFixture, FailedFlowSlotRecyclesOnlyAfterStragglersDrain) {
  // Unroutable flow: every packet burns its retry budget and drops.
  // The first drop fails the flow; the slot must stay allocated until
  // the other in-flight packets drain, then recycle.
  for (phy::LinkId id : rack.topology->links_at(5)) {
    rack.plant->fail_lane({rack.plant->link(id).segments().front().cable, 0});
    rack.plant->fail_lane({rack.plant->link(id).segments().front().cable, 1});
  }
  FlowSpec spec;
  spec.id = 1;
  spec.src = 0;
  spec.dst = 5;  // unreachable island
  spec.size = DataSize::kilobytes(8);
  std::optional<FlowResult> result;
  rack.network->start_flow(spec, [&](const FlowResult& r) { result = r; });
  sim.run_until();
  ASSERT_TRUE(result.has_value());
  EXPECT_TRUE(result->failed);
  EXPECT_EQ(rack.network->flows_failed(), 1u);
  // All packets accounted: the slot came back.
  EXPECT_EQ(rack.network->free_flow_slots(), rack.network->flow_slots());
}

TEST_F(NetFixture, DeferredStartFiresAtStartTimeOnAFreshSlot) {
  // A spec.start in the future defers the first packet; the start
  // event must fire exactly then, not at schedule time.
  FlowSpec spec;
  spec.id = 1;
  spec.src = 0;
  spec.dst = 5;
  spec.size = DataSize::kilobytes(8);
  spec.start = SimTime::microseconds(50);
  std::optional<FlowResult> result;
  rack.network->start_flow(spec, [&](const FlowResult& r) { result = r; });
  sim.run_until();
  ASSERT_TRUE(result.has_value());
  EXPECT_FALSE(result->failed);
  EXPECT_EQ(result->started, SimTime::microseconds(50));
}

TEST_F(NetFixture, DeferredStartOnRecycledSlotCarriesItsOwnGeneration) {
  // Regression for the start-flow slot guard: the deferred start event
  // captures the claim generation and validates it with is_live before
  // touching the slot. The guard must evaporate only for a genuinely
  // recycled slot — a deferred start scheduled against a RE-CLAIMED
  // slot (same index, newer generation) belongs to the new flow and
  // must still fire. Churn waves of completed flows followed by
  // deferred starts exercise exactly that reuse: with the generation
  // captured at claim each wave starts and completes; a guard keyed on
  // anything staler would silently strand every reused slot.
  const auto run_wave = [&](FlowId base, SimTime start_at) {
    int completed = 0;
    for (FlowId id = base; id < base + 4; ++id) {
      FlowSpec spec;
      spec.id = id;
      spec.src = 0;
      spec.dst = 15;
      spec.size = DataSize::kilobytes(8);
      spec.start = start_at;
      rack.network->start_flow(spec, [&](const FlowResult& r) {
        EXPECT_FALSE(r.failed);
        EXPECT_EQ(r.started, std::max(start_at, SimTime::zero()));
        ++completed;
      });
    }
    sim.run_until();
    EXPECT_EQ(completed, 4);
  };

  run_wave(1, SimTime::zero());  // wave 1: claims slots 0..3, recycles them
  EXPECT_EQ(rack.network->free_flow_slots(), rack.network->flow_slots());
  // Wave 2 re-claims the same four slots with deferred starts; each
  // start event must see ITS claim live, not the recycled wave-1 one.
  run_wave(11, sim.now() + SimTime::microseconds(25));
  EXPECT_EQ(rack.network->flows_completed(), 8u);
  EXPECT_EQ(rack.network->free_flow_slots(), rack.network->flow_slots());

  // Third wave mixes deferred and immediate starts on the reused
  // slots within one batch of claims.
  int completed = 0;
  for (FlowId id = 21; id <= 24; ++id) {
    FlowSpec spec;
    spec.id = id;
    spec.src = 0;
    spec.dst = 15;
    spec.size = DataSize::kilobytes(8);
    if (id % 2 == 0) spec.start = sim.now() + SimTime::microseconds(40);
    rack.network->start_flow(spec, [&](const FlowResult& r) {
      EXPECT_FALSE(r.failed);
      ++completed;
    });
  }
  sim.run_until();
  EXPECT_EQ(completed, 4);
  EXPECT_EQ(rack.network->flows_completed(), 12u);
}

TEST_F(NetFixture, SwitchPowerMatchesBruteForceWindowSum) {
  // The contract, whatever the log's layout: dynamic switch power is
  // pj_per_bit x (bits switched at t >= now - kPowerWindow) over the
  // window. A randomized trace of one-hop probes (each switches its
  // bits exactly once, at send + nic_latency) and queries checks it
  // against a brute-force sum over every recorded hop. The trace
  // covers queries before 1 ms, several hops at one instant, idle gaps
  // past the window and past 2^32 ps, probes over 2^32 bits, and
  // queries exactly on the window edge and 1 ps past it, then a
  // query-free stretch of several windows while hops go on (the log
  // then prunes only when full) and idle gaps past 2^32 ps with the log
  // still holding entries.
  for (std::size_t c = 0; c < rack.plant->cable_count(); ++c) {
    rack.plant->set_cable_ber(static_cast<phy::CableId>(c), 0.0);  // no loss, no resend
  }
  const SimTime window = Network::kPowerWindow;
  struct Hop {
    SimTime t;
    std::uint64_t bits;
  };
  std::vector<Hop> hops;
  int queries = 0;
  // Queries are all scheduled before the run, so at an instant shared
  // with a hop the query fires first: only hops strictly before now
  // have been recorded.
  const auto query = [&] {
    const SimTime now = sim.now();
    std::uint64_t bits = 0;
    for (const Hop& h : hops) {
      if (h.t < now && h.t >= now - window) bits += h.bits;
    }
    const double expected =
        kPortStaticW * static_cast<double>(rack.network->switching_port_count()) +
        static_cast<double>(bits) * kPjPerBit * 1e-12 / window.sec();
    EXPECT_DOUBLE_EQ(rack.network->switch_power_watts(), expected) << "at " << now.ps() << " ps";
    ++queries;
  };
  const std::pair<phy::NodeId, phy::NodeId> pairs[] = {{0, 1}, {1, 0}, {5, 6}, {10, 14}};
  for (const auto& [a, b] : pairs) ASSERT_TRUE(rack.topology->link_between(a, b).has_value());

  sim::RandomStream rng(7, "switch-power-oracle");
  SimTime t = SimTime::microseconds(1);
  // Before 1 ms the window reaches back past time zero.
  for (const SimTime at : {SimTime::zero(), SimTime::microseconds(500),
                           window - SimTime::picoseconds(1), window}) {
    sim.schedule_at(at, query);
  }
  const auto send_at = [&](SimTime at, phy::NodeId a, phy::NodeId b, DataSize size) {
    sim.schedule_at(at, [&, a, b, size] {
      rack.network->send_probe(a, b, size, nullptr);
      hops.push_back({sim.now() + kNicLatency, static_cast<std::uint64_t>(size.bit_count())});
    });
  };
  bool huge_sent = false;
  for (int step = 0; step < 400; ++step) {
    // The first steps stay short, so they (and the first huge probe)
    // land before 1 ms.
    const std::int64_t kind = rng.uniform_int(0, step < 4 ? 5 : 9);
    std::int64_t gap_ps = 0;
    if (kind <= 1) {
      gap_ps = 0;  // several sends at one instant
    } else if (kind <= 5) {
      gap_ps = rng.uniform_int(1, 50'000'000);  // up to 50 us
    } else if (kind <= 7) {
      gap_ps = rng.uniform_int(900'000'000, 1'100'000'000);  // about one window
    } else if (kind == 8) {
      gap_ps = rng.uniform_int(1'000'000'001, 3'000'000'000);  // idle past the window
    } else {
      gap_ps = rng.uniform_int(std::int64_t{1} << 32, std::int64_t{3} << 32);  // past 2^32 ps
    }
    t = t + SimTime::picoseconds(gap_ps);
    const int sends = static_cast<int>(rng.uniform_int(1, 3));
    for (int i = 0; i < sends; ++i) {
      const auto& [a, b] = pairs[rng.uniform_int(0, 3)];
      // Two probes over 2^32 bits (600 MB = 4.8e9 bits): one before
      // 1 ms and one mid-trace.
      const bool huge = (step == 3 && i == 0) || (step == 200 && i == 0);
      huge_sent = huge_sent || huge;
      const DataSize size =
          huge ? DataSize::bytes(600'000'000) : DataSize::bytes(rng.uniform_int(64, 9'000));
      send_at(t, a, b, size);
      // Some hops go unqueried: a push after a long idle gap must
      // then clear a stale log itself.
      if (rng.bernoulli(0.5)) {
        const SimTime recorded = t + kNicLatency;
        sim.schedule_at(recorded + window, query);                           // on the edge
        sim.schedule_at(recorded + window + SimTime::picoseconds(1), query);  // just past it
      }
    }
    if (rng.bernoulli(0.5)) {
      sim.schedule_at(t + SimTime::picoseconds(rng.uniform_int(0, 2'000'000'000)), query);
    }
  }
  // The stretch starts past every query scheduled above and sends a
  // probe every 0.1-0.4 us for 3.5 windows: thousands of entries per
  // window, none pruned by a query.
  t = t + SimTime::milliseconds(3);
  const SimTime stretch_end = t + SimTime::microseconds(3500);
  std::size_t stretch_sends = 0;
  while (t < stretch_end) {
    t = t + SimTime::picoseconds(rng.uniform_int(100'000, 400'000));
    const auto& [a, b] = pairs[rng.uniform_int(0, 3)];
    send_at(t, a, b, DataSize::bytes(rng.uniform_int(64, 1'500)));
    ++stretch_sends;
  }
  // Queries inside and past an idle gap over 2^32 ps that follows the
  // stretch with its last window still logged.
  const SimTime last = t + kNicLatency;
  for (const SimTime at : {last + SimTime::picoseconds(1), last + window,
                           last + window + SimTime::picoseconds(1),
                           last + SimTime::picoseconds((std::int64_t{1} << 32) + 1)}) {
    sim.schedule_at(at, query);
  }
  // One more short stretch, then an idle gap over 2^32 ps with no
  // query in it: the next push finds every entry stale.
  t = last + SimTime::picoseconds((std::int64_t{1} << 32) + 2);
  for (int i = 0; i < 50; ++i, t = t + SimTime::nanoseconds(500)) {
    send_at(t, 5, 6, DataSize::bytes(1'000));
  }
  t = t + SimTime::picoseconds((std::int64_t{1} << 32) + 3);
  send_at(t, 10, 14, DataSize::bytes(2'000));
  for (const SimTime at : {t, t + kNicLatency + SimTime::picoseconds(1), t + window,
                           t + kNicLatency + window + SimTime::picoseconds(1)}) {
    sim.schedule_at(at, query);
  }
  sim.run_until();
  EXPECT_GT(stretch_sends, 8'000u);
  EXPECT_TRUE(huge_sent);
  EXPECT_GT(queries, 500);
  EXPECT_EQ(rack.network->counters().get("net.packets_delivered"), hops.size());
}

/// Runs `scenario` on a fresh rack built from `p`, then checks
/// that every packet and flow slot came back.
template <typename Scenario>
void expect_pools_drain(RackParams p, Scenario scenario) {
  Simulator sim;
  Rack rack = build_grid(&sim, p);
  scenario(sim, rack);
  sim.run_until();
  EXPECT_GT(rack.network->packet_slots(), 0u);
  EXPECT_EQ(rack.network->free_packet_slots(), rack.network->packet_slots());
  EXPECT_EQ(rack.network->free_flow_slots(), rack.network->flow_slots());
}

FlowSpec make_flow(FlowId id, phy::NodeId src, phy::NodeId dst, DataSize size) {
  FlowSpec spec;
  spec.id = id;
  spec.src = src;
  spec.dst = dst;
  spec.size = size;
  return spec;
}

void lossy_no_fec(Rack& rack, double ber) {
  for (std::size_t c = 0; c < rack.plant->cable_count(); ++c) {
    rack.plant->set_cable_ber(static_cast<phy::CableId>(c), ber);
  }
  for (LinkId id : rack.plant->link_ids()) {
    rack.plant->set_fec(id, phy::FecSpec::of(phy::FecScheme::kNone));
  }
}

TEST(NetworkPacketPool, DrainsToAllFreeOnEveryPath) {
  const RackParams base;
  {
    SCOPED_TRACE("delivery");
    expect_pools_drain(base, [](Simulator&, Rack& rack) {
      rack.network->start_flow(make_flow(1, 0, 15, DataSize::kilobytes(256)));
      rack.network->send_probe(3, 12, DataSize::bytes(512), nullptr);
    });
  }
  {
    SCOPED_TRACE("FEC-loss retransmit");
    expect_pools_drain(base, [](Simulator& sim, Rack& rack) {
      lossy_no_fec(rack, 1e-6);
      std::optional<FlowResult> result;
      rack.network->start_flow(make_flow(1, 0, 2, DataSize::kilobytes(512)),
                               [&](const FlowResult& r) { result = r; });
      sim.run_until();
      ASSERT_TRUE(result.has_value());
      EXPECT_FALSE(result->failed);
      EXPECT_GT(rack.network->counters().get("net.frames_corrupted"), 0u);
      EXPECT_GT(result->retransmits, 0u);
    });
  }
  {
    SCOPED_TRACE("no-route backoff");
    RackParams p = base;
    p.width = 2;
    p.height = 1;
    expect_pools_drain(p, [](Simulator& sim, Rack& rack) {
      // The rack's only link retrains under a FEC change: packets wait
      // it out with backoff, then all deliver.
      std::optional<FlowResult> result;
      rack.network->start_flow(make_flow(1, 0, 1, DataSize::megabytes(1)),
                               [&](const FlowResult& r) { result = r; });
      sim.schedule_at(SimTime::microseconds(10), [&rack] {
        rack.engine->submit(
            plp::SetFecCommand{*rack.topology->link_between(0, 1), phy::FecScheme::kRsKp4});
      });
      sim.run_until();
      ASSERT_TRUE(result.has_value());
      EXPECT_FALSE(result->failed);
      EXPECT_GT(rack.network->counters().get("net.reroute_waits"), 0u);
    });
  }
  {
    SCOPED_TRACE("max-hops backstop, then retries exhausted");
    RackParams p = base;
    p.width = 34;  // corner to corner is 66 hops: every attempt trips kMaxHops
    p.height = 34;
    expect_pools_drain(p, [](Simulator& sim, Rack& rack) {
      std::optional<FlowResult> result;
      rack.network->start_flow(
          make_flow(1, rack.node_at(0, 0), rack.node_at(33, 33), DataSize::kilobytes(8)),
          [&](const FlowResult& r) { result = r; });
      sim.run_until();
      ASSERT_TRUE(result.has_value());
      EXPECT_TRUE(result->failed);
      const auto& c = rack.network->counters();
      EXPECT_EQ(c.get("net.frames_corrupted"), 0u);
      EXPECT_GT(c.get("net.retransmits"), 0u);
      EXPECT_GT(c.get("net.drops.retries_exhausted"), 0u);
    });
  }
  {
    SCOPED_TRACE("FEC-loss retries exhausted, stragglers of the failed flow");
    expect_pools_drain(base, [](Simulator& sim, Rack& rack) {
      // Uncoded 1 KB frames at this BER cross six hops only rarely, so
      // some packet exhausts its kMaxRetries budget.
      lossy_no_fec(rack, 1e-4);
      std::optional<FlowResult> result;
      rack.network->start_flow(make_flow(1, 0, 15, DataSize::kilobytes(64)),
                               [&](const FlowResult& r) { result = r; });
      sim.run_until();
      ASSERT_TRUE(result.has_value());
      EXPECT_TRUE(result->failed);
      // Packets still in flight when the flow failed drained after it.
      const auto& c = rack.network->counters();
      EXPECT_GT(c.get("net.drops.retries_exhausted"), 0u);
      EXPECT_GT(c.get("net.packets_injected"),
                c.get("net.packets_delivered") + c.get("net.drops.retries_exhausted"));
    });
  }
  {
    SCOPED_TRACE("no-route drops, stragglers of the failed flow");
    expect_pools_drain(base, [](Simulator& sim, Rack& rack) {
      for (LinkId id : rack.topology->links_at(5)) {
        rack.plant->fail_lane({rack.plant->link(id).segments().front().cable, 0});
        rack.plant->fail_lane({rack.plant->link(id).segments().front().cable, 1});
      }
      std::optional<FlowResult> result;
      rack.network->start_flow(make_flow(1, 0, 5, DataSize::kilobytes(8)),
                               [&](const FlowResult& r) { result = r; });
      sim.run_until();
      ASSERT_TRUE(result.has_value());
      EXPECT_TRUE(result->failed);
      // All eight packets were in flight when the first one dropped.
      EXPECT_EQ(rack.network->counters().get("net.drops.no_route"), 8u);
      EXPECT_EQ(rack.network->packet_slots(), 8u);
    });
  }
}

TEST_F(NetFixture, HopStateSurvivesEveryDetour) {
  // A hop event carries the packet's node, destination, hop count,
  // frame size and tail offset; the slot holds the rest. Each detour
  // below hands that state from one event to the next, and each
  // probe's hops, hop-count record and latency must match its closed
  // form exactly. All links of one rack are alike, so any link's
  // figures serve.
  const DataSize header = DataSize::bytes(64);
  struct Leg {
    SimTime ser, hdr, transit;
  };
  const auto leg_of = [&](const Rack& r, DataSize size) {
    const phy::LogicalLink& l = r.plant->link(*r.topology->link_between(0, 1));
    return Leg{l.serialization_delay(size), l.serialization_delay(std::min(header, size)),
               l.propagation_delay() + l.fec().latency};
  };
  const auto send = [](Simulator& s, Rack& r, phy::NodeId src, phy::NodeId dst, DataSize size) {
    std::optional<FlowResult> out;
    r.network->send_probe(src, dst, size, [&](const FlowResult& res) { out = res; });
    s.run_until();
    EXPECT_TRUE(out.has_value());
    return out.value_or(FlowResult{});
  };

  {
    SCOPED_TRACE("probe over 2^32 bits, tail 2^32 ps past its hop event");
    const DataSize size = DataSize::bytes(600'000'000);
    const Leg leg = leg_of(rack, size);
    ASSERT_GT(size.bit_count(), std::int64_t{1} << 32);
    ASSERT_GT((leg.ser - leg.hdr).ps(), std::int64_t{1} << 32);
    // Cut-through: each further hop starts when the head clears the
    // next switch; the last one streams the whole frame.
    const FlowResult r = send(sim, rack, rack.node_at(0, 0), rack.node_at(3, 0), size);
    EXPECT_FALSE(r.failed);
    EXPECT_EQ(r.hops, 3);
    EXPECT_EQ(r.completion_time(), kNicLatency + 2 * (leg.hdr + leg.transit + kSwitchLatency) +
                                       leg.ser + leg.transit + kNicLatency);
    EXPECT_EQ(rack.network->hop_counts().count(), 1u);
    EXPECT_EQ(rack.network->hop_counts().max(), 3.0);
  }
  {
    SCOPED_TRACE("FEC-loss retransmits on the uncoded BER-1e-4 rack");
    Simulator s;
    Rack r = build_grid(&s, RackParams{});
    lossy_no_fec(r, 1e-4);
    const DataSize size = DataSize::bytes(1024);
    const Leg leg = leg_of(r, size);
    const SimTime attempt = kNicLatency + leg.ser + leg.transit;
    std::uint64_t retransmits = 0;
    for (int i = 0; i < 20; ++i) {
      const FlowResult res = send(s, r, 0, 1, size);
      ASSERT_FALSE(res.failed);
      EXPECT_EQ(res.hops, 1);
      // Every lost attempt reaches the far end, then waits kRetryDelay.
      const auto lost = static_cast<std::int64_t>(res.retransmits);
      EXPECT_EQ(res.completion_time(), lost * (attempt + kRetryDelay) + attempt + kNicLatency);
      retransmits += res.retransmits;
    }
    EXPECT_GT(retransmits, 0u);
    EXPECT_EQ(r.network->hop_counts().count(), 20u);
    EXPECT_EQ(r.network->hop_counts().max(), 1.0);
  }
  {
    SCOPED_TRACE("no-route wait while the rack's only link retrains");
    Simulator s;
    RackParams p;
    p.width = 2;
    p.height = 1;
    Rack r = build_grid(&s, p);
    r.engine->submit(plp::SetFecCommand{*r.topology->link_between(0, 1), phy::FecScheme::kRsKp4});
    const DataSize size = DataSize::bytes(1024);
    const FlowResult res = send(s, r, 0, 1, size);
    EXPECT_FALSE(res.failed);
    EXPECT_EQ(res.hops, 1);
    const std::uint64_t waits = r.network->counters().get("net.reroute_waits");
    ASSERT_GT(waits, 0u);
    // Backoff kRetryDelay x 2^min(k, 6) before retry k, then one hop
    // with head and tail both at the retry.
    SimTime waited = SimTime::zero();
    for (std::uint64_t k = 0; k < waits; ++k) {
      waited += kRetryDelay * (std::int64_t{1} << std::min<std::uint64_t>(k, 6));
    }
    const Leg leg = leg_of(r, size);
    EXPECT_EQ(res.completion_time(),
              kNicLatency + waited + leg.ser + leg.transit + kNicLatency);
    EXPECT_EQ(r.network->hop_counts().count(), 1u);
    EXPECT_EQ(r.network->hop_counts().max(), 1.0);
  }
  {
    SCOPED_TRACE("kMaxHops backstop on every attempt, then retries exhausted");
    Simulator s;
    RackParams p;
    p.width = 34;  // corner to corner is 66 hops
    p.height = 34;
    Rack r = build_grid(&s, p);
    const DataSize size = DataSize::bytes(1024);
    const FlowResult res = send(s, r, r.node_at(0, 0), r.node_at(33, 33), size);
    EXPECT_TRUE(res.failed);
    EXPECT_EQ(res.hops, kMaxHops);
    EXPECT_EQ(res.retransmits, static_cast<std::uint64_t>(kMaxRetries));
    // Each attempt crosses kMaxHops links cut-through and turns back
    // when the head reaches the last one's far end.
    const Leg leg = leg_of(r, size);
    const SimTime attempt = kNicLatency + kMaxHops * (leg.hdr + leg.transit) +
                            (kMaxHops - 1) * kSwitchLatency;
    EXPECT_EQ(res.completion_time(), (kMaxRetries + 1) * attempt + kMaxRetries * kRetryDelay);
    EXPECT_EQ(r.network->hop_counts().count(), 0u);
    EXPECT_EQ(r.network->counters().get("net.drops.retries_exhausted"), 1u);
  }
}

TEST_F(NetFixture, PacketPoolHoldsPeakInFlightAndReusesSlots) {
  // A flow keeps at most kFlowWindow packets in flight, so the pool
  // never grows past it, however many packets pass through.
  const int window = kFlowWindow;
  rack.network->start_flow(make_flow(1, 0, 15, DataSize::megabytes(2)));
  sim.run_until(1_ns);  // the start event has pumped a full window
  EXPECT_EQ(rack.network->packet_slots(), static_cast<std::size_t>(window));
  EXPECT_EQ(rack.network->free_packet_slots(), 0u);
  sim.run_until();
  EXPECT_GT(rack.network->counters().get("net.packets_delivered"), 100u * window);
  EXPECT_EQ(rack.network->packet_slots(), static_cast<std::size_t>(window));
  EXPECT_EQ(rack.network->free_packet_slots(), static_cast<std::size_t>(window));

  // Released before the callback runs: a probe chained from a probe's
  // completion reuses the slot it just freed.
  int left = 50;
  std::function<void(const FlowResult&)> next = [&](const FlowResult& r) {
    ASSERT_FALSE(r.failed);
    EXPECT_EQ(rack.network->free_packet_slots(), static_cast<std::size_t>(window));
    if (--left > 0) rack.network->send_probe(0, 15, DataSize::bytes(256), next);
  };
  rack.network->send_probe(0, 15, DataSize::bytes(256), next);
  sim.run_until();
  EXPECT_EQ(left, 0);
  EXPECT_EQ(rack.network->packet_slots(), static_cast<std::size_t>(window));
}

}  // namespace
}  // namespace rsf::fabric
