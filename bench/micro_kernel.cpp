// MICRO — google-benchmark microbenchmarks of the hot substrate paths.
//
// Not a paper artefact: these guard the simulator's own performance so
// the experiment benches stay fast enough to sweep (a rack-scale run
// pushes millions of events through these paths).
#include <benchmark/benchmark.h>

#include <cstdint>
#include <vector>

#include "phy/fec.hpp"
#include "phy/plant.hpp"
#include "runtime/runtime.hpp"
#include "sim/random.hpp"
#include "sim/simulator.hpp"
#include "telemetry/histogram.hpp"

namespace {

using namespace rsf;
using namespace rsf::sim::literals;

void BM_SimulatorScheduleRun(benchmark::State& state) {
  for (auto _ : state) {
    sim::Simulator sim;
    for (int i = 0; i < 1000; ++i) {
      sim.schedule_at(sim::SimTime::nanoseconds(i), [] {});
    }
    benchmark::DoNotOptimize(sim.run_until());
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_SimulatorScheduleRun);

void BM_SimulatorSelfRescheduling(benchmark::State& state) {
  for (auto _ : state) {
    sim::Simulator sim;
    std::function<void()> tick = [&] {
      if (sim.now() < 10_us) sim.schedule_after(10_ns, tick);
    };
    sim.schedule_at(sim::SimTime::zero(), tick);
    benchmark::DoNotOptimize(sim.run_until());
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_SimulatorSelfRescheduling);

void BM_SimulatorFarFuture(benchmark::State& state) {
  // A deep pending set: 10^5 events spread over 8 ms, far past the
  // ~4.2 us ring window, so nearly every event waits in tier 2 or on
  // the far list and reaches the ring by promotion — the path a
  // torus upgrade's pending set lives on.
  constexpr int kEvents = 100'000;
  constexpr std::uint64_t kSpreadPs = 8'000'000'000;
  for (auto _ : state) {
    sim::Simulator sim;
    std::uint64_t x = 1;
    for (int i = 0; i < kEvents; ++i) {
      x = x * 6364136223846793005ull + 1442695040888963407ull;
      sim.schedule_at(sim::SimTime::picoseconds(static_cast<std::int64_t>((x >> 20) % kSpreadPs)),
                      [] {});
    }
    benchmark::DoNotOptimize(sim.run_until());
  }
  state.SetItemsProcessed(state.iterations() * kEvents);
}
BENCHMARK(BM_SimulatorFarFuture);

void BM_SimulatorSameInstantBurst(benchmark::State& state) {
  // 10^5 events at one instant, all in one ring bucket: each schedule
  // appends at the bucket's tail and the drain is one batch, so the
  // cost per event stays flat however large the burst grows.
  constexpr int kEvents = 100'000;
  for (auto _ : state) {
    sim::Simulator sim;
    for (int i = 0; i < kEvents; ++i) sim.schedule_at(1_ns, [] {});
    benchmark::DoNotOptimize(sim.run_until());
  }
  state.SetItemsProcessed(state.iterations() * kEvents);
}
BENCHMARK(BM_SimulatorSameInstantBurst);

// One continuation of the deep-queue workload: a full-size inline
// capture (kInlineEventBytes, the size of a rack hop's) that
// reschedules itself at a pseudo-random gap until the shared budget
// runs out.
struct DeepQueueHop {
  sim::Simulator* sim;
  std::uint64_t* budget;
  std::uint64_t rng;
  std::uint64_t pad[(sim::kInlineEventBytes - 3 * sizeof(std::uint64_t)) / sizeof(std::uint64_t)];

  void operator()() {
    if (*budget == 0) return;
    --*budget;
    rng = rng * 6364136223846793005ull + 1442695040888963407ull;
    // Gaps of 1 ns to 1 ms, as queueing delays in a congested rack
    // reach: a few land in the ~4.2 us ring window, the rest wait in
    // tier 2 and arrive by promotion.
    const auto gap_ps = static_cast<std::int64_t>(1'000 + (rng >> 24) % 1'000'000'000);
    sim->schedule_after(sim::SimTime::picoseconds(gap_ps), *this);
  }
};
static_assert(sizeof(DeepQueueHop) == sim::kInlineEventBytes);
static_assert(sim::is_inline_event_v<DeepQueueHop>);

void BM_SimulatorDeepQueue(benchmark::State& state) {
  // About 10^5 events pending at once, each a full-size inline record
  // whose gaps reach past the ring window — the regime of a torus
  // upgrade under load. The chains start spread over the first 1 ms
  // and fire four times each on average before the budget drains.
  constexpr int kPending = 100'000;
  constexpr std::uint64_t kReschedules = 300'000;
  for (auto _ : state) {
    sim::Simulator sim;
    std::uint64_t budget = kReschedules;
    for (int i = 0; i < kPending; ++i) {
      DeepQueueHop hop{&sim, &budget, (static_cast<std::uint64_t>(i) + 1) * 0x9E3779B97F4A7C15ull, {}};
      const auto start_ps = static_cast<std::int64_t>((hop.rng >> 24) % 1'000'000'000);
      sim.schedule_at(sim::SimTime::picoseconds(start_ps), hop);
    }
    benchmark::DoNotOptimize(sim.run_until());
  }
  state.SetItemsProcessed(state.iterations() * (kPending + kReschedules));
}
BENCHMARK(BM_SimulatorDeepQueue);

void BM_RandomExponential(benchmark::State& state) {
  sim::RandomStream rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng.exponential(100.0));
  }
}
BENCHMARK(BM_RandomExponential);

void BM_HistogramRecord(benchmark::State& state) {
  telemetry::Histogram h;
  sim::RandomStream rng(2);
  for (auto _ : state) {
    h.record(rng.uniform(1.0, 1e9));
  }
  benchmark::DoNotOptimize(h.count());
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HistogramRecord);

void BM_HistogramRecordTime(benchmark::State& state) {
  // The integer path every per-packet latency takes: the same values
  // as BM_HistogramRecord, whole picoseconds, recorded as SimTime.
  telemetry::Histogram h;
  sim::RandomStream rng(2);
  for (auto _ : state) {
    h.record(sim::SimTime::picoseconds(static_cast<std::int64_t>(rng.uniform(1.0, 1e9))));
  }
  benchmark::DoNotOptimize(h.count());
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HistogramRecordTime);

void BM_FecFrameLoss(benchmark::State& state) {
  const auto spec = phy::FecSpec::of(phy::FecScheme::kRsKp4);
  double ber = 1e-6;
  for (auto _ : state) {
    benchmark::DoNotOptimize(spec.frame_loss_prob(ber, phy::DataSize::bytes(1500)));
    ber = ber < 1e-4 ? ber * 1.01 : 1e-6;
  }
}
BENCHMARK(BM_FecFrameLoss);

void BM_AccountFrame(benchmark::State& state) {
  // PLP #5 accounting of one 1 KB frame per iteration, as every rack
  // hop does: Arg(1) is a 2-lane adjacent RS-KR4 link, Arg(5) a 2-lane
  // bypass link over 5 cable segments. O(1) in both: every iteration
  // after the first hits the link's frame-cost memo, and the 10 lanes
  // are visited once, at the final fold.
  const int segments = static_cast<int>(state.range(0));
  phy::PhysicalPlant plant;
  std::vector<phy::LinkSegment> path;
  for (int s = 0; s < segments; ++s) {
    const auto cable = plant.add_cable(static_cast<phy::NodeId>(s), static_cast<phy::NodeId>(s + 1),
                                       2.0, phy::Medium::kFiber, 2, phy::DataRate::gbps(25));
    path.push_back(phy::LinkSegment{cable, {0, 1}});
  }
  const phy::LinkId link =
      plant.create_link(0, static_cast<phy::NodeId>(segments), std::move(path),
                        phy::FecSpec::of(phy::FecScheme::kRsKr4));
  for (auto _ : state) {
    const phy::FrameCost& cost =
        plant.account_frame(link, phy::DataSize::bytes(1024), phy::DataSize::bytes(64));
    benchmark::DoNotOptimize(cost.loss);
  }
  benchmark::DoNotOptimize(plant.lane_bits_carried({0, 0}));
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_AccountFrame)->Arg(1)->Arg(5);

void BM_RouterDijkstra(benchmark::State& state) {
  runtime::RuntimeConfig cfg;
  cfg.rack.width = static_cast<int>(state.range(0));
  cfg.rack.height = static_cast<int>(state.range(0));
  cfg.enable_crc = false;
  runtime::FabricRuntime rt(cfg);
  phy::NodeId dst = 0;
  for (auto _ : state) {
    rt.router().bump_prices();  // force recompute
    benchmark::DoNotOptimize(
        rt.router().next_hop(static_cast<phy::NodeId>(rt.node_count() - 1), dst));
    dst = (dst + 1) % rt.node_count();
  }
}
BENCHMARK(BM_RouterDijkstra)->Arg(4)->Arg(8)->Arg(16);

void BM_RouterNextHopWarm(benchmark::State& state) {
  // The per-hop routing decision under fixed prices: every (at, dst)
  // pair of a 6x6 torus, memos warm, so each lookup is the inline
  // stamp check and one array read. items/s is lookups per second.
  runtime::RuntimeConfig cfg;
  cfg.shape = runtime::RackShape::kTorus;
  cfg.rack.width = 6;
  cfg.rack.height = 6;
  cfg.enable_crc = false;
  runtime::FabricRuntime rt(cfg);
  fabric::Router& router = rt.router();
  const phy::NodeId n = rt.node_count();
  const auto sweep = [&] {
    for (phy::NodeId at = 0; at < n; ++at) {
      for (phy::NodeId dst = 0; dst < n; ++dst) {
        benchmark::DoNotOptimize(router.next_hop(at, dst));
      }
    }
  };
  sweep();  // warm every row and memo
  for (auto _ : state) sweep();
  state.SetItemsProcessed(state.iterations() * n * n);
}
BENCHMARK(BM_RouterNextHopWarm);

void BM_PlpReconfigChurn(benchmark::State& state) {
  // What a PLP reconfiguration costs routing: split/bundle round trips
  // on one link of a 6x6 grid, with an all-pairs next_hop sweep after
  // each command's submit and after its completion, so every version
  // bump the plant makes is paid for as row rebuilds. items/s is round
  // trips per second.
  runtime::RuntimeConfig cfg;
  cfg.rack.width = 6;
  cfg.rack.height = 6;
  cfg.enable_crc = false;
  runtime::FabricRuntime rt(cfg);
  fabric::Router& router = rt.router();
  plp::PlpEngine& engine = rt.engine();
  const phy::NodeId n = rt.node_count();
  const auto sweep = [&] {
    for (phy::NodeId at = 0; at < n; ++at) {
      for (phy::NodeId dst = 0; dst < n; ++dst) {
        benchmark::DoNotOptimize(router.next_hop(at, dst));
      }
    }
  };
  phy::LinkId link = *rt.topology().link_between(14, 15);  // (2,2)-(3,2)
  std::vector<phy::LinkId> halves;
  for (auto _ : state) {
    engine.submit(plp::SplitCommand{link, 1},
                  [&](const plp::PlpResult& r) { halves = r.created; });
    sweep();
    rt.run_until();
    sweep();
    engine.submit(plp::BundleCommand{halves[0], halves[1]},
                  [&](const plp::PlpResult& r) { link = r.created.front(); });
    sweep();
    rt.run_until();
    sweep();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PlpReconfigChurn);

void BM_PacketTransportOneFlow(benchmark::State& state) {
  // The end-to-end hot path: one 256 KB flow corner to corner on a 4x4
  // grid. items/s is simulator events per second — the figure the
  // dense-id refactor targets.
  std::uint64_t events = 0;
  for (auto _ : state) {
    runtime::RuntimeConfig cfg;
    cfg.rack.width = 4;
    cfg.rack.height = 4;
    cfg.enable_crc = false;
    runtime::FabricRuntime rt(cfg);
    fabric::FlowSpec spec;
    spec.id = 1;
    spec.src = 0;
    spec.dst = 15;
    spec.size = phy::DataSize::kilobytes(256);
    rt.network().start_flow(spec, nullptr);
    rt.run_until();
    benchmark::DoNotOptimize(rt.network().flows_completed());
    events += rt.sim().executed();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(events));
}
BENCHMARK(BM_PacketTransportOneFlow);

void BM_PacketTransportManyInFlight(benchmark::State& state) {
  // The deep in-flight regime of a rack under heavy load (fig2 runs
  // thousands of concurrent flows): 6,250 flows of one window each,
  // all started at once on a 6x6 grid, hold 10^5 packets in flight,
  // so per-packet state no longer fits in cache. items/s is simulator
  // events per second.
  constexpr int kFlows = 6'250;
  std::uint64_t events = 0;
  std::size_t in_flight = 0;
  for (auto _ : state) {
    runtime::RuntimeConfig cfg;
    cfg.rack.width = 6;
    cfg.rack.height = 6;
    cfg.enable_crc = false;
    runtime::FabricRuntime rt(cfg);
    const int nodes = cfg.rack.width * cfg.rack.height;
    for (int i = 0; i < kFlows; ++i) {
      fabric::FlowSpec spec;
      spec.id = static_cast<fabric::FlowId>(i + 1);
      spec.src = static_cast<phy::NodeId>(i % nodes);
      spec.dst = static_cast<phy::NodeId>((i + 1 + i / nodes % (nodes - 1)) % nodes);
      spec.size = phy::DataSize::bytes(1024 * fabric::kFlowWindow);
      rt.network().start_flow(spec, nullptr);
    }
    rt.run_until();
    benchmark::DoNotOptimize(rt.network().flows_completed());
    events += rt.sim().executed();
    in_flight = rt.network().packet_slots();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(events));
  state.counters["peak_in_flight"] = static_cast<double>(in_flight);
}
BENCHMARK(BM_PacketTransportManyInFlight)->Unit(benchmark::kMillisecond);

void BM_PacketTransportProbeChain(benchmark::State& state) {
  // A fleet rack leg's shape: eight chains of 1 KB probes across a 4x4
  // grid, each completion ([this, idx]) sending its chain's next probe.
  // items/s is probes per second.
  struct Chains {
    fabric::Network* net;
    std::uint64_t left;
    void send(std::uint32_t idx) {
      net->send_probe(idx, 15 - idx, phy::DataSize::bytes(1024),
                      [this, idx](const fabric::ProbeResult&) {
                        if (left == 0) return;
                        --left;
                        send(idx);
                      });
    }
  };
  constexpr std::uint64_t kProbes = 20'000;
  std::uint64_t probes = 0;
  for (auto _ : state) {
    runtime::RuntimeConfig cfg;
    cfg.rack.width = 4;
    cfg.rack.height = 4;
    cfg.enable_crc = false;
    runtime::FabricRuntime rt(cfg);
    Chains chains{&rt.network(), kProbes};
    for (std::uint32_t idx = 0; idx < 8; ++idx) chains.send(idx);
    rt.run_until();
    probes += rt.network().counters().get("net.probes");
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(probes));
}
BENCHMARK(BM_PacketTransportProbeChain);

}  // namespace

BENCHMARK_MAIN();
