// MICRO — google-benchmark microbenchmarks of the hot substrate paths.
//
// Not a paper artefact: these guard the simulator's own performance so
// the experiment benches stay fast enough to sweep (a rack-scale run
// pushes millions of events through these paths).
#include <benchmark/benchmark.h>

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
}
BENCHMARK(BM_HistogramRecord);

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
  // bypass link over 5 cable segments (10 lanes visited).
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
  sim::RandomStream rng(3, "account");
  for (auto _ : state) {
    plant.account_frame(link, phy::DataSize::bytes(1024), rng);
  }
  benchmark::DoNotOptimize(plant.cable(0).lane(0).stats().corrected_codewords);
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

}  // namespace

BENCHMARK_MAIN();
