#include <gtest/gtest.h>

#include "fabric/builders.hpp"
#include "workload/generator.hpp"
#include "workload/mapreduce.hpp"
#include "workload/traffic.hpp"

namespace rsf::workload {
namespace {

using phy::DataSize;
using phy::NodeId;
using rsf::sim::RandomStream;
using rsf::sim::SimTime;
using rsf::sim::Simulator;
using namespace rsf::sim::literals;

// --- TrafficMatrix ---

TEST(TrafficMatrix, UniformExcludesSelf) {
  const auto m = TrafficMatrix::uniform(4);
  for (std::uint32_t s = 0; s < 4; ++s) {
    EXPECT_EQ(m.demand(s, s), 0.0);
    EXPECT_DOUBLE_EQ(m.row_sum(s), 3.0);
  }
}

TEST(TrafficMatrix, SetAndBounds) {
  TrafficMatrix m(3);
  m.set_demand(0, 1, 2.5);
  EXPECT_DOUBLE_EQ(m.demand(0, 1), 2.5);
  EXPECT_THROW(m.set_demand(3, 0, 1.0), std::out_of_range);
  EXPECT_THROW(m.set_demand(0, 1, -1.0), std::invalid_argument);
  EXPECT_THROW(TrafficMatrix(0), std::invalid_argument);
}

TEST(TrafficMatrix, SampleDstRespectsWeights) {
  TrafficMatrix m(3);
  m.set_demand(0, 1, 9.0);
  m.set_demand(0, 2, 1.0);
  RandomStream rng(3);
  int to1 = 0;
  const int n = 10000;
  for (int i = 0; i < n; ++i) {
    const NodeId d = m.sample_dst(0, rng);
    EXPECT_NE(d, 0u);
    if (d == 1) ++to1;
  }
  EXPECT_NEAR(static_cast<double>(to1) / n, 0.9, 0.02);
}

TEST(TrafficMatrix, SampleDstEmptyRowReturnsSelf) {
  TrafficMatrix m(3);
  RandomStream rng(3);
  EXPECT_EQ(m.sample_dst(1, rng), 1u);
}

TEST(TrafficMatrix, HotspotConcentratesDemand) {
  const auto m = TrafficMatrix::hotspot(8, 3, 0.7);
  double to_hot = 0;
  double total = 0;
  for (std::uint32_t s = 0; s < 8; ++s) {
    for (std::uint32_t d = 0; d < 8; ++d) {
      total += m.demand(s, d);
      if (d == 3) to_hot += m.demand(s, d);
    }
  }
  EXPECT_GT(to_hot / total, 0.6);
  EXPECT_THROW(TrafficMatrix::hotspot(8, 3, 1.5), std::invalid_argument);
}

TEST(TrafficMatrix, IncastAllToSink) {
  const auto m = TrafficMatrix::incast(5, 2);
  for (std::uint32_t s = 0; s < 5; ++s) {
    for (std::uint32_t d = 0; d < 5; ++d) {
      if (s != 2 && d == 2) {
        EXPECT_GT(m.demand(s, d), 0.0);
      } else {
        EXPECT_EQ(m.demand(s, d), 0.0);
      }
    }
  }
}

TEST(TrafficMatrix, OppositePairsMaxDistance) {
  const auto m = TrafficMatrix::opposite(8);
  EXPECT_GT(m.demand(0, 4), 0.0);
  EXPECT_GT(m.demand(1, 5), 0.0);
  EXPECT_EQ(m.demand(0, 1), 0.0);
}

TEST(TrafficMatrix, ShufflePattern) {
  const auto m = TrafficMatrix::shuffle(6, {0, 1}, {4, 5});
  EXPECT_GT(m.demand(0, 4), 0.0);
  EXPECT_GT(m.demand(1, 5), 0.0);
  EXPECT_EQ(m.demand(4, 0), 0.0);
  EXPECT_EQ(m.demand(0, 1), 0.0);
}

// --- SizeDistribution ---

TEST(SizeDistribution, FixedAlwaysSame) {
  RandomStream rng(5);
  const auto d = SizeDistribution::fixed_size(DataSize::kilobytes(32));
  for (int i = 0; i < 10; ++i) EXPECT_EQ(d.sample(rng), DataSize::kilobytes(32));
}

TEST(SizeDistribution, HeavyTailInBounds) {
  RandomStream rng(5);
  const auto d = SizeDistribution::heavy_tail(1.2, 1e3, 1e6);
  for (int i = 0; i < 1000; ++i) {
    const auto s = d.sample(rng);
    EXPECT_GE(s.byte_count(), 1e3 - 1);
    EXPECT_LE(s.byte_count(), 1e6 + 1);
  }
}

// --- FlowGenerator ---

struct GenFixture : ::testing::Test {
  Simulator sim;
  fabric::Rack rack;

  GenFixture() {
    fabric::RackParams p;
    p.width = 4;
    p.height = 4;
    rack = fabric::build_grid(&sim, p);
  }
};

TEST_F(GenFixture, GeneratesAndCompletesFlows) {
  GeneratorConfig cfg;
  cfg.mean_interarrival = 50_us;
  cfg.horizon = 1_ms;
  cfg.sizes = SizeDistribution::fixed_size(DataSize::kilobytes(16));
  FlowGenerator gen(&sim, rack.network.get(), TrafficMatrix::uniform(16), cfg);
  gen.start();
  sim.run_until();
  EXPECT_GT(gen.flows_generated(), 100u);
  EXPECT_EQ(gen.results().size(), gen.flows_generated());
  for (const auto& r : gen.results()) EXPECT_FALSE(r.failed);
  EXPECT_GT(gen.goodput_gbps(), 0.0);
  EXPECT_GT(gen.completion_histogram().count(), 0u);
}

TEST_F(GenFixture, DeterministicAcrossRuns) {
  auto run_once = [](std::uint64_t seed) {
    Simulator sim2;
    fabric::RackParams p;
    p.width = 4;
    p.height = 4;
    fabric::Rack r = fabric::build_grid(&sim2, p);
    GeneratorConfig cfg;
    cfg.seed = seed;
    cfg.mean_interarrival = 50_us;
    cfg.horizon = 500_us;
    FlowGenerator gen(&sim2, r.network.get(), TrafficMatrix::uniform(16), cfg);
    gen.start();
    sim2.run_until();
    return gen.flows_generated();
  };
  EXPECT_EQ(run_once(42), run_once(42));
  EXPECT_NE(run_once(42), run_once(43));
}

TEST_F(GenFixture, HorizonStopsGeneration) {
  GeneratorConfig cfg;
  cfg.mean_interarrival = 10_us;
  cfg.horizon = 100_us;
  FlowGenerator gen(&sim, rack.network.get(), TrafficMatrix::uniform(16), cfg);
  gen.start();
  sim.run_until();
  for (const auto& r : gen.results()) {
    EXPECT_LE(r.spec.start, 100_us);
  }
}

TEST_F(GenFixture, ValidatesConfig) {
  GeneratorConfig cfg;
  cfg.mean_interarrival = SimTime::zero();
  EXPECT_THROW(FlowGenerator(&sim, rack.network.get(), TrafficMatrix::uniform(16), cfg),
               std::invalid_argument);
  EXPECT_THROW(FlowGenerator(nullptr, rack.network.get(), TrafficMatrix::uniform(16),
                             GeneratorConfig{}),
               std::invalid_argument);
}

// --- ShuffleJob ---

TEST_F(GenFixture, ShuffleBarrierSemantics) {
  ShuffleConfig cfg;
  cfg.mappers = {0, 1, 2, 3};
  cfg.reducers = {12, 13, 14, 15};
  cfg.bytes_per_pair = DataSize::kilobytes(64);
  ShuffleJob job(&sim, rack.network.get(), cfg);
  std::optional<ShuffleResult> result;
  job.run([&](const ShuffleResult& r) { result = r; });
  sim.run_until();
  ASSERT_TRUE(result.has_value());
  EXPECT_TRUE(job.finished());
  EXPECT_EQ(result->flows, 16u);
  EXPECT_EQ(result->failed, 0u);
  EXPECT_GE(result->max_flow, result->median_flow);
  EXPECT_GE(result->straggler_ratio(), 1.0);
  // The job is gated by its slowest flow.
  EXPECT_GE(result->job_completion, result->max_flow);
}

TEST_F(GenFixture, ShuffleSkipsColocatedPairs) {
  ShuffleConfig cfg;
  cfg.mappers = {0, 1};
  cfg.reducers = {1, 2};
  cfg.bytes_per_pair = DataSize::kilobytes(4);
  ShuffleJob job(&sim, rack.network.get(), cfg);
  std::optional<ShuffleResult> result;
  job.run([&](const ShuffleResult& r) { result = r; });
  sim.run_until();
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->flows, 3u);  // (0->1, 0->2, 1->2); 1->1 skipped
}

TEST_F(GenFixture, ShuffleRejectsDoubleRunAndEmptySets) {
  ShuffleConfig cfg;
  cfg.mappers = {0};
  cfg.reducers = {1};
  ShuffleJob job(&sim, rack.network.get(), cfg);
  job.run(nullptr);
  EXPECT_THROW(job.run(nullptr), std::logic_error);
  ShuffleConfig empty;
  EXPECT_THROW(ShuffleJob(&sim, rack.network.get(), empty), std::invalid_argument);
}

}  // namespace
}  // namespace rsf::workload
