#include <gtest/gtest.h>
#include <cmath>

#include "core/breakeven.hpp"
#include "core/price.hpp"

namespace rsf::core {
namespace {

using phy::DataRate;
using phy::DataSize;
using rsf::sim::SimTime;
using namespace rsf::sim::literals;

LinkObservation base_obs() {
  LinkObservation o;
  o.link = 1;
  o.ready = true;
  o.unloaded_latency_ns = 300.0;
  o.utilization = 0.0;
  o.mean_queue_delay_ns = 0.0;
  o.frame_loss = 0.0;
  o.power_watts = 2.0;
  return o;
}

// --- price_link ---

TEST(Price, NotReadyIsInfinite) {
  auto o = base_obs();
  o.ready = false;
  EXPECT_TRUE(std::isinf(price_link(o, PriceWeights::balanced())));
}

TEST(Price, LatencyOnlyEqualsLatency) {
  const auto o = base_obs();
  EXPECT_DOUBLE_EQ(price_link(o, PriceWeights::latency_only()), 300.0);
}

TEST(Price, CongestionTermGrowsConvexly) {
  const PriceWeights w = PriceWeights::balanced();
  auto o = base_obs();
  o.utilization = 0.2;
  const double p20 = price_link(o, w);
  o.utilization = 0.6;
  const double p60 = price_link(o, w);
  o.utilization = 0.9;
  const double p90 = price_link(o, w);
  EXPECT_LT(p20, p60);
  EXPECT_LT(p60, p90);
  // Convex: the 0.6 -> 0.9 jump dwarfs the 0.2 -> 0.6 jump.
  EXPECT_GT(p90 - p60, p60 - p20);
}

TEST(Price, QueueDelayAddsLinearly) {
  const PriceWeights w = PriceWeights::balanced();
  auto o = base_obs();
  const double base = price_link(o, w);
  o.mean_queue_delay_ns = 500.0;
  EXPECT_NEAR(price_link(o, w) - base, 500.0, 1e-9);
}

TEST(Price, HealthPenaltyScalesWithLoss) {
  const PriceWeights w = PriceWeights::balanced();
  auto o = base_obs();
  const double base = price_link(o, w);
  o.frame_loss = 0.01;
  EXPECT_NEAR(price_link(o, w) - base, 0.01 * w.loss_penalty_ns, 1e-9);
}

TEST(Price, PowerTermOnlyWhenWeighted) {
  auto o = base_obs();
  const double balanced = price_link(o, PriceWeights::balanced());
  const double power_aware = price_link(o, PriceWeights::power_aware());
  EXPECT_GT(power_aware, balanced);
  EXPECT_NEAR(power_aware - balanced, 2.0 * 100.0, 1e-9);
}

TEST(Price, UtilizationClampedBelowOne) {
  auto o = base_obs();
  o.utilization = 1.0;  // would divide by zero un-clamped
  EXPECT_TRUE(std::isfinite(price_link(o, PriceWeights::balanced())));
}

TEST(PriceBook, UpdateAndLookup) {
  RackSnapshot snap;
  snap.links.push_back(base_obs());
  auto dead = base_obs();
  dead.link = 2;
  dead.ready = false;
  snap.links.push_back(dead);

  PriceBook book;
  EXPECT_TRUE(std::isnan(book.price(1)));  // unknown yet: no opinion
  book.update(snap, PriceWeights::latency_only());
  EXPECT_DOUBLE_EQ(book.price(1), 300.0);
  EXPECT_TRUE(std::isinf(book.price(2)));   // observed not-ready: excluded
  EXPECT_TRUE(std::isnan(book.price(777)));  // never observed: no opinion
  EXPECT_EQ(book.size(), 2u);
  EXPECT_EQ(book.generation(), 1u);
}

TEST(PriceBook, UnknownAndOutOfRangeIdsHaveNoOpinion) {
  PriceBook book;
  EXPECT_EQ(book.size(), 0u);
  EXPECT_TRUE(std::isnan(book.price(0)));
  EXPECT_TRUE(std::isnan(book.price(phy::kInvalidLink)));

  RackSnapshot snap;
  auto far = base_obs();
  far.link = 40;
  snap.links.push_back(far);
  auto low = base_obs();
  low.link = 3;
  snap.links.push_back(low);
  book.update(snap, PriceWeights::latency_only());
  EXPECT_EQ(book.size(), 2u);
  EXPECT_DOUBLE_EQ(book.price(40), 300.0);
  EXPECT_DOUBLE_EQ(book.price(3), 300.0);
  EXPECT_TRUE(std::isnan(book.price(4)));   // between observed ids
  EXPECT_TRUE(std::isnan(book.price(41)));  // past the highest id
  EXPECT_TRUE(std::isnan(book.price(phy::kInvalidLink)));

  // Each update replaces the book: a link the next snapshot misses
  // (destroyed by a reconfiguration) has no opinion again.
  RackSnapshot next;
  next.links.push_back(low);
  book.update(next, PriceWeights::latency_only());
  EXPECT_EQ(book.size(), 1u);
  EXPECT_TRUE(std::isnan(book.price(40)));
  EXPECT_DOUBLE_EQ(book.price(3), 300.0);
  EXPECT_EQ(book.generation(), 2u);
}

// --- break-even ---

TEST(BreakEven, ClosedFormMatchesDefinition) {
  // 50G -> 100G with 100 us of reconfiguration dead time:
  // S* = T / (1/50G - 1/100G) = 1e-4 / 1e-11 = 1e7 bits.
  const auto s = break_even_size(DataRate::gbps(50), DataRate::gbps(100), 100_us);
  ASSERT_TRUE(s.has_value());
  EXPECT_NEAR(static_cast<double>(s->bit_count()), 1e7, 1.0);
}

TEST(BreakEven, AtThresholdBothChoicesTie) {
  const auto old_r = DataRate::gbps(50);
  const auto new_r = DataRate::gbps(100);
  const SimTime t = 100_us;
  const DataSize s = *break_even_size(old_r, new_r, t);
  const SimTime keep = completion_time(s, old_r, SimTime::zero());
  const SimTime move = completion_time(s, new_r, t);
  EXPECT_NEAR(static_cast<double>(keep.ps()), static_cast<double>(move.ps()),
              static_cast<double>(keep.ps()) * 1e-6);
}

TEST(BreakEven, NoGainMeansNoBreakEven) {
  EXPECT_FALSE(break_even_size(DataRate::gbps(100), DataRate::gbps(100), 1_us).has_value());
  EXPECT_FALSE(break_even_size(DataRate::gbps(100), DataRate::gbps(50), 1_us).has_value());
}

TEST(BreakEven, NoCurrentPathMakesAnyFlowWorthIt) {
  const auto s = break_even_size(DataRate::zero(), DataRate::gbps(25), 1_us);
  ASSERT_TRUE(s.has_value());
  EXPECT_EQ(*s, DataSize::zero());
}

TEST(BreakEven, WorthReconfiguringRespectsThreshold) {
  const auto old_r = DataRate::gbps(50);
  const auto new_r = DataRate::gbps(100);
  const SimTime t = 100_us;
  // Threshold is 1.25 MB; 2 MB is worth it, 0.5 MB is not.
  EXPECT_TRUE(worth_reconfiguring(DataSize::megabytes(2), old_r, new_r, t));
  EXPECT_FALSE(worth_reconfiguring(DataSize::kilobytes(500), old_r, new_r, t));
}

TEST(BreakEven, ThresholdScalesLinearlyWithReconfigCost) {
  const auto s1 = break_even_size(DataRate::gbps(50), DataRate::gbps(100), 10_us);
  const auto s2 = break_even_size(DataRate::gbps(50), DataRate::gbps(100), 100_us);
  ASSERT_TRUE(s1 && s2);
  EXPECT_NEAR(static_cast<double>(s2->bit_count()),
              10.0 * static_cast<double>(s1->bit_count()),
              static_cast<double>(s2->bit_count()) * 1e-6);
}

TEST(BreakEven, LargerGainLowersThreshold) {
  const auto small_gain = break_even_size(DataRate::gbps(50), DataRate::gbps(60), 100_us);
  const auto big_gain = break_even_size(DataRate::gbps(50), DataRate::gbps(200), 100_us);
  ASSERT_TRUE(small_gain && big_gain);
  EXPECT_GT(small_gain->bit_count(), big_gain->bit_count());
}

TEST(BreakEven, PacketsVariant) {
  // Saving 1 us per packet against 100 us of dead time: 100 packets.
  const auto n = break_even_packets(1_us, 100_us);
  ASSERT_TRUE(n.has_value());
  EXPECT_EQ(*n, 100u);
  EXPECT_FALSE(break_even_packets(SimTime::zero(), 1_us).has_value());
  EXPECT_FALSE(break_even_packets(SimTime::zero() - 1_ns, 1_us).has_value());
}

TEST(BreakEven, CompletionTimeComposition) {
  // 1e6 bits at 1 Gbps = 1 ms of serialization on top of the setup.
  EXPECT_EQ(completion_time(DataSize::bits(1'000'000), DataRate::gbps(1), 5_us),
            5_us + 1_ms);
}

}  // namespace
}  // namespace rsf::core
