#include "sim/random.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <set>

namespace rsf::sim {
namespace {

TEST(RandomStream, DeterministicForSameSeedAndName) {
  RandomStream a(42, "lane");
  RandomStream b(42, "lane");
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(RandomStream, DifferentNamesGiveDifferentStreams) {
  RandomStream a(42, "lane");
  RandomStream b(42, "link");
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a() == b()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(RandomStream, DifferentSeedsGiveDifferentStreams) {
  RandomStream a(1, "x");
  RandomStream b(2, "x");
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a() == b()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(RandomStream, UniformInUnitInterval) {
  RandomStream rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(RandomStream, UniformMeanNearHalf) {
  RandomStream rng(7);
  double sum = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) sum += rng.uniform();
  EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(RandomStream, UniformRangeRespected) {
  RandomStream rng(9);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.uniform(3.0, 7.0);
    EXPECT_GE(v, 3.0);
    EXPECT_LT(v, 7.0);
  }
}

TEST(RandomStream, UniformIntInclusiveBounds) {
  RandomStream rng(11);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const auto v = rng.uniform_int(1, 6);
    EXPECT_GE(v, 1);
    EXPECT_LE(v, 6);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 6u);  // all faces appear
}

TEST(RandomStream, UniformIntSingleton) {
  RandomStream rng(11);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(rng.uniform_int(5, 5), 5);
}

TEST(RandomStream, UniformIntRejectsInvertedRange) {
  RandomStream rng(11);
  EXPECT_THROW(rng.uniform_int(6, 1), std::invalid_argument);
}

TEST(RandomStream, ExponentialMeanConverges) {
  RandomStream rng(13);
  double sum = 0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) sum += rng.exponential(250.0);
  EXPECT_NEAR(sum / n, 250.0, 5.0);
}

TEST(RandomStream, ExponentialRejectsNonPositiveMean) {
  RandomStream rng(13);
  EXPECT_THROW(rng.exponential(0.0), std::invalid_argument);
  EXPECT_THROW(rng.exponential(-1.0), std::invalid_argument);
}

TEST(RandomStream, BernoulliExtremes) {
  RandomStream rng(17);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.bernoulli(0.0));
    EXPECT_TRUE(rng.bernoulli(1.0));
    EXPECT_FALSE(rng.bernoulli(-0.5));
    EXPECT_TRUE(rng.bernoulli(1.5));
  }
}

TEST(RandomStream, BernoulliFrequency) {
  RandomStream rng(17);
  int hits = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    if (rng.bernoulli(0.3)) ++hits;
  }
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(RandomStream, NormalMomentsConverge) {
  RandomStream rng(19);
  double sum = 0;
  double sum_sq = 0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) {
    const double v = rng.normal(10.0, 2.0);
    sum += v;
    sum_sq += v * v;
  }
  const double mean = sum / n;
  const double var = sum_sq / n - mean * mean;
  EXPECT_NEAR(mean, 10.0, 0.05);
  EXPECT_NEAR(std::sqrt(var), 2.0, 0.05);
}

TEST(RandomStream, BoundedParetoStaysInBounds) {
  RandomStream rng(23);
  for (int i = 0; i < 10000; ++i) {
    const double v = rng.bounded_pareto(1.2, 100.0, 1e6);
    EXPECT_GE(v, 100.0);
    EXPECT_LE(v, 1e6 + 1.0);
  }
}

TEST(RandomStream, BoundedParetoIsHeavyTailed) {
  RandomStream rng(23);
  // Most mass near the minimum but a visible tail.
  int below_double_min = 0;
  int above_100x = 0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) {
    const double v = rng.bounded_pareto(1.2, 100.0, 1e6);
    if (v < 200.0) ++below_double_min;
    if (v > 1e4) ++above_100x;
  }
  EXPECT_GT(below_double_min, n / 2);
  EXPECT_GT(above_100x, 10);
}

TEST(RandomStream, BoundedParetoRejectsBadParams) {
  RandomStream rng(23);
  EXPECT_THROW(rng.bounded_pareto(0.0, 1.0, 2.0), std::invalid_argument);
  EXPECT_THROW(rng.bounded_pareto(1.0, 0.0, 2.0), std::invalid_argument);
  EXPECT_THROW(rng.bounded_pareto(1.0, 2.0, 2.0), std::invalid_argument);
}

TEST(Fnv1a, StableKnownValues) {
  // FNV-1a 64-bit of empty string is the offset basis.
  EXPECT_EQ(fnv1a(""), 0xCBF29CE484222325ULL);
  EXPECT_NE(fnv1a("a"), fnv1a("b"));
  EXPECT_EQ(fnv1a("lane"), fnv1a("lane"));
}

}  // namespace
}  // namespace rsf::sim
