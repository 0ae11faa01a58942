#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <sstream>
#include <tuple>
#include <vector>

#include "sim/random.hpp"
#include "telemetry/counters.hpp"
#include "telemetry/histogram.hpp"
#include "telemetry/registry.hpp"
#include "telemetry/series.hpp"
#include "telemetry/table.hpp"

namespace rsf::telemetry {
namespace {

using rsf::sim::SimTime;
using namespace rsf::sim::literals;

// --- Histogram ---

TEST(Histogram, EmptyHistogramIsZero) {
  Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.mean(), 0.0);
  EXPECT_EQ(h.quantile(0.5), 0.0);
  EXPECT_EQ(h.min(), 0.0);
  EXPECT_EQ(h.max(), 0.0);
}

TEST(Histogram, SingleValue) {
  Histogram h;
  h.record(1000.0);
  EXPECT_EQ(h.count(), 1u);
  EXPECT_DOUBLE_EQ(h.mean(), 1000.0);
  EXPECT_NEAR(h.p50(), 1000.0, 1000.0 * 0.02);
  EXPECT_DOUBLE_EQ(h.min(), 1000.0);
  EXPECT_DOUBLE_EQ(h.max(), 1000.0);
}

TEST(Histogram, MeanAndStddevExact) {
  Histogram h;
  for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) h.record(v);
  EXPECT_DOUBLE_EQ(h.mean(), 5.0);
  EXPECT_NEAR(h.stddev(), 2.0, 1e-9);
}

TEST(Histogram, QuantileBoundedRelativeError) {
  Histogram h;
  rsf::sim::RandomStream rng(5);
  std::vector<double> values;
  for (int i = 0; i < 20000; ++i) {
    const double v = rng.uniform(1.0, 1e9);
    values.push_back(v);
    h.record(v);
  }
  std::sort(values.begin(), values.end());
  for (double q : {0.5, 0.9, 0.99}) {
    const double exact = values[static_cast<std::size_t>(q * (values.size() - 1))];
    EXPECT_NEAR(h.quantile(q), exact, exact * 0.05) << "q=" << q;
  }
}

TEST(Histogram, QuantileMonotonicInQ) {
  Histogram h;
  rsf::sim::RandomStream rng(6);
  for (int i = 0; i < 5000; ++i) h.record(rng.uniform(1.0, 1e6));
  double prev = 0;
  for (double q = 0.0; q <= 1.0; q += 0.05) {
    const double v = h.quantile(q);
    EXPECT_GE(v, prev);
    prev = v;
  }
}

TEST(Histogram, QuantileNeverExceedsMax) {
  Histogram h;
  for (double v : {10.0, 100.0, 1000.0}) h.record(v);
  EXPECT_LE(h.p999(), h.max());
  EXPECT_LE(h.quantile(1.0), h.max());
}

TEST(Histogram, SubUnitValuesCountedInQuantiles) {
  Histogram h;
  h.record(0.5);
  h.record(0.1);
  h.record(100.0);
  EXPECT_EQ(h.count(), 3u);
  EXPECT_LE(h.quantile(0.3), 1.0);
  EXPECT_GT(h.quantile(0.99), 50.0);
}

TEST(Histogram, RecordsSimTime) {
  Histogram h;
  h.record(5_us);
  EXPECT_DOUBLE_EQ(h.mean(), 5e6);  // ps
}

TEST(Histogram, MergeCombines) {
  Histogram a;
  Histogram b;
  for (int i = 1; i <= 100; ++i) a.record(static_cast<double>(i));
  for (int i = 101; i <= 200; ++i) b.record(static_cast<double>(i));
  a.merge(b);
  EXPECT_EQ(a.count(), 200u);
  EXPECT_DOUBLE_EQ(a.mean(), 100.5);
  EXPECT_DOUBLE_EQ(a.max(), 200.0);
  EXPECT_DOUBLE_EQ(a.min(), 1.0);
}

TEST(Histogram, MergeWithEmptyIsIdentity) {
  Histogram a;
  a.record(42.0);
  Histogram empty;
  a.merge(empty);
  EXPECT_EQ(a.count(), 1u);
  empty.merge(a);
  EXPECT_EQ(empty.count(), 1u);
  EXPECT_DOUBLE_EQ(empty.mean(), 42.0);
}

TEST(Histogram, SinceDiffsPhaseWindowExactly) {
  Histogram h;
  for (int i = 1; i <= 100; ++i) h.record(static_cast<double>(i));
  const Histogram before = h.snapshot();
  for (int i = 0; i < 50; ++i) h.record(1000.0);
  const Histogram window = h.since(before);
  // Count, mean and stddev of the window are exact.
  EXPECT_EQ(window.count(), 50u);
  EXPECT_DOUBLE_EQ(window.mean(), 1000.0);
  EXPECT_DOUBLE_EQ(window.stddev(), 0.0);
  // Quantiles resolve within bucket relative error.
  EXPECT_NEAR(window.p50(), 1000.0, 1000.0 / 64 + 1);
  // Extremes are bucket-resolution bounds around the window's values.
  EXPECT_GE(window.max(), 1000.0 * (1.0 - 1.0 / 64));
  EXPECT_LE(window.max(), 1000.0 * (1.0 + 2.0 / 64));
  EXPECT_GE(window.min(), 1000.0 * (1.0 - 2.0 / 64));
  // The cumulative histogram is untouched.
  EXPECT_EQ(h.count(), 150u);
}

/// Histogram::bucket_index as it was written with log2/exp2/floor.
/// Valid below 2^87, where the sub-bucket still fits an int.
std::size_t reference_bucket_index(double v) {
  if (v < 1.0) return 0;
  const int exponent = std::min(62, static_cast<int>(std::floor(std::log2(v))));
  const double base = std::exp2(exponent);
  int sub = static_cast<int>((v - base) / base * 64);
  sub = std::clamp(sub, 0, 63);
  return static_cast<std::size_t>(exponent) * 64 + static_cast<std::size_t>(sub);
}

TEST(Histogram, BucketIndexMatchesTheLog2Formula) {
  // Every power of two up to 2^64, +-8 ulps around it: just below 2^e
  // log2 rounds up to e, and the bucket must stay (e, sub 0).
  int rounded_up = 0;
  for (int e = 0; e <= 64; ++e) {
    const double p = std::ldexp(1.0, e);
    double below = p;
    double above = p;
    for (int ulp = 0; ulp <= 8; ++ulp) {
      for (const double v : {below, above}) {
        ASSERT_EQ(Histogram::bucket_index(v), reference_bucket_index(v)) << std::hexfloat << v;
      }
      if (below >= 1.0 && std::floor(std::log2(below)) == e && below < p) ++rounded_up;
      below = std::nextafter(below, 0.0);
      above = std::nextafter(above, HUGE_VAL);
    }
  }
  EXPECT_GT(rounded_up, 0);  // the edge case really occurs
  for (const double v : {0.0, 1e-300, 0.25, 0.5, std::nextafter(1.0, 0.0), -3.0}) {
    EXPECT_EQ(Histogram::bucket_index(v), reference_bucket_index(v)) << v;
  }
  // Random doubles: uniform bit patterns over [1, 2^64) and uniform
  // values at ps-latency scales.
  rsf::sim::RandomStream rng(47, "histogram-buckets");
  for (int i = 0; i < 1'000'000; ++i) {
    const double v = i % 2 == 0
                         ? std::bit_cast<double>(std::bit_cast<std::uint64_t>(1.0) +
                                                 (rng() % (std::uint64_t{64} << 52)))
                         : rng.uniform(1.0, 1e12);
    ASSERT_EQ(Histogram::bucket_index(v), reference_bucket_index(v)) << std::hexfloat << v;
  }
}

/// Both histograms hold the same values, bit for bit in every moment
/// and in every bucket (each quantile lands on the same edge).
void expect_identical(const Histogram& a, const Histogram& b) {
  EXPECT_EQ(a.count(), b.count());
  for (const auto& [name, x, y] :
       {std::tuple{"mean", a.mean(), b.mean()}, std::tuple{"stddev", a.stddev(), b.stddev()},
        std::tuple{"min", a.min(), b.min()}, std::tuple{"max", a.max(), b.max()}}) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(x), std::bit_cast<std::uint64_t>(y)) << name;
  }
  for (int q = 0; q <= 1000; ++q) {
    ASSERT_EQ(a.quantile(q / 1000.0), b.quantile(q / 1000.0)) << "q=" << q / 1000.0;
  }
}

TEST(Histogram, IntegerPathMatchesTheDoublePath) {
  // Every 2^k - 1, 2^k, 2^k + 1 below the integer path's limit, then
  // random integers at every scale below it: the bit formula equals
  // the log2 formula's bucket.
  const std::uint64_t limit = Histogram::kIntegerPathLimit;
  std::vector<std::uint64_t> values;
  for (int k = 0; k <= 48; ++k) {
    const std::uint64_t p = std::uint64_t{1} << k;
    for (const std::uint64_t v : {p - 1, p, p + 1}) {
      if (v >= 1 && v < limit) values.push_back(v);
    }
  }
  rsf::sim::RandomStream rng(53, "histogram-integers");
  for (int i = 0; i < 1'000'000; ++i) {
    const int bits = 1 + static_cast<int>(rng() % 48);
    values.push_back(1 + rng() % ((std::uint64_t{1} << bits) - 1));
  }
  for (const std::uint64_t v : values) {
    ASSERT_LT(v, limit);
    ASSERT_EQ(Histogram::integer_bucket_index(v),
              reference_bucket_index(static_cast<double>(v)))
        << v;
  }
  // Recorded through record(SimTime) and record_count, the same values
  // (plus zero, negatives and values past the limit, which fall back
  // to bucket_index) leave the histogram record(double) would.
  for (const std::uint64_t v : {std::uint64_t{0}, limit, (limit << 1) - 1, limit << 1,
                                std::uint64_t{1} << 62, ~std::uint64_t{0}}) {
    values.push_back(v);
  }
  Histogram by_time;
  Histogram by_count;
  Histogram by_double;
  Histogram signed_by_time;
  Histogram signed_by_double;
  for (const std::uint64_t v : values) {
    by_count.record_count(v);
    by_double.record(static_cast<double>(v));
    if (v <= std::uint64_t{1} << 62) {
      by_time.record(SimTime::picoseconds(static_cast<std::int64_t>(v)));
      const auto neg = -static_cast<std::int64_t>(v);
      signed_by_time.record(SimTime::picoseconds(neg));
      signed_by_double.record(static_cast<double>(neg));
    }
  }
  {
    SCOPED_TRACE("record_count");
    expect_identical(by_count, by_double);
  }
  {
    SCOPED_TRACE("record(SimTime)");
    Histogram time_subset;
    for (const std::uint64_t v : values) {
      if (v <= std::uint64_t{1} << 62) time_subset.record(static_cast<double>(v));
    }
    expect_identical(by_time, time_subset);
  }
  {
    SCOPED_TRACE("negative and zero times");
    expect_identical(signed_by_time, signed_by_double);
  }
}

TEST(Histogram, IntegerPathEndsBeforeLog2RoundsUp) {
  // Why the integer path stops at 2^48: the first 2^k - 1 whose double
  // log2 rounds up to k is 2^49 - 1, which bucket_index (like the log2
  // formula) places at exponent 49, sub-bucket 0, while its bits say
  // exponent 48, sub-bucket 63.
  int first_disagreement = 0;
  for (int k = 1; k < 64 && first_disagreement == 0; ++k) {
    const std::uint64_t v = (std::uint64_t{1} << k) - 1;
    if (Histogram::integer_bucket_index(v) != reference_bucket_index(static_cast<double>(v))) {
      first_disagreement = k;
    }
  }
  EXPECT_EQ(first_disagreement, 49);
  const std::uint64_t v = (std::uint64_t{1} << 49) - 1;
  EXPECT_EQ(Histogram::integer_bucket_index(v), 48u * 64 + 63);
  EXPECT_EQ(Histogram::bucket_index(static_cast<double>(v)), 49u * 64);
  EXPECT_GT(v, Histogram::kIntegerPathLimit);
  // record_count takes the fallback there, so it still agrees.
  Histogram by_count;
  Histogram by_double;
  by_count.record_count(v);
  by_double.record(static_cast<double>(v));
  expect_identical(by_count, by_double);
}

TEST(Histogram, SinceOfEqualOrNewerSnapshotIsEmpty) {
  Histogram h;
  h.record(5.0);
  const Histogram snap = h.snapshot();
  EXPECT_EQ(h.since(snap).count(), 0u);
  Histogram later = h;
  later.record(6.0);
  EXPECT_EQ(h.since(later).count(), 0u);  // not a predecessor: empty, not UB
}

TEST(Histogram, SinceOfUnrelatedHistogramClampsInsteadOfWrapping) {
  // Misuse guard: diffing against a histogram that is not a snapshot
  // of *this* must not unsigned-underflow bucket counts.
  Histogram a;
  for (int i = 0; i < 5; ++i) a.record(2000.0);
  Histogram unrelated;
  for (int i = 0; i < 3; ++i) unrelated.record(0.5);  // sub-unit bucket only
  const Histogram d = a.since(unrelated);
  EXPECT_EQ(d.count(), 2u);  // best-effort totals, no wraparound
  EXPECT_LE(d.quantile(0.99), a.max());
  EXPECT_GE(d.quantile(0.5), 0.0);
}

TEST(Histogram, SinceCountsSubUnitValues) {
  Histogram h;
  h.record(10.0);
  const Histogram before = h.snapshot();
  h.record(0.5);
  h.record(0.25);
  const Histogram window = h.since(before);
  EXPECT_EQ(window.count(), 2u);
  EXPECT_DOUBLE_EQ(window.mean(), 0.375);
  EXPECT_LE(window.max(), 1.0);
}

TEST(Histogram, ResetClears) {
  Histogram h;
  h.record(1.0);
  h.reset();
  EXPECT_EQ(h.count(), 0u);
}

TEST(Histogram, SummaryStringsMention) {
  Histogram h;
  h.record(1_us);
  EXPECT_NE(h.summary_time().find("n=1"), std::string::npos);
  EXPECT_NE(h.summary().find("n=1"), std::string::npos);
}

// --- CounterSet ---

TEST(CounterSet, AddAndGet) {
  CounterSet c;
  EXPECT_EQ(c.get("x"), 0u);
  c.add("x");
  c.add("x", 4);
  EXPECT_EQ(c.get("x"), 5u);
  EXPECT_TRUE(c.has("x"));
  EXPECT_FALSE(c.has("y"));
}

TEST(CounterSet, Gauges) {
  CounterSet c;
  c.set_gauge("power", 120.5);
  EXPECT_DOUBLE_EQ(c.gauge("power"), 120.5);
  c.set_gauge("power", 99.0);
  EXPECT_DOUBLE_EQ(c.gauge("power"), 99.0);
  EXPECT_TRUE(c.has("power"));
}

TEST(CounterSet, DiffSubtracts) {
  CounterSet before;
  before.add("pkts", 100);
  CounterSet after;
  after.add("pkts", 150);
  after.add("drops", 3);
  const CounterSet d = after.diff(before);
  EXPECT_EQ(d.get("pkts"), 50u);
  EXPECT_EQ(d.get("drops"), 3u);
}

TEST(CounterSet, MergeAccumulates) {
  CounterSet a;
  a.add("x", 1);
  CounterSet b;
  b.add("x", 2);
  b.add("y", 3);
  a.merge(b);
  EXPECT_EQ(a.get("x"), 3u);
  EXPECT_EQ(a.get("y"), 3u);
}

TEST(CounterSet, ToStringStable) {
  CounterSet c;
  c.add("b", 2);
  c.add("a", 1);
  EXPECT_EQ(c.to_string(), "a=1 b=2");  // sorted by name
}

// --- TimeSeries ---

TEST(TimeSeries, ValueAtStepSemantics) {
  TimeSeries s("x");
  s.record(10_ns, 1.0);
  s.record(20_ns, 2.0);
  EXPECT_DOUBLE_EQ(s.value_at(5_ns, -1.0), -1.0);
  EXPECT_DOUBLE_EQ(s.value_at(10_ns), 1.0);
  EXPECT_DOUBLE_EQ(s.value_at(15_ns), 1.0);
  EXPECT_DOUBLE_EQ(s.value_at(25_ns), 2.0);
}

TEST(TimeSeries, TimeWeightedMean) {
  TimeSeries s("x");
  s.record(0_ns, 1.0);
  s.record(10_ns, 3.0);
  // [0,10): 1.0, [10,20): 3.0 => mean over [0,20) = 2.0
  EXPECT_DOUBLE_EQ(s.time_weighted_mean(0_ns, 20_ns), 2.0);
}

TEST(TimeSeries, MinMax) {
  TimeSeries s("x");
  s.record(0_ns, 3.0);
  s.record(1_ns, -2.0);
  s.record(2_ns, 7.0);
  EXPECT_DOUBLE_EQ(s.max_value(), 7.0);
  EXPECT_DOUBLE_EQ(s.min_value(), -2.0);
}

// --- Registry prefix-merge ---

TEST(Registry, ImportPrefixedSnapshotsAndRefreshesInPlace) {
  Registry shard;
  shard.histogram("net.packet_latency").record(10.0);
  shard.counters("net").add("net.packets_delivered", 3);
  shard.counters("net").set_gauge("queue_depth", 1.5);
  shard.series("crc.power").record(1_us, 7.0);

  Registry fleet;
  fleet.import_prefixed(shard, "rack0.");

  const auto* h = fleet.find_histogram("rack0.net.packet_latency");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->count(), 1u);
  const auto* c = fleet.find_counters("rack0.net");
  ASSERT_NE(c, nullptr);
  EXPECT_EQ(c->get("rack0.net.packets_delivered"), 3u);
  // Bare gauge names get fully qualified so the prefixed set renders
  // them under its own name.
  EXPECT_DOUBLE_EQ(c->gauge("rack0.net.queue_depth"), 1.5);
  const auto* s = fleet.find_series("rack0.crc.power");
  ASSERT_NE(s, nullptr);
  EXPECT_EQ(s->samples().size(), 1u);

  // Re-import refreshes in place: same instruments, updated values,
  // no double counting.
  shard.histogram("net.packet_latency").record(20.0);
  shard.counters("net").add("net.packets_delivered", 2);
  fleet.import_prefixed(shard, "rack0.");
  EXPECT_EQ(h, fleet.find_histogram("rack0.net.packet_latency"));
  EXPECT_EQ(h->count(), 2u);
  EXPECT_EQ(c->get("rack0.net.packets_delivered"), 5u);

  // Two shards merge side by side; the source registry is untouched.
  Registry other;
  other.counters("net").add("net.packets_delivered", 9);
  fleet.import_prefixed(other, "rack1.");
  EXPECT_EQ(fleet.find_counters("rack1.net")->get("rack1.net.packets_delivered"), 9u);
  EXPECT_EQ(c->get("rack0.net.packets_delivered"), 5u);
  EXPECT_EQ(shard.counters("net").get("net.packets_delivered"), 5u);

  const std::string table = fleet.to_table("merged").to_string();
  EXPECT_NE(table.find("rack0.net.packets_delivered"), std::string::npos);
  EXPECT_NE(table.find("rack0.net.queue_depth"), std::string::npos);
}

// --- Table ---

TEST(Table, BuildsAndPrints) {
  Table t("demo", {"a", "b"});
  t.row().cell("x").cell(1.5, 1);
  t.row().cell("y").cell(std::uint64_t{42});
  EXPECT_EQ(t.num_rows(), 2u);
  std::ostringstream oss;
  t.print(oss);
  const std::string out = oss.str();
  EXPECT_NE(out.find("demo"), std::string::npos);
  EXPECT_NE(out.find("1.5"), std::string::npos);
  EXPECT_NE(out.find("42"), std::string::npos);
}

TEST(Table, RejectsMalformedUse) {
  Table t("bad", {"only"});
  EXPECT_THROW(t.cell("no row yet"), std::logic_error);
  t.row().cell("ok");
  EXPECT_THROW(t.cell("too many"), std::logic_error);
  EXPECT_THROW(Table("empty", {}), std::invalid_argument);
}

TEST(Table, IncompleteRowDetectedOnNextRow) {
  Table t("bad", {"a", "b"});
  t.row().cell("only one");
  EXPECT_THROW(t.row(), std::logic_error);
}

}  // namespace
}  // namespace rsf::telemetry
