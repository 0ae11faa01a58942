// Structural tests of the physical plant: lanes, cables, logical
// links, and the PLP #1/#2 operations with their invariants.
#include "phy/plant.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <vector>

#include "sim/random.hpp"

namespace rsf::phy {
namespace {

using rsf::sim::SimTime;
using namespace rsf::sim::literals;

LanePowerParams test_power() { return LanePowerParams{1.0, 1.0, 0.1}; }

/// Plant with a 4-node chain 0-1-2-3, each cable 4 lanes of 25G, 2 m.
struct ChainFixture {
  PhysicalPlant plant;
  CableId c01, c12, c23;

  ChainFixture() {
    c01 = plant.add_cable(0, 1, 2.0, Medium::kFiber, 4, DataRate::gbps(25), test_power());
    c12 = plant.add_cable(1, 2, 2.0, Medium::kFiber, 4, DataRate::gbps(25), test_power());
    c23 = plant.add_cable(2, 3, 2.0, Medium::kFiber, 4, DataRate::gbps(25), test_power());
  }
};

TEST(Lane, StateMachine) {
  Lane lane(DataRate::gbps(25), test_power(), 1e-12);
  EXPECT_EQ(lane.state(), LaneState::kOff);
  EXPECT_FALSE(lane.is_up());
  lane.begin_training();
  EXPECT_EQ(lane.state(), LaneState::kTraining);
  lane.complete_training();
  EXPECT_TRUE(lane.is_up());
  lane.power_off();
  EXPECT_EQ(lane.state(), LaneState::kOff);
}

TEST(Lane, CompleteTrainingRequiresTraining) {
  Lane lane(DataRate::gbps(25), test_power(), 1e-12);
  EXPECT_THROW(lane.complete_training(), std::logic_error);
}

TEST(Lane, PowerFollowsState) {
  Lane lane(DataRate::gbps(25), test_power(), 1e-12);
  EXPECT_DOUBLE_EQ(lane.power_watts(), 0.1);
  lane.begin_training();
  EXPECT_DOUBLE_EQ(lane.power_watts(), 1.0);
  lane.complete_training();
  EXPECT_DOUBLE_EQ(lane.power_watts(), 1.0);
}

TEST(Cable, ValidatesConstruction) {
  PhysicalPlant plant;
  EXPECT_THROW(plant.add_cable(0, 0, 2.0, Medium::kFiber, 4, DataRate::gbps(25)),
               std::invalid_argument);
  EXPECT_THROW(plant.add_cable(0, 1, 2.0, Medium::kFiber, 0, DataRate::gbps(25)),
               std::invalid_argument);
  EXPECT_THROW(plant.add_cable(0, 1, -1.0, Medium::kFiber, 4, DataRate::gbps(25)),
               std::invalid_argument);
}

TEST(Cable, EndpointQueries) {
  ChainFixture f;
  const Cable& c = f.plant.cable(f.c01);
  EXPECT_TRUE(c.connects(0));
  EXPECT_TRUE(c.connects(1));
  EXPECT_FALSE(c.connects(2));
  EXPECT_EQ(c.other_end(0), 1u);
  EXPECT_EQ(c.other_end(1), 0u);
  EXPECT_THROW(c.other_end(7), std::invalid_argument);
}

TEST(Cable, PropagationFromLengthAndMedium) {
  ChainFixture f;
  EXPECT_EQ(f.plant.cable(f.c01).propagation_delay(), 10_ns);  // 2 m fibre
}

TEST(Plant, FindCableEitherOrientation) {
  ChainFixture f;
  EXPECT_EQ(f.plant.find_cable(0, 1), f.c01);
  EXPECT_EQ(f.plant.find_cable(1, 0), f.c01);
  EXPECT_FALSE(f.plant.find_cable(0, 3).has_value());
}

TEST(Plant, CreateAdjacentLinkClaimsLanes) {
  ChainFixture f;
  const LinkId id = f.plant.create_adjacent_link(f.c01, {0, 1});
  EXPECT_TRUE(f.plant.has_link(id));
  EXPECT_EQ(f.plant.link(id).lane_count(), 2);
  EXPECT_EQ(f.plant.lane_owner(LaneRef{f.c01, 0}), id);
  EXPECT_EQ(f.plant.lane_owner(LaneRef{f.c01, 1}), id);
  EXPECT_FALSE(f.plant.lane_owner(LaneRef{f.c01, 2}).has_value());
  EXPECT_EQ(f.plant.free_lanes(f.c01), (std::vector<int>{2, 3}));
  EXPECT_TRUE(f.plant.validate().empty()) << f.plant.validate();
}

TEST(Plant, DoubleClaimRejected) {
  ChainFixture f;
  f.plant.create_adjacent_link(f.c01, {0, 1});
  EXPECT_THROW(f.plant.create_adjacent_link(f.c01, {1, 2}), std::invalid_argument);
}

TEST(Plant, RejectsBadSegments) {
  ChainFixture f;
  // Broken chain: c01 then c23 skips node 2's cable.
  EXPECT_THROW(
      f.plant.create_link(0, 3, {LinkSegment{f.c01, {0}}, LinkSegment{f.c23, {0}}}),
      std::invalid_argument);
  // Unequal lane counts across segments.
  EXPECT_THROW(
      f.plant.create_link(0, 2, {LinkSegment{f.c01, {0, 1}}, LinkSegment{f.c12, {0}}}),
      std::invalid_argument);
  // Duplicate lane in a segment.
  EXPECT_THROW(f.plant.create_link(0, 1, {LinkSegment{f.c01, {0, 0}}}),
               std::invalid_argument);
  // Lane out of range.
  EXPECT_THROW(f.plant.create_link(0, 1, {LinkSegment{f.c01, {9}}}), std::invalid_argument);
  // Wrong terminus.
  EXPECT_THROW(f.plant.create_link(0, 2, {LinkSegment{f.c01, {0}}}), std::invalid_argument);
  // Zero lanes / no segments.
  EXPECT_THROW(f.plant.create_link(0, 1, {LinkSegment{f.c01, {}}}), std::invalid_argument);
  EXPECT_THROW(f.plant.create_link(0, 1, {}), std::invalid_argument);
}

TEST(Plant, DestroyReleasesLanes) {
  ChainFixture f;
  const LinkId id = f.plant.create_adjacent_link(f.c01, {0, 1});
  f.plant.destroy_link(id);
  EXPECT_FALSE(f.plant.has_link(id));
  EXPECT_EQ(f.plant.free_lanes(f.c01).size(), 4u);
  EXPECT_THROW(f.plant.destroy_link(id), std::invalid_argument);
}

TEST(Plant, MultiSegmentLinkMetrics) {
  ChainFixture f;
  const LinkId id = f.plant.create_link(
      0, 3,
      {LinkSegment{f.c01, {0, 1}}, LinkSegment{f.c12, {0, 1}}, LinkSegment{f.c23, {0, 1}}},
      FecSpec::of(FecScheme::kNone));
  const LogicalLink& l = f.plant.link(id);
  EXPECT_EQ(l.bypass_joints(), 2);
  EXPECT_EQ(l.lane_count(), 2);
  EXPECT_DOUBLE_EQ(l.raw_rate().gbps_value(), 50.0);
  // 3 x 10ns cable flight + 2 x 25ns bypass joints.
  EXPECT_EQ(l.propagation_delay(), 30_ns + 50_ns);
  EXPECT_EQ(f.plant.total_bypass_joints(), 2);
}

TEST(Plant, LinkReadyOnlyWhenAllLanesUp) {
  ChainFixture f;
  const LinkId id = f.plant.create_adjacent_link(f.c01, {0, 1});
  EXPECT_FALSE(f.plant.link(id).ready());
  f.plant.lane_begin_training(id);
  EXPECT_FALSE(f.plant.link(id).ready());
  f.plant.lane_complete_training(id);
  EXPECT_TRUE(f.plant.link(id).ready());
  f.plant.lane_power_off(id);
  EXPECT_FALSE(f.plant.link(id).ready());
}

TEST(Plant, SplitPreservesLanesAndSegments) {
  ChainFixture f;
  const LinkId id = f.plant.create_adjacent_link(f.c01, {0, 1, 2, 3});
  f.plant.lane_begin_training(id);
  f.plant.lane_complete_training(id);
  const auto [a, b] = f.plant.split_link(id, 1);
  EXPECT_FALSE(f.plant.has_link(id));
  EXPECT_EQ(f.plant.link(a).lane_count(), 1);
  EXPECT_EQ(f.plant.link(b).lane_count(), 3);
  // Lane states survive the split.
  EXPECT_TRUE(f.plant.link(a).ready());
  EXPECT_TRUE(f.plant.link(b).ready());
  EXPECT_TRUE(f.plant.validate().empty()) << f.plant.validate();
}

TEST(Plant, SplitRejectsDegenerateK) {
  ChainFixture f;
  const LinkId id = f.plant.create_adjacent_link(f.c01, {0, 1});
  EXPECT_THROW(f.plant.split_link(id, 0), std::invalid_argument);
  EXPECT_THROW(f.plant.split_link(id, 2), std::invalid_argument);
  EXPECT_THROW(f.plant.split_link(id, -1), std::invalid_argument);
}

TEST(Plant, BundleRestoresOriginalWidth) {
  ChainFixture f;
  const LinkId id = f.plant.create_adjacent_link(f.c01, {0, 1, 2, 3});
  const auto [a, b] = f.plant.split_link(id, 2);
  const LinkId merged = f.plant.bundle_links(a, b);
  EXPECT_EQ(f.plant.link(merged).lane_count(), 4);
  EXPECT_TRUE(f.plant.validate().empty());
}

TEST(Plant, BundleRequiresMatchingEndpoints) {
  ChainFixture f;
  const LinkId l01 = f.plant.create_adjacent_link(f.c01, {0});
  const LinkId l12 = f.plant.create_adjacent_link(f.c12, {0});
  EXPECT_THROW(f.plant.bundle_links(l01, l12), std::invalid_argument);
  EXPECT_THROW(f.plant.bundle_links(l01, l01), std::invalid_argument);
}

TEST(Plant, BypassJoinConcatenates) {
  ChainFixture f;
  const LinkId l01 = f.plant.create_adjacent_link(f.c01, {0});
  const LinkId l12 = f.plant.create_adjacent_link(f.c12, {0});
  const LinkId joined = f.plant.bypass_join(l01, l12);
  const LogicalLink& l = f.plant.link(joined);
  EXPECT_TRUE(l.connects(0));
  EXPECT_TRUE(l.connects(2));
  EXPECT_EQ(l.bypass_joints(), 1);
  EXPECT_TRUE(f.plant.validate().empty());
}

TEST(Plant, BypassJoinRequiresSharedEndpointAndEqualLanes) {
  ChainFixture f;
  const LinkId l01 = f.plant.create_adjacent_link(f.c01, {0});
  const LinkId l23 = f.plant.create_adjacent_link(f.c23, {0});
  EXPECT_THROW(f.plant.bypass_join(l01, l23), std::invalid_argument);
  const LinkId l12 = f.plant.create_adjacent_link(f.c12, {0, 1});
  EXPECT_THROW(f.plant.bypass_join(l01, l12), std::invalid_argument);
}

TEST(Plant, BypassJoinRejectsLoop) {
  ChainFixture f;
  const LinkId a = f.plant.create_adjacent_link(f.c01, {0});
  const LinkId b = f.plant.create_adjacent_link(f.c01, {1});
  // Joining two parallel 0-1 links would make a 0-0 loop.
  EXPECT_THROW(f.plant.bypass_join(a, b), std::invalid_argument);
}

TEST(Plant, BypassSeverRestoresPieces) {
  ChainFixture f;
  const LinkId l01 = f.plant.create_adjacent_link(f.c01, {0});
  const LinkId l12 = f.plant.create_adjacent_link(f.c12, {0});
  const LinkId l23 = f.plant.create_adjacent_link(f.c23, {0});
  const LinkId j1 = f.plant.bypass_join(l01, l12);
  const LinkId j2 = f.plant.bypass_join(j1, l23);
  EXPECT_EQ(f.plant.link(j2).bypass_joints(), 2);

  const auto [left, right] = f.plant.bypass_sever(j2, 2);
  EXPECT_TRUE(f.plant.link(left).connects(0));
  EXPECT_TRUE(f.plant.link(left).connects(2));
  EXPECT_EQ(f.plant.link(left).bypass_joints(), 1);
  EXPECT_TRUE(f.plant.link(right).connects(2));
  EXPECT_TRUE(f.plant.link(right).connects(3));
  EXPECT_EQ(f.plant.link(right).bypass_joints(), 0);
  EXPECT_TRUE(f.plant.validate().empty());
}

TEST(Plant, BypassSeverRejectsNonJoint) {
  ChainFixture f;
  const LinkId l01 = f.plant.create_adjacent_link(f.c01, {0});
  EXPECT_THROW(f.plant.bypass_sever(l01, 0), std::invalid_argument);
  const LinkId l12 = f.plant.create_adjacent_link(f.c12, {0});
  const LinkId j = f.plant.bypass_join(l01, l12);
  EXPECT_THROW(f.plant.bypass_sever(j, 0), std::invalid_argument);   // endpoint
  EXPECT_THROW(f.plant.bypass_sever(j, 3), std::invalid_argument);   // not on path
}

TEST(Plant, SetFecChangesLinkModel) {
  ChainFixture f;
  const LinkId id = f.plant.create_adjacent_link(f.c01, {0, 1});
  EXPECT_EQ(f.plant.link(id).fec().scheme, FecScheme::kNone);
  f.plant.set_fec(id, FecSpec::of(FecScheme::kRsKp4));
  EXPECT_EQ(f.plant.link(id).fec().scheme, FecScheme::kRsKp4);
  const double raw = f.plant.link(id).raw_rate().gbps_value();
  EXPECT_LT(f.plant.link(id).effective_rate().gbps_value(), raw);
}

TEST(Plant, AccountBitsSpreadsAcrossLanes) {
  ChainFixture f;
  const LinkId id = f.plant.create_adjacent_link(f.c01, {0, 1});
  f.plant.account_bits(id, 1000);
  EXPECT_EQ(f.plant.cable(f.c01).lane(0).stats().bits_carried, 500u);
  EXPECT_EQ(f.plant.cable(f.c01).lane(1).stats().bits_carried, 500u);
  EXPECT_EQ(f.plant.cable(f.c01).lane(2).stats().bits_carried, 0u);
}

TEST(Plant, AccountBitsKeepsRemainderOnThreeLaneLink) {
  ChainFixture f;
  const LinkId id = f.plant.create_adjacent_link(f.c01, {0, 1, 2});
  rsf::sim::RandomStream rng(1);
  f.plant.account_bits(id, 1000);                         // 333 each + 1
  f.plant.account_frame(id, DataSize::bits(1001), rng);  // 333 each + 2
  const auto carried = [&](int lane) { return f.plant.cable(f.c01).lane(lane).stats().bits_carried; };
  EXPECT_EQ(carried(0) + carried(1) + carried(2), 2001u);
  // The remainder goes to a segment's first lanes, deterministically.
  EXPECT_EQ(carried(0), 668u);
  EXPECT_EQ(carried(1), 667u);
  EXPECT_EQ(carried(2), 666u);
}

TEST(Plant, AccountBitsCountsEverySegmentOfABypassLink) {
  ChainFixture f;
  const LinkId id = f.plant.create_link(
      0, 3,
      {LinkSegment{f.c01, {0, 1, 2}}, LinkSegment{f.c12, {0, 1, 2}}, LinkSegment{f.c23, {0, 1, 2}}});
  f.plant.account_bits(id, 1001);
  for (const CableId c : {f.c01, f.c12, f.c23}) {
    std::uint64_t sum = 0;
    for (int lane = 0; lane < 3; ++lane) sum += f.plant.cable(c).lane(lane).stats().bits_carried;
    EXPECT_EQ(sum, 1001u) << "cable " << c;
  }
}

TEST(Plant, ReservedLinkCountFollowsReservationsAndTeardown) {
  ChainFixture f;
  const LinkId a = f.plant.create_adjacent_link(f.c01, {0, 1});
  EXPECT_EQ(f.plant.reserved_link_count(), 0u);
  f.plant.set_reservation(a, 5);
  EXPECT_EQ(f.plant.reserved_link_count(), 1u);
  f.plant.set_reservation(a, 6);  // handed to another flow: still one link
  EXPECT_EQ(f.plant.reserved_link_count(), 1u);
  f.plant.set_reservation(a, std::nullopt);
  EXPECT_EQ(f.plant.reserved_link_count(), 0u);
  f.plant.set_reservation(a, std::nullopt);
  EXPECT_EQ(f.plant.reserved_link_count(), 0u);

  // Every structural operation destroys its inputs, and a destroyed
  // reserved link stops counting.
  f.plant.set_reservation(a, 1);
  f.plant.destroy_link(a);
  EXPECT_EQ(f.plant.reserved_link_count(), 0u);

  const LinkId wide = f.plant.create_adjacent_link(f.c01, {0, 1, 2, 3});
  f.plant.set_reservation(wide, 2);
  const auto [lo, hi] = f.plant.split_link(wide, 2);
  EXPECT_EQ(f.plant.reserved_link_count(), 0u);

  f.plant.set_reservation(lo, 3);
  f.plant.set_reservation(hi, 4);
  const LinkId bundled = f.plant.bundle_links(lo, hi);
  EXPECT_EQ(f.plant.reserved_link_count(), 0u);

  const LinkId l12 = f.plant.create_adjacent_link(f.c12, {0, 1, 2, 3});
  f.plant.set_reservation(bundled, 5);
  f.plant.set_reservation(l12, 6);
  EXPECT_EQ(f.plant.reserved_link_count(), 2u);
  const LinkId joined = f.plant.bypass_join(bundled, l12);
  EXPECT_EQ(f.plant.reserved_link_count(), 0u);

  f.plant.set_reservation(joined, 7);
  const auto [left, right] = f.plant.bypass_sever(joined, 1);
  EXPECT_EQ(f.plant.reserved_link_count(), 0u);
  EXPECT_FALSE(f.plant.link(left).reserved_for().has_value());
  EXPECT_FALSE(f.plant.link(right).reserved_for().has_value());
}

TEST(Plant, SetCableBerPropagatesToLinkModel) {
  ChainFixture f;
  const LinkId id = f.plant.create_adjacent_link(f.c01, {0, 1},
                                                 FecSpec::of(FecScheme::kRsKr4));
  f.plant.set_cable_ber(f.c01, 1e-5);
  EXPECT_DOUBLE_EQ(f.plant.link(id).worst_pre_fec_ber(), 1e-5);
  EXPECT_GT(f.plant.link(id).frame_loss_prob(DataSize::bytes(1500)), 0.0);
}

TEST(Plant, PowerAccountsStatesAndBypass) {
  ChainFixture f;
  // All 12 lanes off: 12 x 0.1 W.
  EXPECT_NEAR(f.plant.total_power_watts(), 1.2, 1e-9);
  const LinkId l01 = f.plant.create_adjacent_link(f.c01, {0});
  const LinkId l12 = f.plant.create_adjacent_link(f.c12, {0});
  f.plant.lane_begin_training(l01);
  f.plant.lane_complete_training(l01);
  f.plant.lane_begin_training(l12);
  f.plant.lane_complete_training(l12);
  // Two lanes up now: 10 x 0.1 + 2 x 1.0.
  EXPECT_NEAR(f.plant.total_power_watts(), 3.0, 1e-9);
  const LinkId j = f.plant.bypass_join(l01, l12);
  // One bypass joint adds 0.3 W (default config).
  EXPECT_NEAR(f.plant.total_power_watts(), 3.3, 1e-9);
  EXPECT_NEAR(f.plant.link(j).power_watts(), 2.3, 1e-9);
}

TEST(Plant, LinkOneWayLatencyComposition) {
  ChainFixture f;
  const LinkId id =
      f.plant.create_adjacent_link(f.c01, {0, 1}, FecSpec::of(FecScheme::kRsKr4));
  const LogicalLink& l = f.plant.link(id);
  const auto frame = DataSize::bytes(1500);
  const SimTime expected =
      l.serialization_delay(frame) + l.propagation_delay() + l.fec().latency;
  EXPECT_EQ(l.one_way_latency(frame), expected);
  EXPECT_GT(l.serialization_delay(frame), SimTime::zero());
}

// --- PLP #5: BER estimation from FEC decoder telemetry ---

TEST(BerEstimator, ReturnsZeroWithoutTrafficOrFec) {
  ChainFixture f;
  const LinkId coded =
      f.plant.create_adjacent_link(f.c01, {0, 1}, FecSpec::of(FecScheme::kRsKr4));
  EXPECT_EQ(f.plant.estimated_pre_fec_ber(coded), 0.0);  // no traffic yet
  const LinkId uncoded = f.plant.create_adjacent_link(f.c12, {0, 1});
  rsf::sim::RandomStream rng(1);
  f.plant.account_frame(uncoded, DataSize::kilobytes(64), rng);
  EXPECT_EQ(f.plant.estimated_pre_fec_ber(uncoded), 0.0);  // no decoder => no telemetry
}

struct BerEstimatorCase {
  double true_ber;
  FecScheme scheme;
};

class BerEstimatorConvergence : public ::testing::TestWithParam<BerEstimatorCase> {};

TEST_P(BerEstimatorConvergence, TracksTrueBerWithinFactorTwo) {
  const auto& c = GetParam();
  PhysicalPlant plant;
  const CableId cable =
      plant.add_cable(0, 1, 2.0, Medium::kFiber, 2, DataRate::gbps(25), test_power());
  const LinkId link = plant.create_adjacent_link(cable, {0, 1}, FecSpec::of(c.scheme));
  plant.set_cable_ber(cable, c.true_ber);
  rsf::sim::RandomStream rng(7, "est");
  // ~64 MB of observed traffic: plenty of codewords at these BERs.
  for (int i = 0; i < 4096; ++i) {
    plant.account_frame(link, DataSize::kilobytes(16), rng);
  }
  const double est = plant.estimated_pre_fec_ber(link);
  EXPECT_GT(est, c.true_ber / 2) << "scheme=" << to_string(c.scheme);
  EXPECT_LT(est, c.true_ber * 2) << "scheme=" << to_string(c.scheme);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, BerEstimatorConvergence,
    ::testing::Values(BerEstimatorCase{1e-7, FecScheme::kRsKr4},
                      BerEstimatorCase{1e-6, FecScheme::kRsKr4},
                      BerEstimatorCase{1e-5, FecScheme::kRsKp4},
                      BerEstimatorCase{1e-4, FecScheme::kRsKp4}));

// --- PLP #5 exactness: the memoized account_frame against a reference ---

/// Which RandomStream::poisson branch each reference draw took.
struct DrawBranches {
  int none = 0;    // mean 0 (BER <= 0 or underflow): no draw
  int knuth = 0;   // 0 < mean <= 64
  int normal = 0;  // mean > 64: Box-Muller
};

/// RandomStream::poisson as written before its precomputed-limit
/// overload existed.
std::uint64_t reference_poisson(rsf::sim::RandomStream& rng, double mean, DrawBranches& seen) {
  if (mean == 0) {
    ++seen.none;
    return 0;
  }
  if (mean > 64.0) {
    ++seen.normal;
    const double v = rng.normal(mean, std::sqrt(mean));
    return v <= 0 ? 0 : static_cast<std::uint64_t>(v + 0.5);
  }
  ++seen.knuth;
  const double limit = std::exp(-mean);
  double product = rng.uniform();
  std::uint64_t count = 0;
  while (product > limit) {
    ++count;
    product *= rng.uniform();
  }
  return count;
}

/// account_frame as written before the per-link frame memo: pow and exp
/// for every lane of every frame, bits in a pass of their own. Its one
/// change is the bit-split remainder fix the plant now also has (a
/// segment's first bits % lanes lanes carry one more bit).
void reference_account_frame(PhysicalPlant& plant, LinkId id, DataSize frame,
                             rsf::sim::RandomStream& rng, DrawBranches& seen) {
  const LogicalLink& l = plant.link(id);
  const int lanes = l.lane_count();
  if (lanes == 0 || frame.bit_count() <= 0) return;
  const FecSpec& fec = l.fec();
  const std::int64_t bits = frame.bit_count();
  for (const LinkSegment& seg : l.segments()) {
    for (std::size_t i = 0; i < seg.lanes.size(); ++i) {
      const std::int64_t extra = static_cast<std::int64_t>(i) < bits % lanes ? 1 : 0;
      plant.cable(seg.cable).lane(seg.lanes[i]).mutable_stats().bits_carried +=
          static_cast<std::uint64_t>(bits / lanes + extra);
    }
  }
  if (fec.n == 0) return;
  const double payload_per_cw = static_cast<double>(fec.k * fec.symbol_bits);
  const double cw_total = std::ceil(static_cast<double>(bits) / payload_per_cw);
  for (const LinkSegment& seg : l.segments()) {
    Cable& c = plant.cable(seg.cable);
    for (int lane_idx : seg.lanes) {
      Lane& lane = c.lane(lane_idx);
      const double ber = lane.pre_fec_ber();
      if (ber <= 0) {
        ++seen.none;
        continue;
      }
      const double p_sym = 1.0 - std::pow(1.0 - ber, fec.symbol_bits);
      const double mean = cw_total / lanes * fec.n * p_sym;
      lane.mutable_stats().corrected_codewords += reference_poisson(rng, mean, seen);
    }
  }
}

/// A chain 0-1-...-6 of 4-lane cables carrying 1-, 2-, 3- and 4-lane
/// adjacent links and two bypass links (2 lanes x 3 segments, 1 lane x
/// 4 segments).
struct OraclePlant {
  PhysicalPlant plant;
  std::vector<CableId> cables;
  std::vector<LinkId> links;

  OraclePlant() {
    for (NodeId n = 0; n < 6; ++n) {
      cables.push_back(plant.add_cable(n, n + 1, 2.0, Medium::kFiber, 4, DataRate::gbps(25),
                                       test_power()));
    }
    const FecSpec kr4 = FecSpec::of(FecScheme::kRsKr4);
    links.push_back(plant.create_adjacent_link(cables[0], {0}, kr4));
    links.push_back(plant.create_adjacent_link(cables[0], {1, 2, 3}, kr4));
    links.push_back(plant.create_adjacent_link(cables[1], {0, 1, 2, 3}, kr4));
    links.push_back(plant.create_adjacent_link(cables[2], {0, 1}, kr4));
    links.push_back(plant.create_link(3, 6,
                                      {LinkSegment{cables[3], {0, 1}},
                                       LinkSegment{cables[4], {0, 1}},
                                       LinkSegment{cables[5], {0, 1}}},
                                      kr4));
    links.push_back(plant.create_link(2, 6,
                                      {LinkSegment{cables[2], {2}}, LinkSegment{cables[3], {2}},
                                       LinkSegment{cables[4], {2}}, LinkSegment{cables[5], {2}}},
                                      kr4));
  }
};

void expect_same_lane_stats(const PhysicalPlant& ref, const PhysicalPlant& memo, int step) {
  for (CableId c = 0; c < ref.cable_count(); ++c) {
    for (int i = 0; i < ref.cable(c).lane_count(); ++i) {
      const LaneStats& a = ref.cable(c).lane(i).stats();
      const LaneStats& b = memo.cable(c).lane(i).stats();
      ASSERT_EQ(a.bits_carried, b.bits_carried) << "step " << step << " cable " << c << " lane " << i;
      ASSERT_EQ(a.corrected_codewords, b.corrected_codewords)
          << "step " << step << " cable " << c << " lane " << i;
      ASSERT_EQ(a.uncorrected_codewords, b.uncorrected_codewords);
      ASSERT_EQ(a.observed_pre_fec_ber, b.observed_pre_fec_ber);
      ASSERT_EQ(a.total_up_time, b.total_up_time);
      ASSERT_EQ(a.total_training_time, b.total_training_time);
    }
  }
}

TEST(AccountFrameOracle, MemoizedPathMatchesReferenceDrawForDraw) {
  constexpr std::array<double, 7> kBers = {0.0, 1e-12, 1e-9, 1e-6, 1e-4, 1e-3, 2e-2};
  constexpr std::array<std::int64_t, 4> kFullFrameBytes = {64, 1024, 1500, 9000};
  DrawBranches seen;
  for (std::uint64_t seed : {1u, 2u, 3u}) {
    OraclePlant ref;
    OraclePlant memo;
    rsf::sim::RandomStream ops(seed, "oracle-ops");
    rsf::sim::RandomStream ref_rng(seed, "account");
    rsf::sim::RandomStream memo_rng(seed, "account");
    const auto pick = [&ops](std::size_t n) {
      return static_cast<std::size_t>(ops.uniform_int(0, static_cast<std::int64_t>(n) - 1));
    };
    for (int step = 0; step < 4000; ++step) {
      const int op = static_cast<int>(ops.uniform_int(0, 9));
      if (op < 7) {
        // Mostly full-size frames (memo hits), sometimes a short tail
        // of any bit length (misses, and 3-lane remainders).
        const DataSize frame = ops.uniform_int(0, 3) == 0
                                   ? DataSize::bits(ops.uniform_int(1, 8 * 9000))
                                   : DataSize::bytes(kFullFrameBytes[pick(kFullFrameBytes.size())]);
        const std::size_t link = pick(ref.links.size());
        reference_account_frame(ref.plant, ref.links[link], frame, ref_rng, seen);
        memo.plant.account_frame(memo.links[link], frame, memo_rng);
      } else if (op == 7) {
        const std::size_t link = pick(ref.links.size());
        const FecSpec fec = FecSpec::of(kAllFecSchemes[pick(kAllFecSchemes.size())]);
        ref.plant.set_fec(ref.links[link], fec);
        memo.plant.set_fec(memo.links[link], fec);
      } else if (op == 8) {
        const std::size_t cable = pick(ref.cables.size());
        const double ber = kBers[pick(kBers.size())];
        ref.plant.set_cable_ber(ref.cables[cable], ber);
        memo.plant.set_cable_ber(memo.cables[cable], ber);
      } else {
        // Behind the plant's back: only the per-frame BER check sees it.
        const std::size_t cable = pick(ref.cables.size());
        const int lane = static_cast<int>(pick(4));
        const double ber = kBers[pick(kBers.size())];
        ref.plant.cable(ref.cables[cable]).lane(lane).set_pre_fec_ber(ber);
        memo.plant.cable(memo.cables[cable]).lane(lane).set_pre_fec_ber(ber);
      }
      expect_same_lane_stats(ref.plant, memo.plant, step);
      if (::testing::Test::HasFatalFailure()) return;
      ASSERT_EQ(ref_rng(), memo_rng()) << "seed " << seed << " step " << step;
      ASSERT_EQ(ref_rng.normal(0.0, 1.0), memo_rng.normal(0.0, 1.0))
          << "seed " << seed << " step " << step;
    }
  }
  // Every poisson branch was exercised.
  EXPECT_GT(seen.none, 0);
  EXPECT_GT(seen.knuth, 0);
  EXPECT_GT(seen.normal, 0);
}

/// LogicalLink::frame_loss_prob without its memos: the FEC model per
/// segment at the segment's worst lane BER.
double reference_frame_loss(const PhysicalPlant& plant, LinkId id, DataSize frame) {
  const LogicalLink& l = plant.link(id);
  double survive = 1.0;
  for (const LinkSegment& seg : l.segments()) {
    double seg_ber = 0.0;
    for (int lane : seg.lanes) {
      seg_ber = std::max(seg_ber, plant.cable(seg.cable).lane(lane).pre_fec_ber());
    }
    survive *= 1.0 - l.fec().frame_loss_prob(seg_ber, frame);
  }
  return 1.0 - survive;
}

TEST(FrameLossOracle, MemoizedLossMatchesModelExactly) {
  // Frame sizes, FEC switches and BER writes (through the plant and
  // behind its back) in random order: both memo levels, the (BER, frame)
  // result and the per-BER codeword error, must never serve a stale value.
  constexpr std::array<double, 6> kBers = {0.0, 1e-9, 1e-6, 1e-4, 1e-3, 2e-2};
  OraclePlant o;
  rsf::sim::RandomStream ops(11, "loss-oracle");
  const auto pick = [&ops](std::size_t n) {
    return static_cast<std::size_t>(ops.uniform_int(0, static_cast<std::int64_t>(n) - 1));
  };
  for (int step = 0; step < 6000; ++step) {
    const int op = static_cast<int>(ops.uniform_int(0, 9));
    if (op == 7) {
      o.plant.set_fec(o.links[pick(o.links.size())],
                      FecSpec::of(kAllFecSchemes[pick(kAllFecSchemes.size())]));
    } else if (op == 8) {
      o.plant.set_cable_ber(o.cables[pick(o.cables.size())], kBers[pick(kBers.size())]);
    } else if (op == 9) {
      o.plant.cable(o.cables[pick(o.cables.size())])
          .lane(static_cast<int>(pick(4)))
          .set_pre_fec_ber(kBers[pick(kBers.size())]);
    }
    const DataSize frame = ops.uniform_int(0, 1) == 0
                               ? DataSize::bytes(1024)
                               : DataSize::bits(ops.uniform_int(1, 8 * 9000));
    const LinkId id = o.links[pick(o.links.size())];
    ASSERT_EQ(o.plant.link(id).frame_loss_prob(frame), reference_frame_loss(o.plant, id, frame))
        << "step " << step << " link " << id;
  }
}

// --- Property test: random op sequences keep invariants ---

TEST(PlantProperty, RandomOpSequencePreservesInvariants) {
  rsf::sim::RandomStream rng(2024, "plant-fuzz");
  for (int trial = 0; trial < 20; ++trial) {
    PhysicalPlant plant;
    // A ring of 6 nodes, 4 lanes each cable.
    std::vector<CableId> cables;
    for (int i = 0; i < 6; ++i) {
      cables.push_back(plant.add_cable(static_cast<NodeId>(i),
                                       static_cast<NodeId>((i + 1) % 6), 2.0,
                                       Medium::kFiber, 4, DataRate::gbps(25), test_power()));
    }
    for (CableId c : cables) plant.create_adjacent_link(c, {0, 1, 2, 3});

    for (int op = 0; op < 60; ++op) {
      const auto ids = plant.link_ids();
      if (ids.empty()) break;
      const LinkId pick = ids[static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(ids.size()) - 1))];
      const int action = static_cast<int>(rng.uniform_int(0, 3));
      try {
        switch (action) {
          case 0: {
            const int lanes = plant.link(pick).lane_count();
            if (lanes >= 2) plant.split_link(pick, 1 + static_cast<int>(rng.uniform_int(0, lanes - 2)));
            break;
          }
          case 1: {
            // Try to bundle with any sibling.
            for (LinkId other : plant.link_ids()) {
              if (other == pick || !plant.has_link(pick)) break;
              try {
                plant.bundle_links(pick, other);
                break;
              } catch (const std::invalid_argument&) {
              }
            }
            break;
          }
          case 2: {
            for (LinkId other : plant.link_ids()) {
              if (other == pick || !plant.has_link(pick)) break;
              try {
                plant.bypass_join(pick, other);
                break;
              } catch (const std::invalid_argument&) {
              }
            }
            break;
          }
          case 3: {
            const auto joints = [&] {
              std::vector<NodeId> out;
              const LogicalLink& l = plant.link(pick);
              NodeId cursor = l.end_a();
              for (std::size_t i = 0; i + 1 < l.segments().size(); ++i) {
                cursor = plant.cable(l.segments()[i].cable).other_end(cursor);
                out.push_back(cursor);
              }
              return out;
            }();
            if (!joints.empty()) {
              plant.bypass_sever(pick, joints[static_cast<std::size_t>(rng.uniform_int(
                                           0, static_cast<std::int64_t>(joints.size()) - 1))]);
            }
            break;
          }
          default:
            break;
        }
      } catch (const std::invalid_argument&) {
        // Rejected ops must leave the plant untouched; validate below.
      }
      ASSERT_TRUE(plant.validate().empty())
          << "trial " << trial << " op " << op << ": " << plant.validate();
    }
    // Total lane ownership never exceeds physical lanes.
    int owned = 0;
    for (CableId c : cables) {
      owned += 4 - static_cast<int>(plant.free_lanes(c).size());
    }
    EXPECT_LE(owned, 24);
  }
}

}  // namespace
}  // namespace rsf::phy
