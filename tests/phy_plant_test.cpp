// Structural tests of the physical plant: lanes, cables, logical
// links, and the PLP #1/#2 operations with their invariants.
#include "phy/plant.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <limits>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "sim/random.hpp"

namespace rsf::phy {
namespace {

using rsf::sim::SimTime;
using namespace rsf::sim::literals;

/// The header size the rack transport serializes ahead of cut-through.
constexpr DataSize kHeader = DataSize::bytes(64);

/// Plant with a 4-node chain 0-1-2-3, each cable 4 lanes of 25G, 2 m.
struct ChainFixture {
  PhysicalPlant plant;
  CableId c01, c12, c23;

  ChainFixture() {
    c01 = plant.add_cable(0, 1, 2.0, Medium::kFiber, 4, DataRate::gbps(25));
    c12 = plant.add_cable(1, 2, 2.0, Medium::kFiber, 4, DataRate::gbps(25));
    c23 = plant.add_cable(2, 3, 2.0, Medium::kFiber, 4, DataRate::gbps(25));
  }
};

TEST(Lane, StateMachine) {
  Lane lane(DataRate::gbps(25), 1e-12);
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
  Lane lane(DataRate::gbps(25), 1e-12);
  EXPECT_THROW(lane.complete_training(), std::logic_error);
}

TEST(Lane, TrainingCutByFailureOrPowerOffCompletesDark) {
  Lane lane(DataRate::gbps(25), 1e-12);
  lane.begin_training();
  lane.fail();
  lane.repair();
  lane.complete_training();
  EXPECT_EQ(lane.state(), LaneState::kOff);
  lane.begin_training();
  lane.power_off();
  lane.complete_training();
  EXPECT_EQ(lane.state(), LaneState::kOff);
  // Failed before the training began, repaired before it completed.
  lane.fail();
  lane.begin_training();
  lane.repair();
  lane.complete_training();
  EXPECT_EQ(lane.state(), LaneState::kOff);
  // One completion per training: a second finds the lane up.
  lane.begin_training();
  lane.complete_training();
  EXPECT_TRUE(lane.is_up());
  EXPECT_THROW(lane.complete_training(), std::logic_error);
}

TEST(Lane, PowerFollowsState) {
  Lane lane(DataRate::gbps(25), 1e-12);
  EXPECT_DOUBLE_EQ(lane.power_watts(), kLaneOffWatts);
  lane.begin_training();
  EXPECT_DOUBLE_EQ(lane.power_watts(), kLaneTrainingWatts);
  lane.complete_training();
  EXPECT_DOUBLE_EQ(lane.power_watts(), kLaneActiveWatts);
  lane.power_off();
  EXPECT_DOUBLE_EQ(lane.power_watts(), kLaneOffWatts);
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

TEST(Cable, RejectsUnusableLaneRateAndImpossibleBer) {
  // A zero lane rate saturates every serialization delay, and a BER
  // past 0.5 (or NaN) makes every frame fail: both must fail here,
  // not mid-run.
  PhysicalPlant plant;
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (const DataRate rate :
       {DataRate::zero(), DataRate::gbps(-25), DataRate::bps(inf), DataRate::bps(nan)}) {
    EXPECT_THROW(plant.add_cable(0, 1, 2.0, Medium::kFiber, 4, rate), std::invalid_argument);
  }
  for (const double ber : {-1e-9, 0.6, 2.0, nan}) {
    EXPECT_THROW(
        plant.add_cable(0, 1, 2.0, Medium::kFiber, 4, DataRate::gbps(25), ber),
        std::invalid_argument);
  }
  EXPECT_EQ(plant.cable_count(), 0u);

  // Both ends of [0, 0.5] are valid; set_cable_ber rejects the rest
  // and leaves the lanes untouched.
  const CableId c =
      plant.add_cable(0, 1, 2.0, Medium::kFiber, 4, DataRate::gbps(25), 0.5);
  plant.set_cable_ber(c, 0.0);
  for (const double ber : {-1e-9, 0.6, 2.0, nan}) {
    EXPECT_THROW(plant.set_cable_ber(c, ber), std::invalid_argument);
  }
  EXPECT_EQ(plant.cable(c).lane(0).pre_fec_ber(), 0.0);
}

TEST(Cable, RejectsNanLength) {
  // A NaN length slips past a `<= 0` check and poisons every
  // propagation delay.
  PhysicalPlant plant;
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (const double length : {nan, inf, 0.0}) {
    EXPECT_THROW(plant.add_cable(0, 1, length, Medium::kFiber, 4, DataRate::gbps(25)),
                 std::invalid_argument);
  }
  EXPECT_EQ(plant.cable_count(), 0u);
}

TEST(Cable, EndpointQueries) {
  ChainFixture f;
  const Cable& c = f.plant.cable(f.c01);
  EXPECT_TRUE(c.connects(0));
  EXPECT_TRUE(c.connects(1));
  EXPECT_FALSE(c.connects(2));
  EXPECT_EQ(c.other_end(0), 1u);
  EXPECT_EQ(c.other_end(1), 0u);
  EXPECT_THROW(static_cast<void>(c.other_end(7)), std::invalid_argument);
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

TEST(Plant, RejectsImpossibleFecSpecs) {
  // Every FecSpec a link could be handed — at creation or by set_fec —
  // must describe a real code: a payload fraction, a causal pipeline
  // and, when coded, 0 < k <= n over positive symbols.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  std::vector<FecSpec> bad;
  for (const double overhead : {-0.01, 1.0, 1.5, nan, inf}) {
    FecSpec fec = FecSpec::of(FecScheme::kRsKr4);
    fec.overhead = overhead;
    bad.push_back(fec);
  }
  FecSpec late = FecSpec::of(FecScheme::kNone);
  late.latency = SimTime::nanoseconds(-1);
  bad.push_back(late);
  const auto coded = [](auto mutate) {
    FecSpec fec = FecSpec::of(FecScheme::kRsKp4);
    mutate(fec);
    return fec;
  };
  bad.push_back(coded([](FecSpec& f) { f.symbol_bits = 0; }));
  bad.push_back(coded([](FecSpec& f) { f.symbol_bits = -10; }));
  bad.push_back(coded([](FecSpec& f) { f.k = 0; }));
  bad.push_back(coded([](FecSpec& f) { f.k = -1; }));
  bad.push_back(coded([](FecSpec& f) { f.k = f.n + 1; }));
  bad.push_back(coded([](FecSpec& f) { f.t = -1; }));

  for (std::size_t i = 0; i < bad.size(); ++i) {
    ChainFixture f;
    EXPECT_THROW(f.plant.create_adjacent_link(f.c01, {0, 1}, bad[i]), std::invalid_argument)
        << "spec " << i;
    EXPECT_EQ(f.plant.link_ids().size(), 0u) << "spec " << i;
    const LinkId id = f.plant.create_adjacent_link(f.c01, {2, 3});
    EXPECT_THROW(f.plant.set_fec(id, bad[i]), std::invalid_argument) << "spec " << i;
    EXPECT_EQ(f.plant.link(id).fec().scheme, FecScheme::kNone) << "spec " << i;
  }

  // Every built-in scheme, and an uncoded spec with junk code fields
  // (n == 0 means uncoded), stays installable.
  ChainFixture f;
  const LinkId id = f.plant.create_adjacent_link(f.c01, {0, 1});
  for (const FecScheme s :
       {FecScheme::kNone, FecScheme::kFireCode, FecScheme::kRsKr4, FecScheme::kRsKp4}) {
    f.plant.set_fec(id, FecSpec::of(s));
  }
  FecSpec uncoded = FecSpec::of(FecScheme::kNone);
  uncoded.k = -3;
  uncoded.symbol_bits = 0;
  f.plant.set_fec(id, uncoded);
  EXPECT_EQ(f.plant.link(id).fec().k, -3);
}

TEST(Plant, AccountBitsSpreadsAcrossLanes) {
  ChainFixture f;
  const LinkId id = f.plant.create_adjacent_link(f.c01, {0, 1});
  f.plant.account_frame(id, DataSize::bits(1000), kHeader);
  EXPECT_EQ(f.plant.cable(f.c01).lane(0).bits_carried(), 500u);
  EXPECT_EQ(f.plant.cable(f.c01).lane(1).bits_carried(), 500u);
  EXPECT_EQ(f.plant.cable(f.c01).lane(2).bits_carried(), 0u);
}

TEST(Plant, AccountBitsKeepsRemainderOnThreeLaneLink) {
  ChainFixture f;
  const LinkId id = f.plant.create_adjacent_link(f.c01, {0, 1, 2});
  f.plant.account_frame(id, DataSize::bits(1000), kHeader);  // 333 each + 1
  f.plant.account_frame(id, DataSize::bits(1001), kHeader);  // 333 each + 2
  const auto carried = [&](int lane) { return f.plant.cable(f.c01).lane(lane).bits_carried(); };
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
  f.plant.account_frame(id, DataSize::bits(1001), kHeader);
  for (const CableId c : {f.c01, f.c12, f.c23}) {
    std::uint64_t sum = 0;
    for (int lane = 0; lane < 3; ++lane) sum += f.plant.cable(c).lane(lane).bits_carried();
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
  // All 12 lanes off.
  EXPECT_NEAR(f.plant.total_power_watts(), 12 * kLaneOffWatts, 1e-9);
  const LinkId l01 = f.plant.create_adjacent_link(f.c01, {0});
  const LinkId l12 = f.plant.create_adjacent_link(f.c12, {0});
  f.plant.lane_begin_training(l01);
  f.plant.lane_complete_training(l01);
  f.plant.lane_begin_training(l12);
  f.plant.lane_complete_training(l12);
  // Two lanes up now.
  const double lanes_w = 10 * kLaneOffWatts + 2 * kLaneActiveWatts;
  EXPECT_NEAR(f.plant.total_power_watts(), lanes_w, 1e-9);
  const LinkId j = f.plant.bypass_join(l01, l12);
  // One bypass joint adds its own draw.
  EXPECT_NEAR(f.plant.total_power_watts(), lanes_w + kBypassPowerW, 1e-9);
  EXPECT_NEAR(f.plant.link(j).power_watts(), 2 * kLaneActiveWatts + kBypassPowerW, 1e-9);
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

// --- PLP #5 exactness: folded lane bits against the eager split ---

/// A chain 0-1-...-6 of 4-lane cables carrying 1-, 2-, 3- and 4-lane
/// adjacent links and two bypass links (2 lanes x 3 segments, 1 lane x
/// 4 segments).
struct OraclePlant {
  PhysicalPlant plant;
  std::vector<CableId> cables;
  std::vector<LinkId> links;

  OraclePlant() {
    for (NodeId n = 0; n < 6; ++n) {
      cables.push_back(plant.add_cable(n, n + 1, 2.0, Medium::kFiber, 4, DataRate::gbps(25)));
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

/// The eager per-frame bit split the fold must reproduce: bits / lanes
/// to every lane of every segment, plus one bit to each of a segment's
/// first bits % lanes lanes.
void reference_account_bits(const PhysicalPlant& plant, LinkId id, std::int64_t bits,
                            std::map<LaneRef, std::uint64_t>& expected) {
  const LogicalLink& l = plant.link(id);
  const int lanes = l.lane_count();
  for (const LinkSegment& seg : l.segments()) {
    for (std::size_t i = 0; i < seg.lanes.size(); ++i) {
      const std::int64_t extra = static_cast<std::int64_t>(i) < bits % lanes ? 1 : 0;
      expected[LaneRef{seg.cable, seg.lanes[i]}] += static_cast<std::uint64_t>(bits / lanes + extra);
    }
  }
}

TEST(AccountFrameOracle, FoldedBitsMatchEagerSplitAtEveryStep) {
  // Frames of full and odd tail sizes on 1-4-lane and multi-segment
  // links, interleaved with FEC switches (which do not fold), BER
  // writes through the plant and behind its back, split, bundle,
  // bypass join/sever, destroy and re-provision. After every op each
  // lane's bits, read through the plant, equal the eager split exactly.
  constexpr std::array<double, 6> kBers = {0.0, 1e-12, 1e-9, 1e-6, 1e-4, 2e-2};
  constexpr std::array<std::int64_t, 4> kFullFrameBytes = {64, 1024, 1500, 9000};
  int structural = 0;
  for (std::uint64_t seed : {1u, 2u, 3u}) {
    OraclePlant o;
    std::map<LaneRef, std::uint64_t> expected_bits;
    rsf::sim::RandomStream ops(seed, "oracle-ops");
    const auto pick = [&ops](std::size_t n) {
      return static_cast<std::size_t>(ops.uniform_int(0, static_cast<std::int64_t>(n) - 1));
    };
    for (int step = 0; step < 1500; ++step) {
      // A burst of ops between reads, so frames are still pending when
      // a later op in the burst must fold them.
      for (auto burst = ops.uniform_int(1, 6); burst > 0; --burst) {
        const std::vector<LinkId> live = o.plant.link_ids();
        const LinkId id = live[pick(live.size())];
        const int op = static_cast<int>(ops.uniform_int(0, 19));
        try {
          if (op < 12) {
            const DataSize frame =
                ops.uniform_int(0, 3) == 0
                    ? DataSize::bits(ops.uniform_int(1, 8 * 9000))
                    : DataSize::bytes(kFullFrameBytes[pick(kFullFrameBytes.size())]);
            reference_account_bits(o.plant, id, frame.bit_count(), expected_bits);
            o.plant.account_frame(id, frame, kHeader);
          } else if (op == 12) {
            o.plant.set_fec(id, FecSpec::of(kAllFecSchemes[pick(kAllFecSchemes.size())]));
          } else if (op == 13) {
            o.plant.set_cable_ber(o.cables[pick(o.cables.size())], kBers[pick(kBers.size())]);
          } else if (op == 14) {
            o.plant.cable(o.cables[pick(o.cables.size())])
                .lane(static_cast<int>(pick(4)))
                .set_pre_fec_ber(kBers[pick(kBers.size())]);
          } else if (op == 15) {
            const int lanes = o.plant.link(id).lane_count();
            if (lanes >= 2) {
              o.plant.split_link(id, 1 + static_cast<int>(pick(static_cast<std::size_t>(lanes) - 1)));
            }
          } else if (op == 16) {
            o.plant.bundle_links(id, live[pick(live.size())]);
          } else if (op == 17) {
            o.plant.bypass_join(id, live[pick(live.size())]);
          } else if (op == 18) {
            const LogicalLink& l = o.plant.link(id);
            if (l.segments().size() >= 2) {
              const NodeId joint =
                  std::as_const(o.plant).cable(l.segments().front().cable).other_end(l.end_a());
              o.plant.bypass_sever(id, joint);
            }
          } else if (live.size() > 1) {
            o.plant.destroy_link(id);
          }
          if (op >= 15) ++structural;
        } catch (const std::invalid_argument&) {
          // An op whose preconditions the random pick missed changes nothing.
        }
        // Keep traffic flowing: re-provision any cable left without links.
        for (const CableId c : o.cables) {
          const std::vector<int> free = o.plant.free_lanes(c);
          if (free.size() == 4) {
            o.plant.create_adjacent_link(
                c, {free.begin(), free.begin() + 1 + static_cast<long>(pick(4))},
                FecSpec::of(FecScheme::kRsKr4));
          }
        }
      }
      for (CableId c = 0; c < o.plant.cable_count(); ++c) {
        for (int i = 0; i < 4; ++i) {
          const LaneRef ref{c, i};
          ASSERT_EQ(o.plant.lane_bits_carried(ref), expected_bits[ref])
              << "seed " << seed << " step " << step << " cable " << c << " lane " << i;
        }
      }
    }
  }
  EXPECT_GT(structural, 500);  // the link set really churned
}

TEST(AccountFrameOracle, MutableCableAccessSeesFoldedStats) {
  ChainFixture f;
  const LinkId id = f.plant.create_adjacent_link(f.c01, {0, 1, 2});
  f.plant.account_frame(id, DataSize::bits(1001), kHeader);  // 334, 334, 333
  EXPECT_EQ(f.plant.cable(f.c01).lane(0).bits_carried(), 334u);
  EXPECT_EQ(f.plant.cable(f.c01).lane(2).bits_carried(), 333u);
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

/// LogicalLink::frame_cost without its memo or the link's caches: the
/// timing from the member lanes and cables, the loss from the model,
/// the bit remainder from the lane count.
FrameCost reference_frame_cost(const PhysicalPlant& plant, LinkId id, DataSize frame,
                               DataSize header) {
  const LogicalLink& l = plant.link(id);
  const FecSpec& fec = l.fec();
  DataRate raw = DataRate::zero();
  for (const int lane : l.segments().front().lanes) {
    raw = raw + plant.cable(l.segments().front().cable).lane(lane).rate();
  }
  SimTime transit = fec.latency;
  for (const LinkSegment& seg : l.segments()) transit += plant.cable(seg.cable).propagation_delay();
  transit += kBypassLatency * static_cast<std::int64_t>(l.segments().size() - 1);
  const std::int64_t bits = frame.bit_count();
  FrameCost c;
  c.frame_bits = bits;
  c.header_bits = header.bit_count();
  c.ber_epoch = plant.ber_epoch();
  c.serialization = transmission_time(frame, fec.effective_rate(raw));
  c.header_serialization = transmission_time(std::min(header, frame), fec.effective_rate(raw));
  c.transit = transit;
  c.loss = reference_frame_loss(plant, id, frame);
  c.remainder = bits % l.lane_count();
  return c;
}

TEST(FrameLossOracle, MemoizedLossMatchesModelExactly) {
  // Frame sizes, FEC switches and BER writes (through the plant and
  // behind its back) in random order: both memo levels, the (BER, frame)
  // result and the per-BER codeword error, must never serve a stale
  // value. After every op, every link's frame-cost row, read through
  // account_frame as a hop reads it, equals the unmemoized computation
  // field by field, at a repeated full-size frame and at a random size
  // (odd tails and frames shorter than the header included).
  constexpr std::array<double, 6> kBers = {0.0, 1e-9, 1e-6, 1e-4, 1e-3, 2e-2};
  OraclePlant o;
  rsf::sim::RandomStream ops(11, "loss-oracle");
  const auto pick = [&ops](std::size_t n) {
    return static_cast<std::size_t>(ops.uniform_int(0, static_cast<std::int64_t>(n) - 1));
  };
  const auto expect_row = [&o](LinkId id, DataSize frame, int step) {
    const FrameCost want = reference_frame_cost(o.plant, id, frame, kHeader);
    const FrameCost& got = o.plant.account_frame(id, frame, kHeader);
    const auto where = [&] {
      return "step " + std::to_string(step) + " link " + std::to_string(id) + " frame " +
             std::to_string(frame.bit_count());
    };
    ASSERT_EQ(got.frame_bits, want.frame_bits) << where();
    ASSERT_EQ(got.header_bits, want.header_bits) << where();
    ASSERT_EQ(got.ber_epoch, want.ber_epoch) << where();
    ASSERT_EQ(got.serialization, want.serialization) << where();
    ASSERT_EQ(got.header_serialization, want.header_serialization) << where();
    ASSERT_EQ(got.transit, want.transit) << where();
    ASSERT_EQ(got.loss, want.loss) << where();
    ASSERT_EQ(got.remainder, want.remainder) << where();
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
    const int kind = static_cast<int>(ops.uniform_int(0, 3));
    const DataSize frame = kind == 0   ? DataSize::bytes(1024)
                           : kind == 1 ? DataSize::bits(ops.uniform_int(1, 8 * 64))
                                       : DataSize::bits(ops.uniform_int(1, 8 * 9000));
    const LinkId id = o.links[pick(o.links.size())];
    ASSERT_EQ(o.plant.link(id).frame_loss_prob(frame), reference_frame_loss(o.plant, id, frame))
        << "step " << step << " link " << id;
    // Each link's memo holds the full-size frame from the last step, so
    // the first read is a hit unless the op above invalidated it; the
    // second is a miss unless the sizes match; the third re-arms it.
    for (const LinkId l : o.links) {
      expect_row(l, DataSize::bytes(1024), step);
      expect_row(l, frame, step);
      expect_row(l, DataSize::bytes(1024), step);
    }
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
                                       Medium::kFiber, 4, DataRate::gbps(25)));
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
