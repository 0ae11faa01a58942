// The fleet scenario driver (workload::FleetScenario) on its own: a
// minimal family built from the shared pieces, driven to drain and
// cut off early. The driver folds every hot (background) job into one
// result, its verifier reports a run cut off at the horizon (in-flight
// flows, pools not quiesced, yet conserving) and, under kThrow,
// rejects it; run() is once and a non-positive hot_bytes fails at
// construction. The three real families' sweeps live in
// fleet_property_test.
#include <gtest/gtest.h>

#include <stdexcept>

#include "phy/units.hpp"
#include "runtime/fleet.hpp"
#include "workload/scenario.hpp"
#include "workload/skewed.hpp"

namespace rsf {
namespace {

using phy::DataSize;
using rsf::sim::SimTime;
using workload::FleetScenario;
using workload::FleetScenarioResult;
using namespace rsf::sim::literals;

/// Two racks on one 25 Gbps link: two hot incasts (the second starts
/// 50 µs late) and one background incast, all into rack 0.
class LineScenario : public FleetScenario {
 public:
  explicit LineScenario(DataSize bytes)
      : FleetScenario("LineScenario", fleet_config(), bytes), bytes_(bytes) {}

  using OnViolation = FleetScenario::OnViolation;
  FleetScenarioResult run(OnViolation on_violation, SimTime horizon) {
    return drive(on_violation, horizon);
  }

 private:
  static runtime::FleetConfig fleet_config() {
    runtime::FleetConfig fc = workload::scenario_fleet(
        1, 8.0, runtime::BookingDiscipline::kCarve, /*demote_after=*/4, /*max_pairs=*/1);
    fc.racks = {workload::grid_rack(4, 4), workload::grid_rack(4, 4)};
    fc.spine = {workload::spine_link(0, 1, 25, 0.0)};
    return fc;
  }

  Jobs make_jobs(runtime::FleetRuntime& f) override {
    Jobs jobs;
    for (const SimTime start : {SimTime::zero(), 50_us}) {
      workload::CrossRackShuffleConfig hot;
      hot.mappers = {f.at(1, 0, 0), f.at(1, 1, 0)};
      hot.reducers = {f.at(0, 0, 0)};
      hot.bytes_per_pair = bytes_;
      hot.start = start;
      jobs.hot.push_back(&f.add_shuffle(hot));
    }
    workload::CrossRackShuffleConfig bg;
    bg.mappers = {f.at(1, 3, 3)};
    bg.reducers = {f.at(0, 3, 3)};
    bg.bytes_per_pair = bytes_;
    jobs.background.push_back(&f.add_shuffle(bg));
    return jobs;
  }

  DataSize bytes_;
};

TEST(FleetScenarioDriver, DrainedRunFoldsEveryJobAndPassesTheVerifier) {
  LineScenario s(DataSize::kilobytes(64));
  const FleetScenarioResult r = s.run(LineScenario::OnViolation::kThrow, SimTime::infinity());
  EXPECT_TRUE(r.verified());
  EXPECT_EQ(r.flows_offered, 5u);
  EXPECT_EQ(r.flows_delivered, 5u);
  EXPECT_EQ(r.flows_failed, 0u);
  EXPECT_EQ(r.flows_inflight_at_cutoff, 0u);
  // Both hot waves fold into one view: flows add, the job completes
  // when the late wave does.
  EXPECT_EQ(r.hot.flows, 4u);
  EXPECT_EQ(r.hot.cross_rack_flows, 4u);
  EXPECT_GT(r.hot.job_completion, 50_us);
  EXPECT_EQ(r.background.flows, 1u);
  EXPECT_EQ(s.fleet().flows_completed(), 5u);
  EXPECT_THROW(s.run(LineScenario::OnViolation::kThrow, SimTime::infinity()),
               std::logic_error);
}

TEST(FleetScenarioDriver, CutoffIsReportedOrRejected) {
  // 5 µs is far too short for a 64 KiB flow: every flow is still in
  // flight at the cutoff, which conserves but neither completes nor
  // quiesces.
  LineScenario report(DataSize::kilobytes(64));
  const FleetScenarioResult r = report.run(LineScenario::OnViolation::kReport, 5_us);
  EXPECT_FALSE(r.verified());
  EXPECT_TRUE(r.conservation_ok);
  EXPECT_FALSE(r.completed_before_horizon);
  EXPECT_FALSE(r.slots_at_baseline);
  EXPECT_EQ(r.flows_offered, 5u);
  EXPECT_EQ(r.flows_inflight_at_cutoff, 5u);

  LineScenario reject(DataSize::kilobytes(64));
  EXPECT_THROW(reject.run(LineScenario::OnViolation::kThrow, 5_us), std::logic_error);
}

TEST(FleetScenarioDriver, NonPositiveHotBytesFailAtConstruction) {
  EXPECT_THROW(LineScenario{DataSize::zero()}, std::invalid_argument);
  workload::SkewedScenarioConfig skewed;
  skewed.hot_bytes = DataSize::zero();
  EXPECT_THROW(workload::SkewedFleetScenario{skewed}, std::invalid_argument);
}

TEST(FleetScenarioDriver, SkewedRunsAddNoChaosCounters) {
  // perfbench digests the fleet's metrics table: only the chaos
  // family may add its own counter set to the registry.
  workload::SkewedFleetScenario s(workload::SkewedScenarioConfig{});
  s.run();
  EXPECT_EQ(s.fleet().metrics().find_counters("chaos"), nullptr);
}

}  // namespace
}  // namespace rsf
