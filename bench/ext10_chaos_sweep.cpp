// EXT10 — fleet-scale resilience sweep: correlated failures under the
// chaos harness.
//
// Every arm drives the fixed four-rack chaos fleet (two shared-risk
// trenches plus a bypass, hot incast + background traffic, the
// reservation controller on) through one failure story — a trench
// cut, a hysteresis-defeating flap storm, a rack-wide brownout, a
// mid-epoch controller kill with a cold or checkpointed restart, the
// combined acceptance scenario, and a seeded-random timeline — and
// reports the degraded-mode SLOs next to the no-chaos baseline:
// flows failed %, p99 job time degradation, and how many epochs a
// restarted controller needed to re-earn the hot pair's reservation.
// Each run carries the chaos invariant verifier (bounded, conserving,
// leak-free); the JSON artifact (--json <path>; bench-smoke
// schema-validates and uploads it) reports the verdicts per arm, and
// the anchor_ext10_chaos_sweep ctest byte-diffs the whole output
// against its golden.
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "workload/chaos.hpp"

namespace {

using namespace rsf;
using rsf::sim::SimTime;
using workload::ChaosAction;
using workload::ChaosScenario;
using workload::ChaosScenarioConfig;
using workload::ChaosScenarioResult;

struct Arm {
  const char* name;
  ChaosScenarioConfig cfg;
  ChaosScenarioResult result;
};

ChaosScenarioConfig arm_config(const std::string& name) {
  ChaosScenarioConfig cfg;
  auto us = [](int t) { return SimTime::microseconds(t); };
  if (name == "baseline") {
    // No chaos: the SLO reference every degradation is judged against.
  } else if (name == "baseline_long") {
    // The restart arms run 256 kB flows (the hot pair must outlive the
    // relearn window); their degradation is judged against this
    // matched long-flow baseline, not the 96 kB one.
    cfg.hot_bytes = phy::DataSize::kilobytes(256);
  } else if (name == "srlg_cut") {
    cfg.timeline.push_back({us(60), ChaosAction::kCutGroup, ChaosScenario::kTrenchA});
    cfg.timeline.push_back({us(200), ChaosAction::kRepairGroup, ChaosScenario::kTrenchA});
  } else if (name == "srlg_flap") {
    // Cuts riding the controller's 20 us epoch boundaries: promotion
    // decisions race the flap, hysteresis is defeated on purpose.
    for (const int t : {40, 80, 120}) {
      cfg.timeline.push_back({us(t), ChaosAction::kCutGroup, ChaosScenario::kTrenchA});
      cfg.timeline.push_back(
          {us(t + 10), ChaosAction::kRepairGroup, ChaosScenario::kTrenchA});
    }
  } else if (name == "brownout") {
    cfg.timeline.push_back({us(80), ChaosAction::kBrownoutRack, 1});
    cfg.timeline.push_back({us(400), ChaosAction::kRestoreRack, 1});
  } else if (name == "restart_cold" || name == "restart_ckpt") {
    const bool ckpt = name == "restart_ckpt";
    // Long-lived flows so the hot pair still offers demand while the
    // restarted controller rebuilds its promote streak.
    cfg.hot_bytes = phy::DataSize::kilobytes(256);
    cfg.checkpoint_every = ckpt ? us(60) : SimTime::zero();
    cfg.timeline.push_back({us(110), ChaosAction::kKillController, 0});
    cfg.timeline.push_back({us(130), ChaosAction::kRestartController, 0, ckpt});
  } else if (name == "combined") {
    // The acceptance scenario: cut + mid-epoch kill + checkpointed
    // restart + repair + flap tail, all in one run.
    cfg.checkpoint_every = us(60);
    cfg.timeline.push_back({us(100), ChaosAction::kCutGroup, ChaosScenario::kTrenchA});
    cfg.timeline.push_back({us(110), ChaosAction::kKillController, 0});
    cfg.timeline.push_back({us(130), ChaosAction::kRestartController, 0, true});
    cfg.timeline.push_back({us(160), ChaosAction::kRepairGroup, ChaosScenario::kTrenchA});
    cfg.timeline.push_back({us(190), ChaosAction::kCutGroup, ChaosScenario::kTrenchA});
    cfg.timeline.push_back({us(202), ChaosAction::kRepairGroup, ChaosScenario::kTrenchA});
  } else if (name == "random") {
    cfg.seed = 11;
    cfg.loss_prob = 0.01;
    cfg.random.enable = true;
    cfg.random.cuts = 2;
    cfg.random.flap_cycles = 2;
  }
  return cfg;
}

double p99_degradation_pct(const ChaosScenarioResult& r, const ChaosScenarioResult& base) {
  const double b = base.flow_p99.us();
  if (b <= 0 || r.flows_delivered == 0) return 0.0;
  return (r.flow_p99.us() - b) / b * 100.0;
}

/// The no-chaos arm whose flow size matches this arm's — degradation
/// is only meaningful against a like-for-like baseline.
const ChaosScenarioResult& matched_baseline(const std::vector<Arm>& arms, const Arm& a) {
  for (const Arm& b : arms) {
    const bool no_chaos = b.cfg.timeline.empty() && !b.cfg.random.enable;
    if (no_chaos && b.cfg.hot_bytes == a.cfg.hot_bytes) return b.result;
  }
  return arms.front().result;
}

void emit_json(const std::vector<Arm>& arms, const std::string& path) {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "ext10: cannot write %s\n", path.c_str());
    return;
  }
  std::fprintf(f, "{\n  \"benchmark\": \"ext10_chaos_sweep\",\n  \"arms\": [\n");
  for (std::size_t i = 0; i < arms.size(); ++i) {
    const Arm& a = arms[i];
    const ChaosScenarioResult& r = a.result;
    std::fprintf(
        f,
        "    {\"arm\": \"%s\",\n"
        "      \"flows_offered\": %llu, \"flows_delivered\": %llu, "
        "\"flows_failed\": %llu, \"flows_inflight_at_cutoff\": %llu,\n"
        "      \"flows_failed_pct\": %.2f, \"p99_us\": %.3f, "
        "\"p99_degradation_pct\": %.2f, \"hot_job_us\": %.3f, "
        "\"background_job_us\": %.3f,\n"
        "      \"conservation_ok\": %s, \"completed_before_horizon\": %s, "
        "\"slots_at_baseline\": %s,\n"
        "      \"reservation_relearned\": %s, \"relearn_epochs\": %d, "
        "\"controller_restarts\": %llu,\n"
        "      \"srlg_cuts\": %llu, \"preemptions\": %llu, \"reroutes\": %llu, "
        "\"retransmits\": %llu, \"promotions\": %llu, \"demotions\": %llu}%s\n",
        a.name, static_cast<unsigned long long>(r.flows_offered),
        static_cast<unsigned long long>(r.flows_delivered),
        static_cast<unsigned long long>(r.flows_failed),
        static_cast<unsigned long long>(r.flows_inflight_at_cutoff),
        r.flows_failed_pct, r.flow_p99.us(),
        p99_degradation_pct(r, matched_baseline(arms, a)),
        r.hot.job_completion.us(), r.background.job_completion.us(),
        r.conservation_ok ? "true" : "false",
        r.completed_before_horizon ? "true" : "false",
        r.slots_at_baseline ? "true" : "false",
        r.reservation_relearned ? "true" : "false", r.relearn_epochs,
        static_cast<unsigned long long>(r.controller_restarts),
        static_cast<unsigned long long>(r.srlg_cuts),
        static_cast<unsigned long long>(r.reservation_preemptions),
        static_cast<unsigned long long>(r.reroutes),
        static_cast<unsigned long long>(r.retransmits),
        static_cast<unsigned long long>(r.promotions),
        static_cast<unsigned long long>(r.demotions),
        i + 1 < arms.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("wrote %s\n", path.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  const std::string json_path =
      bench::parse_json_path(argc, argv, "bench-ext10_chaos_sweep.json");
  bench::print_header(
      "EXT10", "correlated-failure chaos sweep (degraded-mode SLOs)",
      "under trench cuts, flap storms, brownouts and controller restarts the "
      "fleet degrades predictably: conservation holds, failed flows stay "
      "explainable, and a restarted controller re-earns its reservation");

  std::vector<Arm> arms;
  for (const char* name :
       {"baseline", "baseline_long", "srlg_cut", "srlg_flap", "brownout",
        "restart_cold", "restart_ckpt", "combined", "random"}) {
    arms.push_back(Arm{name, arm_config(name), {}});
  }

  for (Arm& a : arms) {
    ChaosScenario scenario(a.cfg);
    a.result = scenario.run();
  }

  telemetry::Table table(
      "ext10 — degraded-mode SLOs per chaos arm",
      {"arm", "failed %", "p99 (us)", "p99 degr %", "hot job (us)", "relearn",
       "cuts", "preempt", "reroutes", "invariants"});
  for (const Arm& a : arms) {
    const ChaosScenarioResult& r = a.result;
    char buf[32];
    table.row().cell(a.name);
    std::snprintf(buf, sizeof buf, "%.1f", r.flows_failed_pct);
    table.cell(buf);
    std::snprintf(buf, sizeof buf, "%.1f", r.flow_p99.us());
    table.cell(buf);
    std::snprintf(buf, sizeof buf, "%.1f",
                  p99_degradation_pct(r, matched_baseline(arms, a)));
    table.cell(buf);
    std::snprintf(buf, sizeof buf, "%.1f", r.hot.job_completion.us());
    table.cell(buf);
    if (r.controller_restarts > 0) {
      std::snprintf(buf, sizeof buf, "%d ep", r.relearn_epochs);
    } else {
      std::snprintf(buf, sizeof buf, "-");
    }
    table.cell(buf);
    std::snprintf(buf, sizeof buf, "%llu", static_cast<unsigned long long>(r.srlg_cuts));
    table.cell(buf);
    std::snprintf(buf, sizeof buf, "%llu",
                  static_cast<unsigned long long>(r.reservation_preemptions));
    table.cell(buf);
    std::snprintf(buf, sizeof buf, "%llu", static_cast<unsigned long long>(r.reroutes));
    table.cell(buf);
    const bool ok = r.conservation_ok && r.completed_before_horizon && r.slots_at_baseline;
    table.cell(ok ? "ok" : "VIOLATED");
  }
  table.print();
  emit_json(arms, json_path);

  // Invariant violations fail the bench (bench-smoke runs this).
  for (const Arm& a : arms) {
    const ChaosScenarioResult& r = a.result;
    if (!r.conservation_ok || !r.completed_before_horizon || !r.slots_at_baseline) {
      std::fprintf(stderr, "ext10: invariant violated in arm %s\n", a.name);
      return 1;
    }
    if (r.controller_restarts > 0 && !r.reservation_relearned) {
      std::fprintf(stderr, "ext10: arm %s never re-learned its reservation\n", a.name);
      return 1;
    }
  }
  return 0;
}
