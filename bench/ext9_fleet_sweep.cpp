// EXT9 — fleet-scope sweep: circuit reservations vs. packet sharing
// under skew.
//
// The paper's core trade — circuit-style reserved capacity against
// packet-style statistical sharing — replayed at fleet scale: every
// skewed scenario (hot-rack incast, slow spine leg, mixed rack sizes)
// runs twice per sweep point, once as the pure packetized spine and
// once with the FleetController's reservation policy promoting the
// hot rack pair into a spine circuit. The sweep crosses per-link
// loss_prob with the controller's utilisation repricing weight, and
// reports the regime crossover per point: how much the hot pair's
// job completion improves under a reservation, and how much the
// background traffic sharing the residual degrades — both quantified
// in the emitted JSON (--json <path>; bench-smoke uploads it).
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "workload/skewed.hpp"

namespace {

using namespace rsf;
using workload::FleetScenarioResult;
using workload::SkewedFleetScenario;
using workload::SkewedScenarioConfig;
using workload::SkewedScenarioKind;

const char* kind_name(SkewedScenarioKind k) {
  switch (k) {
    case SkewedScenarioKind::kHotRackIncast:
      return "hot_rack_incast";
    case SkewedScenarioKind::kSlowSpineLeg:
      return "slow_spine_leg";
    case SkewedScenarioKind::kMixedRackSizes:
      return "mixed_rack_sizes";
  }
  return "?";
}

FleetScenarioResult run_arm(SkewedScenarioKind kind, double loss, double weight,
                            bool reservations) {
  SkewedScenarioConfig cfg;
  cfg.kind = kind;
  cfg.loss_prob = loss;
  cfg.utilization_weight = weight;
  cfg.reservations = reservations;
  SkewedFleetScenario scenario(cfg);
  return scenario.run();
}

struct SweepPoint {
  SkewedScenarioKind kind;
  double loss;
  double weight;
  FleetScenarioResult packet;    // reservations off
  FleetScenarioResult reserved;  // reservations on

  [[nodiscard]] double hot_speedup_pct() const {
    const double off = packet.hot.job_completion.us();
    return off > 0 ? (off - reserved.hot.job_completion.us()) / off * 100.0 : 0.0;
  }
  [[nodiscard]] double background_slowdown_pct() const {
    const double off = packet.background.job_completion.us();
    return off > 0 ? (reserved.background.job_completion.us() - off) / off * 100.0 : 0.0;
  }
};

void emit_arm(FILE* f, const char* name, const FleetScenarioResult& r) {
  std::fprintf(f,
               "      \"%s\": {\"hot_job_us\": %.3f, \"background_job_us\": %.3f, "
               "\"hot_retransmits\": %llu, \"background_retransmits\": %llu, "
               "\"hot_failed\": %llu, \"background_failed\": %llu, "
               "\"promotions\": %llu, \"demotions\": %llu, \"preemptions\": %llu, "
               "\"reserved_bytes\": %llu}",
               name, r.hot.job_completion.us(), r.background.job_completion.us(),
               static_cast<unsigned long long>(r.hot.retransmits),
               static_cast<unsigned long long>(r.background.retransmits),
               static_cast<unsigned long long>(r.hot.failed),
               static_cast<unsigned long long>(r.background.failed),
               static_cast<unsigned long long>(r.promotions),
               static_cast<unsigned long long>(r.demotions),
               static_cast<unsigned long long>(r.reservation_preemptions),
               static_cast<unsigned long long>(r.reserved_bytes));
}

void emit_json(const std::vector<SweepPoint>& points, const std::string& path) {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "ext9: cannot write %s\n", path.c_str());
    return;
  }
  std::fprintf(f, "{\n  \"benchmark\": \"ext9_fleet_sweep\",\n  \"points\": [\n");
  for (std::size_t i = 0; i < points.size(); ++i) {
    const SweepPoint& p = points[i];
    std::fprintf(f,
                 "    {\"scenario\": \"%s\", \"loss_prob\": %g, "
                 "\"utilization_weight\": %g,\n",
                 kind_name(p.kind), p.loss, p.weight);
    emit_arm(f, "packet", p.packet);
    std::fprintf(f, ",\n");
    emit_arm(f, "reserved", p.reserved);
    std::fprintf(f, ",\n      \"hot_speedup_pct\": %.2f, \"background_slowdown_pct\": %.2f}%s\n",
                 p.hot_speedup_pct(), p.background_slowdown_pct(),
                 i + 1 < points.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("wrote %s\n", path.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  const std::string json_path =
      bench::parse_json_path(argc, argv, "bench-ext9_fleet_sweep.json");
  bench::print_header(
      "EXT9", "fleet-scope circuit vs. packet regimes (SIGCOMM §2, at fleet scale)",
      "reserving capacity for a persistently hot rack pair improves its job "
      "completion while the shared residual's degradation stays bounded");

  const SkewedScenarioKind kinds[] = {SkewedScenarioKind::kHotRackIncast,
                                      SkewedScenarioKind::kSlowSpineLeg,
                                      SkewedScenarioKind::kMixedRackSizes};
  const double losses[] = {0.0, 0.005};
  const double weights[] = {0.0, 8.0};

  std::vector<SweepPoint> points;
  for (SkewedScenarioKind kind : kinds) {
    for (double loss : losses) {
      for (double weight : weights) {
        SweepPoint p;
        p.kind = kind;
        p.loss = loss;
        p.weight = weight;
        points.push_back(p);
      }
    }
  }

  for (SweepPoint& p : points) {
    p.packet = run_arm(p.kind, p.loss, p.weight, false);
    p.reserved = run_arm(p.kind, p.loss, p.weight, true);
  }

  telemetry::Table table("ext9 — reservation crossover per sweep point",
                         {"scenario", "loss", "w_util", "hot off (us)", "hot on (us)",
                          "hot speedup %", "bg off (us)", "bg on (us)", "bg slowdown %",
                          "promoted"});
  for (SweepPoint& p : points) {
    char buf[32];
    table.row().cell(kind_name(p.kind));
    std::snprintf(buf, sizeof buf, "%g", p.loss);
    table.cell(buf);
    std::snprintf(buf, sizeof buf, "%g", p.weight);
    table.cell(buf);
    std::snprintf(buf, sizeof buf, "%.1f", p.packet.hot.job_completion.us());
    table.cell(buf);
    std::snprintf(buf, sizeof buf, "%.1f", p.reserved.hot.job_completion.us());
    table.cell(buf);
    std::snprintf(buf, sizeof buf, "%.1f", p.hot_speedup_pct());
    table.cell(buf);
    std::snprintf(buf, sizeof buf, "%.1f", p.packet.background.job_completion.us());
    table.cell(buf);
    std::snprintf(buf, sizeof buf, "%.1f", p.reserved.background.job_completion.us());
    table.cell(buf);
    std::snprintf(buf, sizeof buf, "%.1f", p.background_slowdown_pct());
    table.cell(buf);
    std::snprintf(buf, sizeof buf, "%llu",
                  static_cast<unsigned long long>(p.reserved.promotions));
    table.cell(buf);
  }
  table.print();
  emit_json(points, json_path);
  return 0;
}
