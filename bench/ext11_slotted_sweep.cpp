// EXT11 — the three-way transport crossover: fraction carves vs.
// TDMA slot schedules vs. pure packet sharing.
//
// PR 9's slotted transport gives the spine a third regime between the
// circuit (a fraction carved out of a link for one pair) and the
// packet FIFO (statistical sharing): periodic slot ownership booked
// per link, ridden collision-free at full link rate, self-expiring on
// inactivity and split across parallel legs by the controller's
// schedule policy. This sweep runs the slotted scenario family's
// three arms (sustained skew, bursty churn whose gaps defeat the
// carve's hysteresis but not the slot timeout, and a flapping hot
// leg) under all three regimes and quantifies the crossover per
// (arm, loss) point: hot-pair speedup and background slowdown of each
// managed regime against the packet baseline. The emitted JSON
// (--json <path>; bench-smoke schema-checks and uploads it) is the
// acceptance artifact: in at least one skewed arm the slotted regime
// must beat the carve on background slowdown at greater-or-equal hot
// speedup.
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "workload/slotted.hpp"

namespace {

using namespace rsf;
using workload::SlottedArm;
using workload::SlottedFleetScenario;
using workload::SlottedRegime;
using workload::SlottedScenarioConfig;
using workload::SlottedScenarioResult;

const char* arm_name(SlottedArm a) {
  switch (a) {
    case SlottedArm::kSkew:
      return "skew";
    case SlottedArm::kChurn:
      return "churn";
    case SlottedArm::kFlap:
      return "flap";
  }
  return "?";
}

const char* regime_name(SlottedRegime r) {
  switch (r) {
    case SlottedRegime::kPacket:
      return "packet";
    case SlottedRegime::kCarve:
      return "carve";
    case SlottedRegime::kSlotted:
      return "slotted";
  }
  return "?";
}

SlottedScenarioResult run_cell(SlottedArm arm, SlottedRegime regime, double loss) {
  SlottedScenarioConfig cfg;
  cfg.arm = arm;
  cfg.regime = regime;
  cfg.loss_prob = loss;
  SlottedFleetScenario scenario(cfg);
  return scenario.run();
}

struct SweepPoint {
  SlottedArm arm;
  double loss;
  SlottedScenarioResult packet;
  SlottedScenarioResult carve;
  SlottedScenarioResult slotted;

  [[nodiscard]] double hot_speedup_pct(const SlottedScenarioResult& r) const {
    const double off = packet.hot.job_completion.us();
    return off > 0 ? (off - r.hot.job_completion.us()) / off * 100.0 : 0.0;
  }
  [[nodiscard]] double background_slowdown_pct(const SlottedScenarioResult& r) const {
    const double off = packet.background.job_completion.us();
    return off > 0 ? (r.background.job_completion.us() - off) / off * 100.0 : 0.0;
  }
};

void emit_regime(FILE* f, const char* name, const SlottedScenarioResult& r) {
  std::fprintf(f,
               "      \"%s\": {\"hot_job_us\": %.3f, \"background_job_us\": %.3f, "
               "\"hot_retransmits\": %llu, \"background_retransmits\": %llu, "
               "\"hot_failed\": %llu, \"background_failed\": %llu, "
               "\"promotions\": %llu, \"demotions\": %llu, "
               "\"schedule_splits\": %llu, \"slot_reservations\": %llu, "
               "\"slot_expirations\": %llu, \"slot_preemptions\": %llu, "
               "\"slot_refusals\": %llu, \"slotted_bytes\": %llu, "
               "\"reserved_bytes\": %llu, \"reservation_preemptions\": %llu}",
               name, r.hot.job_completion.us(), r.background.job_completion.us(),
               static_cast<unsigned long long>(r.hot.retransmits),
               static_cast<unsigned long long>(r.background.retransmits),
               static_cast<unsigned long long>(r.hot.failed),
               static_cast<unsigned long long>(r.background.failed),
               static_cast<unsigned long long>(r.promotions),
               static_cast<unsigned long long>(r.demotions),
               static_cast<unsigned long long>(r.schedule_splits),
               static_cast<unsigned long long>(r.slot_reservations),
               static_cast<unsigned long long>(r.slot_expirations),
               static_cast<unsigned long long>(r.slot_preemptions),
               static_cast<unsigned long long>(r.slot_refusals),
               static_cast<unsigned long long>(r.slotted_bytes),
               static_cast<unsigned long long>(r.reserved_bytes),
               static_cast<unsigned long long>(r.reservation_preemptions));
}

void emit_json(const std::vector<SweepPoint>& points, const std::string& path) {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "ext11: cannot write %s\n", path.c_str());
    return;
  }
  std::fprintf(f, "{\n  \"benchmark\": \"ext11_slotted_sweep\",\n  \"points\": [\n");
  for (std::size_t i = 0; i < points.size(); ++i) {
    const SweepPoint& p = points[i];
    std::fprintf(f, "    {\"arm\": \"%s\", \"loss_prob\": %g,\n", arm_name(p.arm),
                 p.loss);
    emit_regime(f, "packet", p.packet);
    std::fprintf(f, ",\n");
    emit_regime(f, "carve", p.carve);
    std::fprintf(f, ",\n");
    emit_regime(f, "slotted", p.slotted);
    std::fprintf(f,
                 ",\n      \"carve_hot_speedup_pct\": %.2f, "
                 "\"carve_background_slowdown_pct\": %.2f, "
                 "\"slotted_hot_speedup_pct\": %.2f, "
                 "\"slotted_background_slowdown_pct\": %.2f}%s\n",
                 p.hot_speedup_pct(p.carve), p.background_slowdown_pct(p.carve),
                 p.hot_speedup_pct(p.slotted), p.background_slowdown_pct(p.slotted),
                 i + 1 < points.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("wrote %s\n", path.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  const std::string json_path =
      bench::parse_json_path(argc, argv, "bench-ext11_slotted_sweep.json");
  bench::print_header(
      "EXT11", "carve vs. slotted vs. packet transport regimes (SIGCOMM §2, TDMA arm)",
      "periodic slot schedules match the carve's hot-pair speedup while their "
      "self-expiry and multipath split keep the background's slowdown smaller");

  const SlottedArm arms_axis[] = {SlottedArm::kSkew, SlottedArm::kChurn,
                                  SlottedArm::kFlap};
  const double losses[] = {0.0, 0.005};

  std::vector<SweepPoint> points;
  for (SlottedArm arm : arms_axis) {
    for (double loss : losses) {
      SweepPoint p;
      p.arm = arm;
      p.loss = loss;
      points.push_back(p);
    }
  }

  for (SweepPoint& p : points) {
    p.packet = run_cell(p.arm, SlottedRegime::kPacket, p.loss);
    p.carve = run_cell(p.arm, SlottedRegime::kCarve, p.loss);
    p.slotted = run_cell(p.arm, SlottedRegime::kSlotted, p.loss);
  }

  telemetry::Table table("ext11 — transport-regime crossover per sweep point",
                         {"arm", "loss", "hot pkt (us)", "hot carve (us)",
                          "hot slot (us)", "carve up %", "slot up %", "bg pkt (us)",
                          "carve bg down %", "slot bg down %", "expiries", "splits"});
  for (SweepPoint& p : points) {
    char buf[32];
    table.row().cell(arm_name(p.arm));
    std::snprintf(buf, sizeof buf, "%g", p.loss);
    table.cell(buf);
    std::snprintf(buf, sizeof buf, "%.1f", p.packet.hot.job_completion.us());
    table.cell(buf);
    std::snprintf(buf, sizeof buf, "%.1f", p.carve.hot.job_completion.us());
    table.cell(buf);
    std::snprintf(buf, sizeof buf, "%.1f", p.slotted.hot.job_completion.us());
    table.cell(buf);
    std::snprintf(buf, sizeof buf, "%.1f", p.hot_speedup_pct(p.carve));
    table.cell(buf);
    std::snprintf(buf, sizeof buf, "%.1f", p.hot_speedup_pct(p.slotted));
    table.cell(buf);
    std::snprintf(buf, sizeof buf, "%.1f", p.packet.background.job_completion.us());
    table.cell(buf);
    std::snprintf(buf, sizeof buf, "%.1f", p.background_slowdown_pct(p.carve));
    table.cell(buf);
    std::snprintf(buf, sizeof buf, "%.1f", p.background_slowdown_pct(p.slotted));
    table.cell(buf);
    std::snprintf(buf, sizeof buf, "%llu",
                  static_cast<unsigned long long>(p.slotted.slot_expirations));
    table.cell(buf);
    std::snprintf(buf, sizeof buf, "%llu",
                  static_cast<unsigned long long>(p.slotted.schedule_splits));
    table.cell(buf);
  }
  table.print();
  emit_json(points, json_path);
  return 0;
}
