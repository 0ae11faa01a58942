#include "workload/crossrack.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "runtime/fleet.hpp"

namespace rsf::workload {

using rsf::sim::SimTime;

CrossRackJob::CrossRackJob(runtime::FleetRuntime* fleet, phy::DataSize packet_size,
                           SimTime start)
    : fleet_(fleet), packet_size_(packet_size), start_(start) {
  if (fleet_ == nullptr) throw std::invalid_argument("CrossRackJob: null fleet");
}

void CrossRackJob::launch(
    const std::vector<std::pair<fabric::RackNode, fabric::RackNode>>& pairs,
    phy::DataSize bytes_per_pair, DoneCallback on_done) {
  if (outstanding_ > 0 || finished_) {
    throw std::logic_error("CrossRackJob: run() called twice");
  }
  if (pairs.empty()) throw std::invalid_argument("CrossRackJob: no (src, dst) pairs");
  on_done_ = std::move(on_done);
  outstanding_ = pairs.size();
  completion_times_.reserve(pairs.size());
  fabric::FlowId job_flow = 1;
  for (const auto& [src, dst] : pairs) {
    runtime::FleetFlowSpec spec;
    spec.id = job_flow++;
    spec.src = src;
    spec.dst = dst;
    spec.size = bytes_per_pair;
    spec.packet_size = packet_size_;
    spec.start = start_;
    if (src.rack != dst.rack) ++result_.cross_rack_flows;
    fleet_->start_flow(spec, [this](const runtime::FleetFlowResult& r) {
      ++result_.flows;
      if (r.failed) {
        ++result_.failed;
      } else {
        completion_times_.push_back(r.completion_time());
        result_.max_flow = std::max(result_.max_flow, r.completion_time());
        result_.job_completion = std::max(result_.job_completion, r.finished);
      }
      result_.spine_hops += static_cast<std::uint64_t>(r.spine_hops);
      result_.retransmits += r.retransmits;
      if (--outstanding_ == 0) {
        std::sort(completion_times_.begin(), completion_times_.end());
        if (!completion_times_.empty()) {
          result_.median_flow = completion_times_[completion_times_.size() / 2];
        }
        finished_ = true;
        if (on_done_) on_done_(result_);
      }
    });
  }
}

CrossRackShuffle::CrossRackShuffle(runtime::FleetRuntime* fleet,
                                   CrossRackShuffleConfig config)
    : CrossRackJob(fleet, config.packet_size, config.start), config_(std::move(config)) {
  if (config_.mappers.empty() || config_.reducers.empty()) {
    throw std::invalid_argument("CrossRackShuffle: need mappers and reducers");
  }
}

void CrossRackShuffle::run(DoneCallback on_done) {
  std::vector<std::pair<fabric::RackNode, fabric::RackNode>> pairs;
  pairs.reserve(config_.mappers.size() * config_.reducers.size());
  for (const fabric::RackNode& m : config_.mappers) {
    for (const fabric::RackNode& r : config_.reducers) {
      if (m == r) continue;  // a node keeps its own partition locally
      pairs.emplace_back(m, r);
    }
  }
  if (pairs.empty()) {
    throw std::invalid_argument("CrossRackShuffle: every mapper is its own reducer");
  }
  launch(pairs, config_.bytes_per_pair, std::move(on_done));
}

CrossRackIncast::CrossRackIncast(runtime::FleetRuntime* fleet, CrossRackIncastConfig config)
    : CrossRackJob(fleet, config.packet_size, config.start), config_(std::move(config)) {
  if (config_.sources.empty()) {
    throw std::invalid_argument("CrossRackIncast: need sources");
  }
}

void CrossRackIncast::run(DoneCallback on_done) {
  std::vector<std::pair<fabric::RackNode, fabric::RackNode>> pairs;
  pairs.reserve(config_.sources.size());
  for (const fabric::RackNode& s : config_.sources) {
    if (s == config_.sink) continue;
    pairs.emplace_back(s, config_.sink);
  }
  if (pairs.empty()) {
    throw std::invalid_argument("CrossRackIncast: sink is the only source");
  }
  launch(pairs, config_.bytes_per_source, std::move(on_done));
}

// ---------------------------------------------------------------------------
// Skewed-fleet scenarios.
// ---------------------------------------------------------------------------

namespace {

runtime::RackSpec grid_rack(int w, int h) {
  runtime::RackSpec rack;
  rack.config.shape = runtime::RackShape::kGrid;
  rack.config.rack.width = w;
  rack.config.rack.height = h;
  rack.config.enable_crc = false;  // isolate the fleet-scope control loop
  return rack;
}

runtime::SpineSpec spine_link(std::uint32_t a, std::uint32_t b, double gbps,
                              double loss_prob) {
  runtime::SpineSpec s;
  s.rack_a = a;
  s.rack_b = b;
  s.rate = phy::DataRate::gbps(gbps);
  s.latency = rsf::sim::SimTime::microseconds(2);
  s.loss_prob = loss_prob;
  return s;
}

runtime::FleetConfig scenario_fleet(const SkewedScenarioConfig& cfg) {
  runtime::FleetConfig fc;
  switch (cfg.kind) {
    case SkewedScenarioKind::kHotRackIncast:
      // A line 0 - 1 - 2 - 3: rack 3 swarms rack 0 while racks 1 and
      // 2 feed background into the same inbound legs — the 1 -> 0 leg
      // carries everything and the hot pair's statistical share there
      // drops to half.
      for (int i = 0; i < 4; ++i) fc.racks.push_back(grid_rack(4, 4));
      fc.spine.push_back(spine_link(0, 1, 25, cfg.loss_prob));
      fc.spine.push_back(spine_link(1, 2, 25, cfg.loss_prob));
      fc.spine.push_back(spine_link(2, 3, 25, cfg.loss_prob));
      break;
    case SkewedScenarioKind::kSlowSpineLeg:
      // A ring whose 0 <-> 1 leg runs at a fifth of its siblings':
      // the hot pair's 1-hop route crosses the slow leg while a 2-hop
      // detour through rack 2 exists. Without repricing a reservation
      // pins the (then-cheapest) slow leg — the circuit pitfall; with
      // repricing the promotion lands on the detour and contends with
      // the background on the 2 -> 0 leg instead.
      for (int i = 0; i < 3; ++i) fc.racks.push_back(grid_rack(4, 4));
      fc.spine.push_back(spine_link(0, 1, 5, cfg.loss_prob));
      fc.spine.push_back(spine_link(1, 2, 25, cfg.loss_prob));
      fc.spine.push_back(spine_link(2, 0, 25, cfg.loss_prob));
      break;
    case SkewedScenarioKind::kMixedRackSizes:
      // Mixed sizes on a line 0 - 1 - 2: a small edge rack, a big
      // compute rack, and a mid-size rack — the skew the single
      // spanning shuffle runs on, with a background incast transiting
      // the big rack into the same 1 -> 0 leg.
      fc.racks.push_back(grid_rack(2, 2));
      fc.racks.push_back(grid_rack(4, 4));
      fc.racks.push_back(grid_rack(3, 3));
      fc.spine.push_back(spine_link(0, 1, 25, cfg.loss_prob));
      fc.spine.push_back(spine_link(1, 2, 25, cfg.loss_prob));
      break;
  }
  fc.seed = cfg.seed;
  fc.enable_controller = true;
  fc.controller.epoch = rsf::sim::SimTime::microseconds(20);
  fc.controller.utilization_weight = cfg.utilization_weight;
  // "Weight 0 freezes prices" must mean it: zero the backlog term too,
  // or its 0.25 default keeps repricing behind the sweep's back.
  if (cfg.utilization_weight == 0.0) fc.controller.backlog_weight_per_us = 0.0;
  runtime::FleetBookingPolicy& bp = fc.controller.booking;
  bp.discipline = cfg.reservations ? runtime::BookingDiscipline::kCarve
                                   : runtime::BookingDiscipline::kNone;
  bp.fraction = cfg.reservation_fraction;
  // Low enough that a multi-hop pair still filling its pipeline keeps
  // its hot streak; the cumulative-demand ranking picks the winner.
  bp.hot_bytes_per_epoch = 8 * 1024;
  bp.idle_bytes_per_epoch = 1024;
  bp.promote_after = 2;
  bp.demote_after = 6;
  // One scarce circuit: the hottest pair wins it, everyone else
  // shares the residual — the crossover the ext9 sweep quantifies.
  bp.max_pairs = 1;
  return fc;
}

}  // namespace

SkewedFleetScenario::SkewedFleetScenario(SkewedScenarioConfig config)
    : config_(config),
      fleet_(std::make_unique<runtime::FleetRuntime>(scenario_fleet(config))) {
  if (config_.hot_bytes.bit_count() <= 0) {
    throw std::invalid_argument("SkewedFleetScenario: non-positive hot_bytes");
  }
}

SkewedFleetScenario::~SkewedFleetScenario() = default;

SkewedScenarioResult SkewedFleetScenario::run() {
  if (ran_) throw std::logic_error("SkewedFleetScenario: run() called twice");
  ran_ = true;
  runtime::FleetRuntime& f = *fleet_;
  const phy::DataSize bg_bytes = config_.hot_bytes;

  CrossRackJob* hot = nullptr;
  CrossRackJob* background = nullptr;
  switch (config_.kind) {
    case SkewedScenarioKind::kHotRackIncast: {
      // Hot: rack 3's row-0 nodes swarm one sink in rack 0 — the
      // fleet's hottest pair, crossing every inbound leg.
      CrossRackIncastConfig hot_cfg;
      for (int x = 0; x < 4; ++x) hot_cfg.sources.push_back(f.at(3, x, 0));
      hot_cfg.sink = f.at(0, 0, 0);
      hot_cfg.bytes_per_source = config_.hot_bytes;
      auto& hj = f.add_incast(hot_cfg);
      // Background: racks 1 and 2 feed the same victim rack — each
      // pair at half the hot pair's demand, together dominating the
      // shared 1 -> 0 leg.
      CrossRackIncastConfig bg_cfg;
      bg_cfg.sources = {f.at(1, 0, 3), f.at(1, 3, 3), f.at(2, 0, 3), f.at(2, 3, 3)};
      bg_cfg.sink = f.at(0, 3, 3);
      bg_cfg.bytes_per_source = bg_bytes;
      auto& bj = f.add_incast(bg_cfg);
      hot = &hj;
      background = &bj;
      break;
    }
    case SkewedScenarioKind::kSlowSpineLeg: {
      // Hot: rack 1 -> rack 0 across the slow leg (or its detour).
      CrossRackIncastConfig hot_cfg;
      for (int x = 0; x < 4; ++x) hot_cfg.sources.push_back(f.at(1, x, 0));
      hot_cfg.sink = f.at(0, 0, 0);
      hot_cfg.bytes_per_source = config_.hot_bytes;
      auto& hj = f.add_incast(hot_cfg);
      // Background: rack 2 -> rack 0 on the fast 2 -> 0 leg — the
      // detour's victim when repricing pushes hot traffic around.
      CrossRackIncastConfig bg_cfg;
      bg_cfg.sources = {f.at(2, 0, 0), f.at(2, 1, 0), f.at(2, 2, 0)};
      bg_cfg.sink = f.at(0, 3, 3);
      bg_cfg.bytes_per_source = bg_bytes;
      auto& bj = f.add_incast(bg_cfg);
      hot = &hj;
      background = &bj;
      break;
    }
    case SkewedScenarioKind::kMixedRackSizes: {
      // Hot: the mid rack transits the big rack into the edge rack's
      // sink — pair (2, 0) crosses two legs, the fleet's biggest
      // spine consumer in byte·hops and the promotion target.
      CrossRackIncastConfig hot_cfg;
      hot_cfg.sources = {f.at(2, 0, 0), f.at(2, 1, 0), f.at(2, 2, 0)};
      hot_cfg.sink = f.at(0, 0, 0);
      hot_cfg.bytes_per_source = config_.hot_bytes;
      auto& hj = f.add_incast(hot_cfg);
      // Background: one shuffle spanning all three rack sizes — the
      // big rack's mappers fan out to reducers in the small and mid
      // racks (pairs (1, 0) and (1, 2)); its (1, 0) flows share the
      // 1 -> 0 leg with the hot transit pair.
      CrossRackShuffleConfig bg_cfg;
      bg_cfg.mappers = {f.at(1, 0, 0), f.at(1, 1, 0), f.at(1, 2, 0)};
      bg_cfg.reducers = {f.at(0, 1, 1), f.at(2, 2, 2)};
      bg_cfg.bytes_per_pair = bg_bytes;
      auto& bj = f.add_shuffle(bg_cfg);
      hot = &hj;
      background = &bj;
      break;
    }
  }

  SkewedScenarioResult result;
  hot->run([&result](const CrossRackResult& r) { result.hot = r; });
  background->run([&result](const CrossRackResult& r) { result.background = r; });
  f.start();
  f.run_until();
  f.stop();
  f.run_until();  // drain anything the stop released
  if (!hot->finished() || !background->finished()) {
    throw std::logic_error("SkewedFleetScenario: jobs did not drain");
  }
  result.promotions = f.controller().promotions();
  result.demotions = f.controller().demotions();
  const telemetry::CounterSet& c = f.spine().counters();
  result.preemptions = c.get("spine.reservation_preemptions");
  result.reserved_bytes = c.get("spine.reserved_bytes");
  return result;
}

}  // namespace rsf::workload
