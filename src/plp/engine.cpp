#include "plp/engine.hpp"

#include <stdexcept>
#include <utility>

namespace rsf::plp {

using rsf::sim::SimTime;

bool PlpCapabilities::supports(const PlpCommand& cmd) const {
  struct Visitor {
    const PlpCapabilities& caps;
    bool operator()(const SplitCommand&) const { return caps.split_bundle; }
    bool operator()(const BundleCommand&) const { return caps.split_bundle; }
    bool operator()(const BypassJoinCommand&) const { return caps.bypass; }
    bool operator()(const BypassSeverCommand&) const { return caps.bypass; }
    bool operator()(const BringUpCommand&) const { return caps.on_off; }
    bool operator()(const ShutdownCommand&) const { return caps.on_off; }
    bool operator()(const SetFecCommand&) const { return caps.adaptive_fec; }
    bool operator()(const QueryStatsCommand&) const { return caps.stats; }
    bool operator()(const ProvisionCommand&) const {
      return caps.on_off && caps.split_bundle;
    }
    bool operator()(const DecommissionCommand&) const {
      return caps.on_off && caps.split_bundle;
    }
  };
  return std::visit(Visitor{*this}, cmd);
}

PlpEngine::PlpEngine(rsf::sim::Simulator* sim, phy::PhysicalPlant* plant, PlpCapabilities caps)
    : sim_(sim), plant_(plant), caps_(caps) {
  if (sim_ == nullptr || plant_ == nullptr) {
    throw std::invalid_argument("PlpEngine: null simulator or plant");
  }
}

void PlpEngine::submit(PlpCommand cmd, Callback callback) {
  counters_.add("plp.submitted." + command_name(cmd));
  if (!caps_.supports(cmd)) {
    fail(Pending{std::move(cmd), std::move(callback)}, "primitive not supported by media");
    return;
  }
  try_execute(Pending{std::move(cmd), std::move(callback)});
}

void PlpEngine::try_execute(Pending pending) {
  // Stats queries are non-intrusive: run even against busy links.
  const bool intrusive = !std::holds_alternative<QueryStatsCommand>(pending.cmd);
  if (intrusive) {
    for (phy::LinkId id : referenced_links(pending.cmd)) {
      if (plant_->link_busy(id)) {
        queue_.push_back(std::move(pending));
        return;
      }
    }
  }
  execute_now(std::move(pending));
}

void PlpEngine::execute_now(Pending pending) {
  // Validate link existence up front so primitives can assume it.
  for (phy::LinkId id : referenced_links(pending.cmd)) {
    if (!plant_->has_link(id)) {
      fail(pending, "link " + std::to_string(id) + " does not exist");
      return;
    }
  }
  struct Visitor {
    PlpEngine& e;
    Pending& p;
    void operator()(const SplitCommand&) { e.run_split(std::move(p)); }
    void operator()(const BundleCommand&) { e.run_bundle(std::move(p)); }
    void operator()(const BypassJoinCommand&) { e.run_bypass_join(std::move(p)); }
    void operator()(const BypassSeverCommand&) { e.run_bypass_sever(std::move(p)); }
    void operator()(const BringUpCommand&) { e.run_bring_up(std::move(p)); }
    void operator()(const ShutdownCommand&) { e.run_shutdown(std::move(p)); }
    void operator()(const SetFecCommand&) { e.run_set_fec(std::move(p)); }
    void operator()(const QueryStatsCommand&) { e.run_query_stats(std::move(p)); }
    void operator()(const ProvisionCommand&) { e.run_provision(std::move(p)); }
    void operator()(const DecommissionCommand&) { e.run_decommission(std::move(p)); }
  };
  auto cmd = pending.cmd;  // copy: visitor consumes `pending`
  std::visit(Visitor{*this, pending}, cmd);
}

void PlpEngine::finish(Pending pending, PlpResult result) {
  result.completed_at = sim_->now();
  counters_.add(result.ok ? "plp.completed." + command_name(pending.cmd)
                          : "plp.failed." + command_name(pending.cmd));
  set_busy(result.removed, false);
  set_busy(result.created, false);
  if (pending.callback) pending.callback(result);
  drain_queue();
}

void PlpEngine::fail(const Pending& pending, std::string error) {
  counters_.add("plp.failed." + command_name(pending.cmd));
  if (pending.callback) {
    PlpResult result;
    result.ok = false;
    result.error = std::move(error);
    result.completed_at = sim_->now();
    pending.callback(result);
  }
}

void PlpEngine::drain_queue() {
  bool progress = true;
  while (progress) {
    progress = false;
    for (auto it = queue_.begin(); it != queue_.end(); ++it) {
      bool blocked = false;
      bool dead = false;
      for (phy::LinkId id : referenced_links(it->cmd)) {
        if (plant_->link_busy(id)) blocked = true;
        if (!plant_->has_link(id) && !plant_->link_busy(id)) dead = true;
      }
      if (dead) {
        Pending p = std::move(*it);
        queue_.erase(it);
        fail(p, "referenced link destroyed while queued");
        progress = true;
        break;
      }
      if (!blocked) {
        Pending p = std::move(*it);
        queue_.erase(it);
        execute_now(std::move(p));
        progress = true;
        break;
      }
    }
  }
}

void PlpEngine::set_busy(const std::vector<phy::LinkId>& links, bool busy) {
  for (phy::LinkId id : links) plant_->set_link_busy(id, busy);
}

// --- primitives ---

void PlpEngine::run_split(Pending pending) {
  const auto& cmd = std::get<SplitCommand>(pending.cmd);
  std::pair<phy::LinkId, phy::LinkId> halves;
  try {
    halves = plant_->split_link(cmd.link, cmd.k);
  } catch (const std::exception& ex) {
    fail(pending, ex.what());
    return;
  }
  PlpResult result;
  result.ok = true;
  result.removed = {cmd.link};
  result.created = {halves.first, halves.second};
  // The datapath pauses for the reconfiguration window: both halves are
  // busy (unusable) until actuation completes. Lane states carry over,
  // so no retrain is needed.
  set_busy(result.created, true);
  const SimTime duration = kCommandOverhead + kSplit;
  sim_->schedule_after(duration, [this, pending = std::move(pending),
                                  result = std::move(result)]() mutable {
    finish(std::move(pending), std::move(result));
  });
}

void PlpEngine::run_bundle(Pending pending) {
  const auto& cmd = std::get<BundleCommand>(pending.cmd);
  phy::LinkId merged;
  try {
    merged = plant_->bundle_links(cmd.first, cmd.second);
  } catch (const std::exception& ex) {
    fail(pending, ex.what());
    return;
  }
  PlpResult result;
  result.ok = true;
  result.removed = {cmd.first, cmd.second};
  result.created = {merged};
  set_busy(result.created, true);
  const SimTime duration = kCommandOverhead + kBundle;
  sim_->schedule_after(duration, [this, pending = std::move(pending),
                                  result = std::move(result)]() mutable {
    finish(std::move(pending), std::move(result));
  });
}

void PlpEngine::run_bypass_join(Pending pending) {
  const auto& cmd = std::get<BypassJoinCommand>(pending.cmd);
  phy::LinkId joined;
  try {
    joined = plant_->bypass_join(cmd.first, cmd.second);
  } catch (const std::exception& ex) {
    fail(pending, ex.what());
    return;
  }
  PlpResult result;
  result.ok = true;
  result.removed = {cmd.first, cmd.second};
  result.created = {joined};
  set_busy(result.created, true);
  // The joined path must retrain end-to-end through the new bypass
  // element, so the link is down for setup + retrain.
  plant_->lane_begin_training(joined);
  const SimTime duration = kCommandOverhead + kBypassSetup + kLaneRetrain;
  sim_->schedule_after(duration, [this, joined, pending = std::move(pending),
                                  result = std::move(result)]() mutable {
    plant_->lane_complete_training(joined);
    finish(std::move(pending), std::move(result));
  });
}

void PlpEngine::run_bypass_sever(Pending pending) {
  const auto& cmd = std::get<BypassSeverCommand>(pending.cmd);
  std::pair<phy::LinkId, phy::LinkId> halves;
  try {
    halves = plant_->bypass_sever(cmd.link, cmd.at);
  } catch (const std::exception& ex) {
    fail(pending, ex.what());
    return;
  }
  PlpResult result;
  result.ok = true;
  result.removed = {cmd.link};
  result.created = {halves.first, halves.second};
  set_busy(result.created, true);
  plant_->lane_begin_training(halves.first);
  plant_->lane_begin_training(halves.second);
  const SimTime duration = kCommandOverhead + kBypassTeardown + kLaneRetrain;
  sim_->schedule_after(duration, [this, halves, pending = std::move(pending),
                                  result = std::move(result)]() mutable {
    plant_->lane_complete_training(halves.first);
    plant_->lane_complete_training(halves.second);
    finish(std::move(pending), std::move(result));
  });
}

void PlpEngine::run_bring_up(Pending pending) {
  const auto& cmd = std::get<BringUpCommand>(pending.cmd);
  const phy::LinkId id = cmd.link;
  plant_->set_link_busy(id, true);
  plant_->lane_begin_training(id);
  PlpResult result;
  result.ok = true;
  result.created = {id};  // becomes usable
  const SimTime duration = kCommandOverhead + kLanePowerOn + kLaneRetrain;
  sim_->schedule_after(duration, [this, id, pending = std::move(pending),
                                  result = std::move(result)]() mutable {
    plant_->lane_complete_training(id);
    finish(std::move(pending), std::move(result));
  });
}

void PlpEngine::run_shutdown(Pending pending) {
  const auto& cmd = std::get<ShutdownCommand>(pending.cmd);
  const phy::LinkId id = cmd.link;
  plant_->set_link_busy(id, true);
  PlpResult result;
  result.ok = true;
  result.created = {id};  // still exists, just dark
  const SimTime duration = kCommandOverhead + kLanePowerOff;
  sim_->schedule_after(duration, [this, id, pending = std::move(pending),
                                  result = std::move(result)]() mutable {
    plant_->lane_power_off(id);
    finish(std::move(pending), std::move(result));
  });
}

void PlpEngine::run_set_fec(Pending pending) {
  const auto& cmd = std::get<SetFecCommand>(pending.cmd);
  const phy::LinkId id = cmd.link;
  plant_->set_link_busy(id, true);
  PlpResult result;
  result.ok = true;
  result.created = {id};
  const SimTime duration = kCommandOverhead + kFecSwitch;
  sim_->schedule_after(duration, [this, id, scheme = cmd.scheme,
                                  pending = std::move(pending),
                                  result = std::move(result)]() mutable {
    plant_->set_fec(id, phy::FecSpec::of(scheme));
    finish(std::move(pending), std::move(result));
  });
}

void PlpEngine::run_query_stats(Pending pending) {
  const auto& cmd = std::get<QueryStatsCommand>(pending.cmd);
  PlpResult result;
  result.ok = true;
  result.stats = stats_report(cmd.link);
  const SimTime duration = kCommandOverhead + kStatsQuery;
  sim_->schedule_after(duration, [this, pending = std::move(pending),
                                  result = std::move(result)]() mutable {
    finish(std::move(pending), std::move(result));
  });
}

void PlpEngine::run_provision(Pending pending) {
  const auto& cmd = std::get<ProvisionCommand>(pending.cmd);
  phy::LinkId id;
  try {
    // Reject lanes that are hard-failed — provisioning them would
    // produce a link that can never come up.
    const phy::Cable& c = plant_->cable(cmd.cable);
    for (int lane : cmd.lanes) {
      if (lane < 0 || lane >= c.lane_count()) {
        throw std::invalid_argument("provision: lane out of range");
      }
      if (c.lane(lane).is_failed()) {
        throw std::invalid_argument("provision: lane " + std::to_string(lane) +
                                    " is failed");
      }
    }
    id = plant_->create_adjacent_link(cmd.cable, cmd.lanes, phy::FecSpec::of(cmd.fec));
  } catch (const std::exception& ex) {
    fail(pending, ex.what());
    return;
  }
  PlpResult result;
  result.ok = true;
  result.created = {id};
  set_busy(result.created, true);
  plant_->lane_begin_training(id);
  const SimTime duration = kCommandOverhead + kLanePowerOn + kLaneRetrain;
  sim_->schedule_after(duration, [this, id, pending = std::move(pending),
                                  result = std::move(result)]() mutable {
    plant_->lane_complete_training(id);
    finish(std::move(pending), std::move(result));
  });
}

void PlpEngine::run_decommission(Pending pending) {
  const auto& cmd = std::get<DecommissionCommand>(pending.cmd);
  const phy::LinkId id = cmd.link;
  plant_->set_link_busy(id, true);
  PlpResult result;
  result.ok = true;
  result.removed = {id};
  const SimTime duration = kCommandOverhead + kLanePowerOff;
  sim_->schedule_after(duration, [this, id, pending = std::move(pending),
                                  result = std::move(result)]() mutable {
    plant_->lane_power_off(id);
    plant_->destroy_link(id);
    finish(std::move(pending), std::move(result));
  });
}

LinkStatsReport PlpEngine::stats_report(phy::LinkId id) const {
  const phy::LogicalLink& l = plant_->link(id);
  LinkStatsReport report;
  report.link = id;
  report.lane_count = l.lane_count();
  report.bypass_joints = l.bypass_joints();
  report.raw_gbps = l.raw_rate().gbps_value();
  report.effective_gbps = l.effective_rate().gbps_value();
  report.worst_pre_fec_ber = l.worst_pre_fec_ber();
  report.post_fec_ber = l.post_fec_ber();
  report.power_watts = l.power_watts();
  report.propagation = l.propagation_delay();
  report.ready = l.ready() && !plant_->link_busy(id);
  std::uint64_t bits = 0;
  for (const phy::LinkSegment& seg : l.segments()) {
    for (int lane : seg.lanes) bits += plant_->lane_bits_carried({seg.cable, lane});
  }
  report.bits_carried = bits;
  return report;
}

void PlpEngine::instant_bring_up(phy::LinkId link) {
  plant_->lane_begin_training(link);
  plant_->lane_complete_training(link);
}

}  // namespace rsf::plp
