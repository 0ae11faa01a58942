#include "phy/plant.hpp"

#include <algorithm>
#include <map>
#include <set>
#include <sstream>
#include <stdexcept>

namespace rsf::phy {

namespace {

/// Rejects a FecSpec no link may carry: an overhead outside [0, 1)
/// (NaN included), a negative latency, or a coded spec (n > 0) whose
/// code parameters are not a real code.
void check_fec(const FecSpec& fec, const char* who) {
  if (!(fec.overhead >= 0.0 && fec.overhead < 1.0)) {
    throw std::invalid_argument(std::string(who) + ": FEC overhead outside [0, 1)");
  }
  if (fec.latency < rsf::sim::SimTime::zero()) {
    throw std::invalid_argument(std::string(who) + ": negative FEC latency");
  }
  if (fec.n < 0 || (fec.n > 0 && (fec.symbol_bits <= 0 || fec.k <= 0 || fec.k > fec.n ||
                                  fec.t < 0))) {
    throw std::invalid_argument(std::string(who) +
                                ": FEC code needs symbol_bits > 0, 0 < k <= n, t >= 0");
  }
}

}  // namespace

CableId PhysicalPlant::add_cable(NodeId a, NodeId b, double length_m, Medium medium,
                                 int lane_count, DataRate lane_rate, double initial_ber) {
  const auto id = static_cast<CableId>(cables_.size());
  cables_.push_back(std::make_unique<Cable>(id, a, b, length_m, medium, lane_count,
                                            lane_rate, initial_ber));
  return id;
}

Cable& PhysicalPlant::cable(CableId id) {
  if (id >= cables_.size()) throw std::out_of_range("PhysicalPlant::cable: bad id");
  fold_telemetry();
  ++ber_epoch_;
  return *cables_[id];
}

const Cable& PhysicalPlant::cable(CableId id) const {
  if (id >= cables_.size()) throw std::out_of_range("PhysicalPlant::cable: bad id");
  return *cables_[id];
}

std::optional<CableId> PhysicalPlant::find_cable(NodeId a, NodeId b) const {
  for (const auto& c : cables_) {
    if ((c->end_a() == a && c->end_b() == b) || (c->end_a() == b && c->end_b() == a)) {
      return c->id();
    }
  }
  return std::nullopt;
}

void PhysicalPlant::check_segments(NodeId end_a, NodeId end_b,
                                   const std::vector<LinkSegment>& segments) const {
  if (segments.empty()) throw std::invalid_argument("link: no segments");
  if (end_a == end_b) throw std::invalid_argument("link: end_a == end_b");

  const std::size_t lanes_per_segment = segments.front().lanes.size();
  if (lanes_per_segment == 0) throw std::invalid_argument("link: zero lanes");

  NodeId cursor = end_a;
  for (const LinkSegment& seg : segments) {
    if (seg.cable >= cables_.size()) throw std::invalid_argument("link: unknown cable");
    const Cable& c = *cables_[seg.cable];
    if (!c.connects(cursor)) {
      throw std::invalid_argument("link: segment chain broken at node " +
                                  std::to_string(cursor));
    }
    if (seg.lanes.size() != lanes_per_segment) {
      throw std::invalid_argument("link: unequal lane counts across segments");
    }
    std::set<int> unique(seg.lanes.begin(), seg.lanes.end());
    if (unique.size() != seg.lanes.size()) {
      throw std::invalid_argument("link: duplicate lane in segment");
    }
    for (int lane : seg.lanes) {
      if (lane < 0 || lane >= c.lane_count()) {
        throw std::invalid_argument("link: lane index out of range");
      }
      if (lane_owner_.contains(LaneRef{seg.cable, lane})) {
        throw std::invalid_argument("link: lane already owned (cable " +
                                    std::to_string(seg.cable) + " lane " +
                                    std::to_string(lane) + ")");
      }
    }
    cursor = c.other_end(cursor);
  }
  if (cursor != end_b) {
    throw std::invalid_argument("link: segment chain does not terminate at end_b");
  }
}

void PhysicalPlant::claim_lanes(const std::vector<LinkSegment>& segments, LinkId id) {
  for (const LinkSegment& seg : segments) {
    for (int lane : seg.lanes) lane_owner_.emplace(LaneRef{seg.cable, lane}, id);
  }
}

void PhysicalPlant::release_lanes(const std::vector<LinkSegment>& segments) {
  for (const LinkSegment& seg : segments) {
    for (int lane : seg.lanes) lane_owner_.erase(LaneRef{seg.cable, lane});
  }
}

LinkId PhysicalPlant::install_link(NodeId end_a, NodeId end_b,
                                   std::vector<LinkSegment> segments, FecSpec fec) {
  // Internal callers (split/bundle/join/sever) construct segments from
  // already-valid links, but re-validating is cheap defence in depth.
  check_segments(end_a, end_b, segments);
  check_fec(fec, "link");
  const LinkId id = next_link_id_++;
  claim_lanes(segments, id);
  if (links_.size() <= id) links_.resize(id + 1);
  links_[id] =
      std::make_unique<LogicalLink>(this, id, end_a, end_b, std::move(segments), fec);
  links_[id]->remainder_base_ = pending_remainders_.size();
  pending_remainders_.resize(pending_remainders_.size() +
                             static_cast<std::size_t>(links_[id]->lane_count()));
  ++link_count_;
  const NodeId top = std::max(end_a, end_b);
  if (links_at_.size() <= top) links_at_.resize(top + 1);
  links_at_[end_a].push_back(id);
  links_at_[end_b].push_back(id);
  ++version_;
  return id;
}

LinkId PhysicalPlant::create_link(NodeId end_a, NodeId end_b,
                                  std::vector<LinkSegment> segments, FecSpec fec) {
  return install_link(end_a, end_b, std::move(segments), fec);
}

LinkId PhysicalPlant::create_adjacent_link(CableId cable_id, std::vector<int> lanes,
                                           FecSpec fec) {
  const Cable& c = cable(cable_id);
  std::vector<LinkSegment> segs{LinkSegment{cable_id, std::move(lanes)}};
  return create_link(c.end_a(), c.end_b(), std::move(segs), fec);
}

void PhysicalPlant::destroy_link(LinkId id) {
  if (!has_link(id)) throw std::invalid_argument("destroy_link: unknown link");
  fold_telemetry();  // the lanes keep what the link carried
  // A circuit torn down while still reserved stops counting here.
  if (links_[id]->reserved_for_) --reserved_links_;
  release_lanes(links_[id]->segments());
  for (NodeId end : {links_[id]->end_a(), links_[id]->end_b()}) {
    std::vector<LinkId>& at = links_at_[end];
    at.erase(std::find(at.begin(), at.end(), id));
  }
  links_[id].reset();
  --link_count_;
  ++version_;
}

std::vector<LinkId> PhysicalPlant::link_ids() const {
  std::vector<LinkId> ids;
  ids.reserve(link_count_);
  for (LinkId id = 0; id < links_.size(); ++id) {
    if (links_[id] != nullptr) ids.push_back(id);
  }
  return ids;
}

std::pair<LinkId, LinkId> PhysicalPlant::split_link(LinkId id, int k) {
  const LogicalLink& l = link(id);
  const int n = l.lane_count();
  if (k <= 0 || k >= n) {
    throw std::invalid_argument("split_link: need 0 < k < lane_count");
  }
  std::vector<LinkSegment> first_segs;
  std::vector<LinkSegment> second_segs;
  first_segs.reserve(l.segments().size());
  second_segs.reserve(l.segments().size());
  for (const LinkSegment& seg : l.segments()) {
    LinkSegment a{seg.cable, {seg.lanes.begin(), seg.lanes.begin() + k}};
    LinkSegment b{seg.cable, {seg.lanes.begin() + k, seg.lanes.end()}};
    first_segs.push_back(std::move(a));
    second_segs.push_back(std::move(b));
  }
  const NodeId ea = l.end_a();
  const NodeId eb = l.end_b();
  const FecSpec fec = l.fec();
  destroy_link(id);
  const LinkId first = install_link(ea, eb, std::move(first_segs), fec);
  const LinkId second = install_link(ea, eb, std::move(second_segs), fec);
  return {first, second};
}

LinkId PhysicalPlant::bundle_links(LinkId first, LinkId second) {
  if (first == second) throw std::invalid_argument("bundle_links: same link");
  const LogicalLink& a = link(first);
  const LogicalLink& b = link(second);

  // Orient b's segments to match a.
  std::vector<LinkSegment> b_segs = b.segments();
  if (a.end_a() == b.end_b() && a.end_b() == b.end_a()) {
    std::reverse(b_segs.begin(), b_segs.end());
  } else if (!(a.end_a() == b.end_a() && a.end_b() == b.end_b())) {
    throw std::invalid_argument("bundle_links: endpoint mismatch");
  }
  if (a.segments().size() != b_segs.size()) {
    throw std::invalid_argument("bundle_links: segment count mismatch");
  }
  std::vector<LinkSegment> merged;
  merged.reserve(a.segments().size());
  for (std::size_t i = 0; i < a.segments().size(); ++i) {
    if (a.segments()[i].cable != b_segs[i].cable) {
      throw std::invalid_argument("bundle_links: cable chain mismatch");
    }
    LinkSegment seg{a.segments()[i].cable, a.segments()[i].lanes};
    seg.lanes.insert(seg.lanes.end(), b_segs[i].lanes.begin(), b_segs[i].lanes.end());
    merged.push_back(std::move(seg));
  }
  const NodeId ea = a.end_a();
  const NodeId eb = a.end_b();
  const FecSpec fec = a.fec();
  destroy_link(first);
  destroy_link(second);
  return install_link(ea, eb, std::move(merged), fec);
}

LinkId PhysicalPlant::bypass_join(LinkId first, LinkId second) {
  if (first == second) throw std::invalid_argument("bypass_join: same link");
  const LogicalLink& a = link(first);
  const LogicalLink& b = link(second);
  if (a.lane_count() != b.lane_count()) {
    throw std::invalid_argument("bypass_join: lane count mismatch");
  }

  // Find the single shared endpoint.
  NodeId joint = kInvalidNode;
  for (NodeId n : {a.end_a(), a.end_b()}) {
    if (b.connects(n)) {
      if (joint != kInvalidNode) {
        throw std::invalid_argument("bypass_join: links share both endpoints");
      }
      joint = n;
    }
  }
  if (joint == kInvalidNode) {
    throw std::invalid_argument("bypass_join: links share no endpoint");
  }
  const NodeId new_a = a.other_end(joint);
  const NodeId new_b = b.other_end(joint);
  if (new_a == new_b) {
    throw std::invalid_argument("bypass_join: would create a loop");
  }

  // Orient a to run new_a -> joint and b to run joint -> new_b.
  std::vector<LinkSegment> segs = a.segments();
  if (a.end_b() != joint) std::reverse(segs.begin(), segs.end());
  std::vector<LinkSegment> b_segs = b.segments();
  if (b.end_a() != joint) std::reverse(b_segs.begin(), b_segs.end());
  segs.insert(segs.end(), std::make_move_iterator(b_segs.begin()),
              std::make_move_iterator(b_segs.end()));

  const FecSpec fec = a.fec();
  destroy_link(first);
  destroy_link(second);
  return install_link(new_a, new_b, std::move(segs), fec);
}

std::pair<LinkId, LinkId> PhysicalPlant::bypass_sever(LinkId id, NodeId at) {
  const LogicalLink& l = link(id);
  if (l.segments().size() < 2) {
    throw std::invalid_argument("bypass_sever: link has no bypass joints");
  }
  // Walk the node path end_a, n1, ..., end_b; interior joints are the
  // nodes between consecutive segments.
  std::size_t split_idx = 0;
  NodeId cursor = l.end_a();
  for (std::size_t i = 1; i < l.segments().size(); ++i) {
    cursor = cable(l.segments()[i - 1].cable).other_end(cursor);
    if (cursor == at) {
      split_idx = i;
      break;
    }
  }
  if (split_idx == 0) {
    throw std::invalid_argument("bypass_sever: node is not an interior joint");
  }
  std::vector<LinkSegment> first_segs(l.segments().begin(),
                                      l.segments().begin() + static_cast<long>(split_idx));
  std::vector<LinkSegment> second_segs(l.segments().begin() + static_cast<long>(split_idx),
                                       l.segments().end());
  const NodeId ea = l.end_a();
  const NodeId eb = l.end_b();
  const FecSpec fec = l.fec();
  destroy_link(id);
  const LinkId f = install_link(ea, at, std::move(first_segs), fec);
  const LinkId s = install_link(at, eb, std::move(second_segs), fec);
  return {f, s};
}

template <typename Fn>
void PhysicalPlant::for_each_lane(const LogicalLink& l, Fn&& fn) {
  for (const LinkSegment& seg : l.segments()) {
    Cable& c = *cables_[seg.cable];
    for (int lane : seg.lanes) fn(c.lane(lane));
  }
}

void PhysicalPlant::lane_begin_training(LinkId id) {
  LogicalLink& l = mutable_link(id);
  for_each_lane(l, [](Lane& lane) { lane.begin_training(); });
  l.invalidate_ready();
  ++version_;
}

void PhysicalPlant::lane_complete_training(LinkId id) {
  LogicalLink& l = mutable_link(id);
  for_each_lane(l, [](Lane& lane) { lane.complete_training(); });
  l.invalidate_ready();
  ++version_;
}

void PhysicalPlant::lane_power_off(LinkId id) {
  LogicalLink& l = mutable_link(id);
  for_each_lane(l, [](Lane& lane) { lane.power_off(); });
  l.invalidate_ready();
  ++version_;
}

void PhysicalPlant::set_fec(LinkId id, FecSpec fec) {
  check_fec(fec, "set_fec");
  LogicalLink& l = mutable_link(id);
  l.fec_ = fec;
  l.invalidate_fec_caches();
  ++version_;
}

void PhysicalPlant::set_reservation(LinkId id, std::optional<std::uint64_t> flow) {
  LogicalLink& l = mutable_link(id);
  if (l.reserved_for_ == flow) return;
  if (!l.reserved_for_) {
    ++reserved_links_;
  } else if (!flow) {
    --reserved_links_;
  }
  l.reserved_for_ = flow;
  // Reserved links are invisible to public routing.
  ++version_;
}

void PhysicalPlant::set_link_busy(LinkId id, bool busy) {
  if (link_busy(id) == busy) return;
  if (id >= busy_.size()) busy_.resize(id + 1, false);
  busy_[id] = busy;
  ++version_;
}

void PhysicalPlant::fold_telemetry() const {
  if (!telemetry_pending_) return;
  telemetry_pending_ = false;
  for (const auto& l : links_) {
    if (l != nullptr && l->pending_bits_ != 0) fold_link(*l);
  }
}

void PhysicalPlant::fold_link(LogicalLink& l) const {
  const int lanes = l.lane_count();
  // Every frame gives each lane bits / lanes; the frames with
  // remainder r > i give lane i of a segment one more bit.
  std::uint64_t* remainders = pending_remainders_.data() + l.remainder_base_;
  std::uint64_t frames = 0;
  std::int64_t remainder_bits = 0;
  for (int r = 0; r < lanes; ++r) {
    frames += remainders[r];
    remainder_bits += r * static_cast<std::int64_t>(remainders[r]);
  }
  const auto per_lane = static_cast<std::uint64_t>((l.pending_bits_ - remainder_bits) / lanes);
  for (const LinkSegment& seg : l.segments()) {
    Cable& c = *cables_[seg.cable];
    std::uint64_t longer = frames;  // frames whose remainder exceeds i
    for (std::size_t i = 0; i < seg.lanes.size(); ++i) {
      longer -= remainders[i];
      c.lane(seg.lanes[i]).bits_carried_ += per_lane + longer;
    }
  }
  l.pending_bits_ = 0;
  std::fill(remainders, remainders + lanes, 0);
}

std::uint64_t PhysicalPlant::lane_bits_carried(LaneRef ref) const {
  fold_telemetry();
  return cable(ref.cable).lane(ref.lane).bits_carried();
}

void PhysicalPlant::set_cable_ber(CableId id, double ber) {
  if (!is_valid_ber(ber)) throw std::invalid_argument("set_cable_ber: BER outside [0, 0.5]");
  Cable& c = cable(id);  // folds and bumps the BER epoch
  for (int i = 0; i < c.lane_count(); ++i) c.lane(i).set_pre_fec_ber(ber);
}

void PhysicalPlant::fail_lane(LaneRef ref) {
  cable(ref.cable).lane(ref.lane).fail();
  if (const auto owner = lane_owner(ref)) mutable_link(*owner).invalidate_ready();
  ++version_;
}

void PhysicalPlant::repair_lane(LaneRef ref) {
  cable(ref.cable).lane(ref.lane).repair();
  if (const auto owner = lane_owner(ref)) mutable_link(*owner).invalidate_ready();
  ++version_;
}

std::vector<int> PhysicalPlant::failed_lanes(CableId cable_id) const {
  const Cable& c = cable(cable_id);
  std::vector<int> out;
  for (int i = 0; i < c.lane_count(); ++i) {
    if (c.lane(i).is_failed()) out.push_back(i);
  }
  return out;
}

std::vector<LaneRef> PhysicalPlant::failed_lanes_of_link(LinkId id) const {
  const LogicalLink& l = link(id);
  std::vector<LaneRef> out;
  for (const LinkSegment& seg : l.segments()) {
    const Cable& c = cable(seg.cable);
    for (int lane : seg.lanes) {
      if (c.lane(lane).is_failed()) out.push_back(LaneRef{seg.cable, lane});
    }
  }
  return out;
}

double PhysicalPlant::total_power_watts() const {
  double w = 0;
  for (const auto& c : cables_) w += c->power_watts();
  w += kBypassPowerW * total_bypass_joints();
  return w;
}

int PhysicalPlant::total_bypass_joints() const {
  int joints = 0;
  for (const auto& l : links_) {
    if (l) joints += l->bypass_joints();
  }
  return joints;
}

std::optional<LinkId> PhysicalPlant::lane_owner(LaneRef ref) const {
  auto it = lane_owner_.find(ref);
  if (it == lane_owner_.end()) return std::nullopt;
  return it->second;
}

std::vector<int> PhysicalPlant::free_lanes(CableId cable_id) const {
  const Cable& c = cable(cable_id);
  std::vector<int> out;
  for (int i = 0; i < c.lane_count(); ++i) {
    if (!lane_owner_.contains(LaneRef{cable_id, i})) out.push_back(i);
  }
  return out;
}

std::string PhysicalPlant::validate() const {
  // Ordered on purpose: validate() is cold (debug/test only) and the
  // error it returns must not depend on hash iteration order.
  std::map<LaneRef, LinkId> recomputed;
  for (LinkId id = 0; id < links_.size(); ++id) {
    const auto& l = links_[id];
    if (!l) continue;
    // I2 + I3 + I4 via the same checker used at creation, but lanes are
    // owned (by this link), so re-check ownership separately.
    const std::size_t lanes_per_segment =
        l->segments().empty() ? 0 : l->segments().front().lanes.size();
    if (lanes_per_segment == 0) return "link " + std::to_string(id) + ": zero lanes";
    NodeId cursor = l->end_a();
    for (const LinkSegment& seg : l->segments()) {
      if (seg.cable >= cables_.size()) return "link " + std::to_string(id) + ": bad cable";
      const Cable& c = *cables_[seg.cable];
      if (!c.connects(cursor)) return "link " + std::to_string(id) + ": broken chain";
      if (seg.lanes.size() != lanes_per_segment) {
        return "link " + std::to_string(id) + ": unequal lane counts";
      }
      for (int lane : seg.lanes) {
        if (lane < 0 || lane >= c.lane_count()) {
          return "link " + std::to_string(id) + ": lane out of range";
        }
        const LaneRef ref{seg.cable, lane};
        if (recomputed.contains(ref)) {
          return "lane (" + std::to_string(seg.cable) + "," + std::to_string(lane) +
                 ") owned by two links";  // violates I1
        }
        recomputed.emplace(ref, id);
      }
      cursor = c.other_end(cursor);
    }
    if (cursor != l->end_b()) return "link " + std::to_string(id) + ": wrong terminus";
  }
  if (recomputed.size() != lane_owner_.size()) {
    return "lane ownership table out of sync";
  }
  for (const auto& [ref, id] : recomputed) {
    auto it = lane_owner_.find(ref);
    if (it == lane_owner_.end() || it->second != id) {
      return "lane ownership table entry mismatch";
    }
  }
  return {};
}

}  // namespace rsf::phy
