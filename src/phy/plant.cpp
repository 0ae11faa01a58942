#include "phy/plant.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <set>
#include <sstream>
#include <stdexcept>

namespace rsf::phy {

namespace {

/// Splits a frame's bits across the lanes of every segment, called once
/// per lane in for_each_lane order: bits / lanes each, plus one bit to
/// each of a segment's first bits % lanes lanes.
class LaneShare {
 public:
  LaneShare(std::int64_t bits, int lanes)
      : per_lane_(bits / lanes), extra_(bits % lanes), lanes_(lanes) {}

  std::uint64_t next() {
    const std::int64_t share = per_lane_ + (pos_ < extra_ ? 1 : 0);
    if (++pos_ == lanes_) pos_ = 0;
    return static_cast<std::uint64_t>(share);
  }

 private:
  std::int64_t per_lane_;
  std::int64_t extra_;
  int lanes_;
  int pos_ = 0;
};

}  // namespace

CableId PhysicalPlant::add_cable(NodeId a, NodeId b, double length_m, Medium medium,
                                 int lane_count, DataRate lane_rate,
                                 LanePowerParams lane_power, double initial_ber) {
  const auto id = static_cast<CableId>(cables_.size());
  cables_.push_back(std::make_unique<Cable>(id, a, b, length_m, medium, lane_count,
                                            lane_rate, lane_power, initial_ber));
  return id;
}

Cable& PhysicalPlant::cable(CableId id) {
  if (id >= cables_.size()) throw std::out_of_range("PhysicalPlant::cable: bad id");
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
  const LinkId id = next_link_id_++;
  claim_lanes(segments, id);
  if (links_.size() <= id) links_.resize(id + 1);
  links_[id] =
      std::make_unique<LogicalLink>(this, id, end_a, end_b, std::move(segments), fec);
  ++link_count_;
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
  // A circuit torn down while still reserved stops counting here.
  if (links_[id]->reserved_for_) --reserved_links_;
  release_lanes(links_[id]->segments());
  links_[id].reset();
  --link_count_;
}

LogicalLink& PhysicalPlant::mutable_link(LinkId id) {
  if (!has_link(id)) throw std::invalid_argument("link: unknown id");
  return *links_[id];
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
    Cable& c = cable(seg.cable);
    for (int lane : seg.lanes) fn(c.lane(lane));
  }
}

void PhysicalPlant::lane_begin_training(LinkId id) {
  LogicalLink& l = mutable_link(id);
  for_each_lane(l, [](Lane& lane) { lane.begin_training(); });
  l.invalidate_ready();
}

void PhysicalPlant::lane_complete_training(LinkId id) {
  LogicalLink& l = mutable_link(id);
  for_each_lane(l, [](Lane& lane) { lane.complete_training(); });
  l.invalidate_ready();
}

void PhysicalPlant::lane_power_off(LinkId id) {
  LogicalLink& l = mutable_link(id);
  for_each_lane(l, [](Lane& lane) { lane.power_off(); });
  l.invalidate_ready();
}

void PhysicalPlant::set_fec(LinkId id, FecSpec fec) {
  LogicalLink& l = mutable_link(id);
  l.fec_ = fec;
  l.invalidate_fec_caches();
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
  // Reservations change what public routing may use without changing
  // the link set: notify, so topology versions bump and memoized
  // routing state (dist tables, next-hop argmins) refreshes.
  for (const auto& obs : change_observers_) obs();
}

void PhysicalPlant::account_bits(LinkId id, std::int64_t bits) {
  LogicalLink& l = mutable_link(id);
  const int lanes = l.lane_count();
  if (lanes == 0 || bits <= 0) return;
  LaneShare share(bits, lanes);
  for_each_lane(l, [&share](Lane& lane) { lane.mutable_stats().bits_carried += share.next(); });
}

LogicalLink::FrameMemo& PhysicalPlant::frame_memo(LogicalLink& l, std::int64_t frame_bits) {
  // Two slots: a miss evicts the slot that did not serve the previous
  // frame, so a flow's full-size frames keep theirs while one-off
  // short tail frames take turns in the other.
  unsigned slot = l.frame_memo_last_;
  if (l.frame_memo_[slot].frame_bits != frame_bits) {
    slot ^= 1U;
    LogicalLink::FrameMemo& m = l.frame_memo_[slot];
    if (m.frame_bits != frame_bits) {
      const FecSpec& fec = l.fec();
      m.frame_bits = frame_bits;
      // Codewords per frame, striped across lanes.
      const double payload_per_cw = static_cast<double>(fec.k * fec.symbol_bits);
      m.codewords = std::ceil(static_cast<double>(frame_bits) / payload_per_cw);
      m.lanes.assign(l.segments().size() * static_cast<std::size_t>(l.lane_count()),
                     LogicalLink::LaneDraw{});
    }
    l.frame_memo_last_ = slot;
  }
  return l.frame_memo_[slot];
}

void PhysicalPlant::account_frame(LinkId id, DataSize frame, rsf::sim::RandomStream& rng) {
  LogicalLink& l = mutable_link(id);
  const int lanes = l.lane_count();
  const std::int64_t bits = frame.bit_count();
  if (lanes == 0 || bits <= 0) return;
  const FecSpec& fec = l.fec();
  if (fec.n == 0) {  // uncoded: no decoder telemetry
    account_bits(id, bits);
    return;
  }
  LaneShare share(bits, lanes);
  LogicalLink::FrameMemo& memo = frame_memo(l, bits);
  LogicalLink::LaneDraw* draw = memo.lanes.data();
  for_each_lane(l, [&](Lane& lane) {
    LaneStats& stats = lane.mutable_stats();
    stats.bits_carried += share.next();
    LogicalLink::LaneDraw& d = *draw++;
    const double ber = lane.pre_fec_ber();
    if (d.ber != ber) {
      d.ber = ber;
      // Mean corrected codewords on this lane: its share of codeword
      // symbols times the symbol error rate (small-p approximation:
      // one corrected codeword per symbol error). A lane with BER <= 0
      // gets mean 0, which draws nothing.
      d.mean = 0.0;
      if (!(ber <= 0)) {
        const double p_sym = 1.0 - std::pow(1.0 - ber, fec.symbol_bits);
        d.mean = memo.codewords / lanes * fec.n * p_sym;
      }
      d.limit = std::exp(-d.mean);
    }
    stats.corrected_codewords += rng.poisson(d.mean, d.limit);
  });
}

double PhysicalPlant::estimated_pre_fec_ber(LinkId id) const {
  const LogicalLink& l = link(id);
  const FecSpec& fec = l.fec();
  if (fec.n == 0) return 0.0;
  double worst = 0.0;
  for (const LinkSegment& seg : l.segments()) {
    const Cable& c = cable(seg.cable);
    for (int lane_idx : seg.lanes) {
      const LaneStats& st = c.lane(lane_idx).stats();
      if (st.bits_carried == 0) continue;
      // Symbols this lane has carried, including parity expansion.
      const double symbols = static_cast<double>(st.bits_carried) *
                             (static_cast<double>(fec.n) / fec.k) / fec.symbol_bits;
      if (symbols <= 0) continue;
      const double p_sym = static_cast<double>(st.corrected_codewords) / symbols;
      // Invert the symbol error rate to a bit error rate.
      const double ber = p_sym >= 1.0 ? 1.0
                                      : -std::expm1(std::log1p(-p_sym) / fec.symbol_bits);
      worst = std::max(worst, ber);
    }
  }
  return worst;
}

void PhysicalPlant::set_cable_ber(CableId id, double ber) {
  Cable& c = cable(id);
  for (int i = 0; i < c.lane_count(); ++i) c.lane(i).set_pre_fec_ber(ber);
}

void PhysicalPlant::fail_lane(LaneRef ref) {
  cable(ref.cable).lane(ref.lane).fail();
  if (const auto owner = lane_owner(ref)) mutable_link(*owner).invalidate_ready();
  for (const auto& obs : change_observers_) obs();
}

void PhysicalPlant::repair_lane(LaneRef ref) {
  cable(ref.cable).lane(ref.lane).repair();
  if (const auto owner = lane_owner(ref)) mutable_link(*owner).invalidate_ready();
  for (const auto& obs : change_observers_) obs();
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
  w += config_.bypass_power_w * total_bypass_joints();
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
