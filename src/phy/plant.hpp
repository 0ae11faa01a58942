// rsf::phy — the physical plant.
//
// PhysicalPlant owns every cable and logical link in the rack and is
// the single authority for structural reconfiguration: link creation,
// splitting/bundling (PLP #1), bypass join/sever (PLP #2), FEC changes
// (PLP #4) and statistics (PLP #5). All operations are *instantaneous
// state changes with validated preconditions*; the PLP engine layers
// actuation latency and lane retraining on top.
//
// It also owns everything routing reads about the link graph: the
// per-node adjacency, the actuation-busy bitmap (written by the PLP
// engine) and one version() it bumps itself on every change to a
// routing input, so no component has to notify anyone.
//
// Invariants maintained (checked by validate(), exercised by the
// property tests):
//   I1  every lane belongs to at most one logical link;
//   I2  a link's segments form a contiguous node path end_a -> end_b;
//   I3  every segment of a link carries the same lane count;
//   I4  every segment's lanes exist on its cable.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "phy/cable.hpp"
#include "phy/link.hpp"
#include "phy/types.hpp"

namespace rsf::phy {

/// Latency added by one bypass joint (retimer / optical coupler).
inline constexpr rsf::sim::SimTime kBypassLatency = rsf::sim::SimTime::nanoseconds(25);
/// Power of one active bypass joint.
inline constexpr double kBypassPowerW = 0.3;

class PhysicalPlant {
 public:
  PhysicalPlant() = default;

  PhysicalPlant(const PhysicalPlant&) = delete;
  PhysicalPlant& operator=(const PhysicalPlant&) = delete;

  // --- Construction-time plumbing ---

  CableId add_cable(NodeId a, NodeId b, double length_m, Medium medium, int lane_count,
                    DataRate lane_rate, double initial_ber = 1e-12);

  /// Mutable access folds pending lane bits and bumps the BER epoch
  /// first: the caller may read lane bits or write a lane BER. Make
  /// such writes before the next frame is accounted. The const
  /// overload does neither; read lane bits through lane_bits_carried().
  [[nodiscard]] Cable& cable(CableId id);
  [[nodiscard]] const Cable& cable(CableId id) const;
  [[nodiscard]] std::size_t cable_count() const { return cables_.size(); }

  /// The cable between adjacent nodes a and b, if one exists.
  [[nodiscard]] std::optional<CableId> find_cable(NodeId a, NodeId b) const;

  // --- Link lifecycle ---

  /// Create a link over explicit segments. Validates I1-I4 and claims
  /// the lanes. Lanes start in kOff; callers (normally the PLP engine)
  /// bring them up.
  LinkId create_link(NodeId end_a, NodeId end_b, std::vector<LinkSegment> segments,
                     FecSpec fec = FecSpec::of(FecScheme::kNone));

  /// Convenience: single-segment link over `lanes` of `cable`.
  LinkId create_adjacent_link(CableId cable, std::vector<int> lanes,
                              FecSpec fec = FecSpec::of(FecScheme::kNone));

  /// Destroy a link and release its lanes. Lane power states are left
  /// unchanged — powering freed lanes down is a separate PLP #3
  /// decision made by the control plane.
  void destroy_link(LinkId id);

  [[nodiscard]] bool has_link(LinkId id) const {
    return id < links_.size() && links_[id] != nullptr;
  }
  /// Inline: called several times per packet hop.
  [[nodiscard]] const LogicalLink& link(LinkId id) const {
    if (id >= links_.size() || links_[id] == nullptr) {
      throw std::invalid_argument("link: unknown id");
    }
    return *links_[id];
  }
  [[nodiscard]] std::vector<LinkId> link_ids() const;
  [[nodiscard]] std::size_t link_count() const { return link_count_; }

  // --- PLP #1: breaking / bundling ---

  /// Split `id` into a k-lane link and an (N-k)-lane link over the same
  /// segment chain. The first k lanes (per segment, in stored order) go
  /// to the first result. Lane states are preserved. `id` is destroyed.
  std::pair<LinkId, LinkId> split_link(LinkId id, int k);

  /// Merge two links with identical endpoints and identical cable
  /// chains into one. Lane states preserved; FEC taken from `first`.
  /// Both inputs are destroyed.
  LinkId bundle_links(LinkId first, LinkId second);

  // --- PLP #2: high-speed bypass ---

  /// Join two links sharing exactly one endpoint into a single link
  /// bypassing the shared node at the physical layer. Lane counts must
  /// match. FEC taken from `first`. Both inputs are destroyed.
  LinkId bypass_join(LinkId first, LinkId second);

  /// Sever a multi-segment link at intermediate node `at`, restoring
  /// two independent links that terminate there.
  std::pair<LinkId, LinkId> bypass_sever(LinkId id, NodeId at);

  // --- PLP #3: lane state (the plant flips state; timing is PLP's) ---

  void lane_begin_training(LinkId id);
  void lane_complete_training(LinkId id);
  void lane_power_off(LinkId id);

  // --- PLP #4: adaptive FEC ---

  void set_fec(LinkId id, FecSpec fec);

  /// Reserve a link for one flow (or clear with nullopt). See
  /// LogicalLink::reserved_for. An effective change bumps version().
  void set_reservation(LinkId id, std::optional<std::uint64_t> flow);

  /// Links currently reserved. Kept by set_reservation and
  /// destroy_link (a destroyed reserved link stops counting), so the
  /// transport can skip its reserved-circuit scan when this is 0.
  [[nodiscard]] std::size_t reserved_link_count() const { return reserved_links_; }

  // --- PLP #5: statistics ---

  /// Account one frame crossing the link: its bits on every segment,
  /// split evenly across the lanes with the bits % lanes remainder one
  /// bit each to a segment's first lanes. O(1) and inline: the link's
  /// frame_cost memo carries the frame's remainder, and the link sums
  /// bits and remainders until the next fold. Returns the memo: the
  /// hop's link row.
  const FrameCost& account_frame(LinkId id, DataSize frame, DataSize header) {
    LogicalLink& l = mutable_link(id);
    const FrameCost& cost = l.frame_cost(frame, header, ber_epoch_);
    if (cost.frame_bits > 0) {
      l.pending_bits_ += cost.frame_bits;
      ++pending_remainders_[l.remainder_base_ + static_cast<std::size_t>(cost.remainder)];
      telemetry_pending_ = true;
    }
    return cost;
  }

  /// PLP #5: bits one lane has carried, with the frames accounted
  /// since the last fold folded in. Equal, bit for bit, to splitting
  /// every frame across the lanes as it crossed.
  [[nodiscard]] std::uint64_t lane_bits_carried(LaneRef ref) const;

  /// Bumped by every lane BER write the plant can see: set_cable_ber
  /// and mutable cable() access. Keys LogicalLink::frame_cost's memo.
  [[nodiscard]] std::uint64_t ber_epoch() const { return ber_epoch_; }

  /// Set the environmental pre-FEC BER on every lane of a cable;
  /// throws std::invalid_argument outside [0, 0.5] (NaN included).
  void set_cable_ber(CableId id, double ber);

  // --- Routing inputs ---

  /// Links terminating at `node`, any readiness state, in ascending id
  /// order: install_link appends and link ids only grow.
  [[nodiscard]] const std::vector<LinkId>& links_at(NodeId node) const {
    return node < links_at_.size() ? links_at_[node] : no_links_;
  }
  /// Whether a PLP command is actuating on the link. O(1): this sits
  /// on the per-hop usability test.
  [[nodiscard]] bool link_busy(LinkId id) const { return id < busy_.size() && busy_[id]; }
  /// Written by the PLP engine only, around each actuation window.
  void set_link_busy(LinkId id, bool busy);
  /// Moves on every change to a routing input: install_link and
  /// destroy_link (so split, bundle, join, sever, provision and
  /// decommission), lane training and power-off, set_fec, fail_lane,
  /// repair_lane, an effective set_reservation and an effective
  /// set_link_busy. BER writes and frame accounting move ber_epoch()
  /// instead.
  [[nodiscard]] std::uint64_t version() const { return version_; }

  // --- Failures ---

  /// Hard-fail one lane (see Lane::fail). Any link using it goes
  /// not-ready until the control plane re-provisions around it; the
  /// version bump reaches routing at once, the way real PHYs raise
  /// link-down interrupts.
  void fail_lane(LaneRef ref);
  /// Out-of-band physical repair of a lane.
  void repair_lane(LaneRef ref);
  /// Lanes of `cable` that are hard-failed.
  [[nodiscard]] std::vector<int> failed_lanes(CableId cable) const;
  /// Member lanes of `link` (per segment) that are hard-failed.
  [[nodiscard]] std::vector<LaneRef> failed_lanes_of_link(LinkId id) const;

  // --- Whole-plant queries ---

  /// Total plant power: every cable's lanes + every active bypass joint.
  [[nodiscard]] double total_power_watts() const;
  /// Number of active bypass joints across all links.
  [[nodiscard]] int total_bypass_joints() const;

  /// Check invariants I1-I4; returns an error description or empty.
  [[nodiscard]] std::string validate() const;

  /// Owner of a lane, if any.
  [[nodiscard]] std::optional<LinkId> lane_owner(LaneRef ref) const;
  /// Lanes of `cable` not owned by any link.
  [[nodiscard]] std::vector<int> free_lanes(CableId cable) const;

 private:
  LinkId install_link(NodeId end_a, NodeId end_b, std::vector<LinkSegment> segments,
                      FecSpec fec);
  void claim_lanes(const std::vector<LinkSegment>& segments, LinkId id);
  void release_lanes(const std::vector<LinkSegment>& segments);
  void check_segments(NodeId end_a, NodeId end_b,
                      const std::vector<LinkSegment>& segments) const;
  [[nodiscard]] LogicalLink& mutable_link(LinkId id) {
    if (!has_link(id)) throw std::invalid_argument("link: unknown id");
    return *links_[id];
  }
  /// Visit every member lane, segment by segment in stored order.
  template <typename Fn>
  void for_each_lane(const LogicalLink& link, Fn&& fn);
  /// Fold every link's pending bits into its lanes (see
  /// lane_bits_carried). Runs before anything reads lane bits
  /// (lane_bits_carried, mutable cable()) or destroys a link.
  void fold_telemetry() const;
  void fold_link(LogicalLink& link) const;

  std::vector<std::unique_ptr<Cable>> cables_;
  // Dense id-indexed pool: link ids are assigned sequentially and never
  // reused, so the per-hop link(id) lookup is one bounds check and one
  // pointer chase. Destroyed links leave nullptr holes; link_ids()
  // skips them (and stays sorted for deterministic iteration).
  std::vector<std::unique_ptr<LogicalLink>> links_;
  std::size_t link_count_ = 0;
  std::size_t reserved_links_ = 0;
  std::uint64_t version_ = 1;  // read on every hop, beside the link pool
  // Some link holds unfolded bits: a hop sets it, a fold clears it. Folds are rare next to hops, so a fold scans links_ rather than
  // a hop maintaining a dirty list.
  mutable bool telemetry_pending_ = false;
  // Each link's frames per bits % lanes remainder, lane_count() slots
  // from its remainder_base_ on (never reused, like link ids).
  mutable std::vector<std::uint64_t> pending_remainders_;
  std::uint64_t ber_epoch_ = 1;
  // rsf-lint: order-insensitive(point lookups only — lane_owner()/free_lanes() probe by key, never iterate)
  std::unordered_map<LaneRef, LinkId> lane_owner_;
  LinkId next_link_id_ = 0;
  // Adjacency by dense node id, grown by install_link.
  std::vector<std::vector<LinkId>> links_at_;
  std::vector<LinkId> no_links_;
  // Busy bitmap by LinkId, grown on demand by set_link_busy.
  std::vector<bool> busy_;
};

}  // namespace rsf::phy
