// rsf::phy — the physical plant.
//
// PhysicalPlant owns every cable and logical link in the rack and is
// the single authority for structural reconfiguration: link creation,
// splitting/bundling (PLP #1), bypass join/sever (PLP #2), FEC changes
// (PLP #4) and statistics (PLP #5). All operations are *instantaneous
// state changes with validated preconditions*; the PLP engine layers
// actuation latency and lane retraining on top.
//
// Invariants maintained (checked by validate(), exercised by the
// property tests):
//   I1  every lane belongs to at most one logical link;
//   I2  a link's segments form a contiguous node path end_a -> end_b;
//   I3  every segment of a link carries the same lane count;
//   I4  every segment's lanes exist on its cable.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "phy/cable.hpp"
#include "sim/random.hpp"
#include "phy/link.hpp"
#include "phy/types.hpp"

namespace rsf::phy {

/// Plant-wide physical constants.
struct PlantConfig {
  /// Latency added by one bypass joint (retimer / optical coupler).
  rsf::sim::SimTime bypass_latency = rsf::sim::SimTime::nanoseconds(25);
  /// Power of one active bypass joint.
  double bypass_power_w = 0.3;
};

class PhysicalPlant {
 public:
  explicit PhysicalPlant(PlantConfig config = {}) : config_(config) {}

  PhysicalPlant(const PhysicalPlant&) = delete;
  PhysicalPlant& operator=(const PhysicalPlant&) = delete;

  [[nodiscard]] const PlantConfig& config() const { return config_; }

  // --- Construction-time plumbing ---

  CableId add_cable(NodeId a, NodeId b, double length_m, Medium medium, int lane_count,
                    DataRate lane_rate, LanePowerParams lane_power = {},
                    double initial_ber = 1e-12);

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
  /// LogicalLink::reserved_for. An effective change notifies the
  /// change observers (routing caches key on the topology version).
  void set_reservation(LinkId id, std::optional<std::uint64_t> flow);

  /// Links currently reserved. Kept by set_reservation and
  /// destroy_link (a destroyed reserved link stops counting), so the
  /// transport can skip its reserved-circuit scan when this is 0.
  [[nodiscard]] std::size_t reserved_link_count() const { return reserved_links_; }

  // --- PLP #5: statistics ---

  /// Account `bits` carried by every segment of the link, split evenly
  /// across its lanes; the bits % lanes remainder goes one bit each to
  /// a segment's first lanes, so every segment accounts all of `bits`.
  void account_bits(LinkId id, std::int64_t bits);

  /// Account one frame crossing the link *and* sample the FEC decoder
  /// telemetry real transceivers expose: the number of corrected
  /// codewords, drawn per lane from the lane's true BER. Feeds the
  /// pre-FEC BER estimator below (PLP #5). One pass over the lanes;
  /// each lane's Poisson mean and limit come from the link's frame
  /// memo (see LogicalLink), recomputed only when the frame size, the
  /// FEC mode or that lane's BER changed.
  void account_frame(LinkId id, DataSize frame, rsf::sim::RandomStream& rng);

  /// Pre-FEC BER of the link as *estimated from decoder telemetry*
  /// (worst estimating lane). Requires an RS FEC mode and traffic:
  /// returns 0 when nothing has been observed — exactly like a real
  /// transceiver MIB. Compare Lane::pre_fec_ber(), the oracle truth.
  [[nodiscard]] double estimated_pre_fec_ber(LinkId id) const;

  /// Set the environmental pre-FEC BER on every lane of a cable.
  void set_cable_ber(CableId id, double ber);

  // --- Failures ---

  /// Observer of out-of-band physical changes (lane failure/repair).
  /// Loss-of-signal propagates to the fabric layer immediately, the
  /// way real PHYs raise link-down interrupts; routing caches must
  /// invalidate on it.
  using ChangeObserver = std::function<void()>;
  void add_change_observer(ChangeObserver obs) {
    change_observers_.push_back(std::move(obs));
  }

  /// Hard-fail one lane (see Lane::fail). Any link using it goes
  /// not-ready until the control plane re-provisions around it.
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
  [[nodiscard]] LogicalLink& mutable_link(LinkId id);
  /// Visit every member lane, segment by segment in stored order. A
  /// template so the per-frame visitor inlines (defined in plant.cpp,
  /// its only user).
  template <typename Fn>
  void for_each_lane(const LogicalLink& link, Fn&& fn);
  /// account_frame's memo slot for `frame_bits` (re-keyed on a miss).
  LogicalLink::FrameMemo& frame_memo(LogicalLink& link, std::int64_t frame_bits);

  PlantConfig config_;
  std::vector<ChangeObserver> change_observers_;
  std::vector<std::unique_ptr<Cable>> cables_;
  // Dense id-indexed pool: link ids are assigned sequentially and never
  // reused, so the per-hop link(id) lookup is one bounds check and one
  // pointer chase. Destroyed links leave nullptr holes; link_ids()
  // skips them (and stays sorted for deterministic iteration).
  std::vector<std::unique_ptr<LogicalLink>> links_;
  std::size_t link_count_ = 0;
  std::size_t reserved_links_ = 0;
  // rsf-lint: order-insensitive(point lookups only — lane_owner()/free_lanes() probe by key, never iterate)
  std::unordered_map<LaneRef, LinkId> lane_owner_;
  LinkId next_link_id_ = 0;
};

}  // namespace rsf::phy
