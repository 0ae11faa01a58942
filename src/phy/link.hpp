// rsf::phy — logical links.
//
// A logical link is what routing and flow scheduling see: a pipe
// between two nodes with a rate, a latency, an error model and a power
// draw. Under the hood it is an ordered chain of cable segments joined
// by physical-layer bypasses (PLP #2); a plain adjacent link is the
// one-segment special case. Splitting/bundling (PLP #1) rearranges the
// lanes each segment uses.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <vector>

#include "phy/fec.hpp"
#include "phy/types.hpp"
#include "phy/units.hpp"
#include "sim/time.hpp"

namespace rsf::phy {

class PhysicalPlant;

/// What one frame costs on a link, for one (frame, header) size pair
/// at one plant BER epoch (the key): see LogicalLink::frame_cost.
struct FrameCost {
  std::int64_t frame_bits = -1;  // -1 = never filled
  std::int64_t header_bits = -1;
  std::uint64_t ber_epoch = 0;
  rsf::sim::SimTime serialization;         // of the frame
  rsf::sim::SimTime header_serialization;  // of min(header, frame)
  rsf::sim::SimTime transit;               // propagation + FEC latency
  double loss = 0.0;                       // frame_loss_prob(frame)
  std::int64_t remainder = 0;              // frame_bits % lane_count()
};

/// One hop of a logical link across one cable, using a subset of that
/// cable's lanes.
struct LinkSegment {
  CableId cable = kInvalidCable;
  std::vector<int> lanes;
};

class LogicalLink {
 public:
  LogicalLink(const PhysicalPlant* plant, LinkId id, NodeId end_a, NodeId end_b,
              std::vector<LinkSegment> segments, FecSpec fec)
      : plant_(plant),
        id_(id),
        end_a_(end_a),
        end_b_(end_b),
        segments_(std::move(segments)),
        fec_(fec) {}

  [[nodiscard]] LinkId id() const { return id_; }
  [[nodiscard]] NodeId end_a() const { return end_a_; }
  [[nodiscard]] NodeId end_b() const { return end_b_; }
  [[nodiscard]] bool connects(NodeId n) const { return n == end_a_ || n == end_b_; }
  [[nodiscard]] NodeId other_end(NodeId n) const {
    if (n == end_a_) return end_b_;
    if (n == end_b_) return end_a_;
    throw_not_an_endpoint();
  }

  [[nodiscard]] const std::vector<LinkSegment>& segments() const { return segments_; }
  /// Number of physical bypass joints traffic crosses (segments - 1).
  [[nodiscard]] int bypass_joints() const { return static_cast<int>(segments_.size()) - 1; }

  [[nodiscard]] const FecSpec& fec() const { return fec_; }

  /// Lanes per segment (equal across segments by construction).
  [[nodiscard]] int lane_count() const {
    return segments_.empty() ? 0 : static_cast<int>(segments_.front().lanes.size());
  }

  // --- Derived transport metrics (computed against the owning plant) ---

  /// Sum of member lane rates of one segment (all segments equal).
  [[nodiscard]] DataRate raw_rate() const;
  /// Raw rate minus FEC overhead — what payload actually gets.
  [[nodiscard]] DataRate effective_rate() const;
  /// End-to-end propagation: cable flight times + per-joint bypass
  /// latency. No switching logic is traversed at joints — that is the
  /// point of PLP #2.
  [[nodiscard]] rsf::sim::SimTime propagation_delay() const;
  /// Serialization of `frame` at the effective rate.
  [[nodiscard]] rsf::sim::SimTime serialization_delay(DataSize frame) const;
  /// serialization + propagation + FEC codec latency for one frame.
  [[nodiscard]] rsf::sim::SimTime one_way_latency(DataSize frame) const;

  /// Worst pre-FEC BER across all member lanes (conservative link BER).
  [[nodiscard]] double worst_pre_fec_ber() const;
  /// Probability a frame is lost to uncorrectable errors end-to-end.
  [[nodiscard]] double frame_loss_prob(DataSize frame) const;
  /// Everything a hop needs of one frame, memoized for the last frame
  /// at plant BER epoch `ber_epoch` (PhysicalPlant::ber_epoch()). A
  /// miss fills it from serialization_delay, propagation_delay and
  /// frame_loss_prob; set_fec clears it.
  [[nodiscard]] const FrameCost& frame_cost(DataSize frame, DataSize header,
                                            std::uint64_t ber_epoch) const {
    if (frame_cost_.frame_bits == frame.bit_count() &&
        frame_cost_.header_bits == header.bit_count() && frame_cost_.ber_epoch == ber_epoch) {
      return frame_cost_;
    }
    return refresh_frame_cost(frame, header, ber_epoch);
  }
  /// Residual post-FEC BER at the link's current worst-lane BER.
  [[nodiscard]] double post_fec_ber() const;

  /// Member-lane power plus bypass-joint power.
  [[nodiscard]] double power_watts() const;

  /// True when every member lane is up (link can carry traffic).
  /// Cached: lane state only changes through PhysicalPlant mutators,
  /// which invalidate the cache — so the per-hop usability check is a
  /// flag read, not a lane scan.
  [[nodiscard]] bool ready() const {
    if (ready_cache_ < 0) ready_cache_ = compute_ready() ? 1 : 0;
    return ready_cache_ != 0;
  }

  /// Reservation: a link handed to one flow as a dedicated circuit.
  /// Reserved links are invisible to general routing; only the owning
  /// flow's packets cross them. Cleared implicitly by any structural
  /// operation (the successor links start unreserved).
  [[nodiscard]] const std::optional<std::uint64_t>& reserved_for() const {
    return reserved_for_;
  }

 private:
  friend class PhysicalPlant;
  std::optional<std::uint64_t> reserved_for_;

  [[noreturn]] static void throw_not_an_endpoint();
  const FrameCost& refresh_frame_cost(DataSize frame, DataSize header,
                                      std::uint64_t ber_epoch) const;
  [[nodiscard]] bool compute_ready() const;
  /// Called by the plant whenever a member lane's state may have
  /// changed (training transitions, power-off, hard failure/repair).
  void invalidate_ready() const { ready_cache_ = -1; }

  /// Drop every cache derived from fec_. Lane rates, cable lengths and
  /// the segment chain are immutable for a link's lifetime, so the
  /// rate/propagation caches only need computing once; the FEC caches
  /// are re-primed lazily after a mode change.
  void invalidate_fec_caches() {
    eff_rate_valid_ = false;
    loss_memo_.fill(LossMemo{});
    cw_err_memo_.fill(CwErrMemo{});
    frame_cost_ = FrameCost{};
  }

  const PhysicalPlant* plant_;
  LinkId id_;
  NodeId end_a_;
  NodeId end_b_;
  std::vector<LinkSegment> segments_;
  FecSpec fec_;

  // Derived-metric caches: these sit on the per-packet hop path, where
  // recomputing (lane loops, lgamma-based FEC tail sums) dominated the
  // event loop. BER is part of the loss-memo key, so out-of-band BER
  // changes miss the memo instead of reading stale values.
  mutable bool raw_rate_valid_ = false;
  mutable DataRate raw_rate_cache_ = DataRate::zero();
  mutable bool prop_valid_ = false;
  mutable rsf::sim::SimTime prop_cache_ = rsf::sim::SimTime::zero();
  mutable bool eff_rate_valid_ = false;
  mutable DataRate eff_rate_cache_ = DataRate::zero();
  struct LossMemo {
    double ber = -1.0;
    std::int64_t frame_bits = -1;
    double loss = 0.0;
  };
  mutable std::array<LossMemo, 4> loss_memo_{};
  mutable unsigned loss_memo_next_ = 0;
  // Behind loss_memo_: the codeword error probability, which depends on
  // the BER alone. A flow's tail frame has a size no memo has seen; with
  // this it costs a log1p and an expm1 instead of the tail sum.
  struct CwErrMemo {
    double ber = -1.0;
    double cw_err = 0.0;
  };
  mutable std::array<CwErrMemo, 4> cw_err_memo_{};
  mutable unsigned cw_err_memo_next_ = 0;
  [[nodiscard]] double codeword_error_prob(double ber) const;

  // PLP #5 bits accounted but not yet folded into the member lanes
  // (PhysicalPlant::fold_telemetry). A frame of b bits gives each lane
  // b / lanes bits plus one to a segment's first b % lanes lanes, so
  // the bit total and a count of frames per remainder reproduce the
  // per-lane split exactly. The counts live in the plant
  // (pending_remainders_[remainder_base_ + r]), so a link costs no
  // allocation of its own.
  std::int64_t pending_bits_ = 0;
  std::size_t remainder_base_ = 0;

  // frame_cost's memo: a hop hitting it skips the divisions and the
  // per-segment lane BER scan.
  mutable FrameCost frame_cost_;
  /// -1 unknown, else 0/1. See ready().
  mutable std::int8_t ready_cache_ = -1;
};

}  // namespace rsf::phy
