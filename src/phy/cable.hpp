// rsf::phy — physical cables.
//
// A cable is the fixed physical resource between two adjacent nodes:
// a bundle of lanes over one medium with one length. Cables never
// change at runtime — reconfiguration (splitting, bypassing) rearranges
// how *logical links* use cable lanes, not the cables themselves.
#pragma once

#include <cmath>
#include <stdexcept>
#include <vector>

#include "phy/lane.hpp"
#include "phy/medium.hpp"
#include "phy/types.hpp"

namespace rsf::phy {

/// A pre-FEC bit error rate a lane can carry: [0, 0.5]. Past 0.5 a bit
/// is more likely flipped than not; NaN fails both compares.
[[nodiscard]] inline bool is_valid_ber(double ber) { return ber >= 0.0 && ber <= 0.5; }

class Cable {
 public:
  Cable(CableId id, NodeId end_a, NodeId end_b, double length_m, Medium medium,
        int lane_count, DataRate lane_rate, double initial_ber)
      : id_(id), end_a_(end_a), end_b_(end_b), length_m_(length_m), medium_(medium) {
    if (end_a == end_b) throw std::invalid_argument("Cable: self-loop");
    if (lane_count <= 0) throw std::invalid_argument("Cable: need >= 1 lane");
    if (!(std::isfinite(length_m) && length_m > 0)) {
      throw std::invalid_argument("Cable: length must be positive and finite");
    }
    const double bps = lane_rate.bits_per_second();
    if (!(std::isfinite(bps) && bps > 0)) {
      throw std::invalid_argument("Cable: lane rate must be positive and finite");
    }
    if (!is_valid_ber(initial_ber)) throw std::invalid_argument("Cable: BER outside [0, 0.5]");
    lanes_.reserve(static_cast<std::size_t>(lane_count));
    for (int i = 0; i < lane_count; ++i) {
      lanes_.emplace_back(lane_rate, initial_ber);
    }
  }

  [[nodiscard]] CableId id() const { return id_; }
  [[nodiscard]] NodeId end_a() const { return end_a_; }
  [[nodiscard]] NodeId end_b() const { return end_b_; }
  [[nodiscard]] double length_m() const { return length_m_; }
  [[nodiscard]] Medium medium() const { return medium_; }
  [[nodiscard]] int lane_count() const { return static_cast<int>(lanes_.size()); }

  [[nodiscard]] bool connects(NodeId n) const { return n == end_a_ || n == end_b_; }
  /// The far end relative to `n`; throws if `n` is not an endpoint.
  [[nodiscard]] NodeId other_end(NodeId n) const {
    if (n == end_a_) return end_b_;
    if (n == end_b_) return end_a_;
    throw std::invalid_argument("Cable::other_end: node not an endpoint");
  }

  [[nodiscard]] Lane& lane(int i) { return lanes_.at(static_cast<std::size_t>(i)); }
  [[nodiscard]] const Lane& lane(int i) const { return lanes_.at(static_cast<std::size_t>(i)); }

  [[nodiscard]] rsf::sim::SimTime propagation_delay() const {
    return rsf::phy::propagation_delay(medium_, length_m_);
  }

  /// Total electrical power of all lanes in their current states.
  [[nodiscard]] double power_watts() const {
    double w = 0;
    for (const Lane& l : lanes_) w += l.power_watts();
    return w;
  }

 private:
  CableId id_;
  NodeId end_a_;
  NodeId end_b_;
  double length_m_;
  Medium medium_;
  std::vector<Lane> lanes_;
};

}  // namespace rsf::phy
