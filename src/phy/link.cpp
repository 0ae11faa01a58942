#include "phy/link.hpp"

#include <algorithm>
#include <stdexcept>

#include "phy/plant.hpp"

namespace rsf::phy {

using rsf::sim::SimTime;

void LogicalLink::throw_not_an_endpoint() {
  throw std::invalid_argument("LogicalLink::other_end: node not an endpoint");
}

DataRate LogicalLink::raw_rate() const {
  if (raw_rate_valid_) return raw_rate_cache_;
  if (segments_.empty()) return DataRate::zero();
  const LinkSegment& seg = segments_.front();
  const Cable& c = plant_->cable(seg.cable);
  DataRate r = DataRate::zero();
  for (int lane : seg.lanes) r = r + c.lane(lane).rate();
  raw_rate_cache_ = r;
  raw_rate_valid_ = true;
  return r;
}

DataRate LogicalLink::effective_rate() const {
  if (eff_rate_valid_) return eff_rate_cache_;
  eff_rate_cache_ = fec_.effective_rate(raw_rate());
  eff_rate_valid_ = true;
  return eff_rate_cache_;
}

SimTime LogicalLink::propagation_delay() const {
  if (prop_valid_) return prop_cache_;
  SimTime t = SimTime::zero();
  for (const LinkSegment& seg : segments_) {
    t += plant_->cable(seg.cable).propagation_delay();
  }
  if (bypass_joints() > 0) {
    t += kBypassLatency * static_cast<std::int64_t>(bypass_joints());
  }
  prop_cache_ = t;
  prop_valid_ = true;
  return t;
}

SimTime LogicalLink::serialization_delay(DataSize frame) const {
  return transmission_time(frame, effective_rate());
}

SimTime LogicalLink::one_way_latency(DataSize frame) const {
  return serialization_delay(frame) + propagation_delay() + fec_.latency;
}

double LogicalLink::worst_pre_fec_ber() const {
  double worst = 0.0;
  for (const LinkSegment& seg : segments_) {
    const Cable& c = plant_->cable(seg.cable);
    for (int lane : seg.lanes) worst = std::max(worst, c.lane(lane).pre_fec_ber());
  }
  return worst;
}

double LogicalLink::frame_loss_prob(DataSize frame) const {
  // A frame crosses every segment; an uncorrectable error on any
  // segment loses it. Segments share the FEC config, so combine the
  // per-segment loss probabilities (worst-lane BER per segment).
  // The FEC tail sum is expensive (lgamma loop) and its inputs repeat
  // hop after hop, so memoize the result per (ber, frame) and the tail
  // sum per ber — a fresh BER simply misses both. (A hop reaches this
  // only on a frame_cost miss.)
  const std::int64_t bits = frame.bit_count();
  double survive = 1.0;
  for (const LinkSegment& seg : segments_) {
    const Cable& c = plant_->cable(seg.cable);
    double seg_ber = 0.0;
    for (int lane : seg.lanes) seg_ber = std::max(seg_ber, c.lane(lane).pre_fec_ber());
    double seg_loss = -1.0;
    for (const LossMemo& m : loss_memo_) {
      if (m.frame_bits == bits && m.ber == seg_ber) {
        seg_loss = m.loss;
        break;
      }
    }
    if (seg_loss < 0.0) {
      seg_loss = fec_.frame_loss_prob_from_cw_err(codeword_error_prob(seg_ber), frame);
      loss_memo_[loss_memo_next_] = LossMemo{seg_ber, bits, seg_loss};
      loss_memo_next_ = (loss_memo_next_ + 1) % loss_memo_.size();
    }
    survive *= 1.0 - seg_loss;
  }
  return 1.0 - survive;
}

const FrameCost& LogicalLink::refresh_frame_cost(DataSize frame, DataSize header,
                                                 std::uint64_t ber_epoch) const {
  FrameCost& c = frame_cost_;
  const std::int64_t bits = frame.bit_count();
  c.frame_bits = bits;
  c.header_bits = header.bit_count();
  c.ber_epoch = ber_epoch;
  c.serialization = serialization_delay(frame);
  c.header_serialization = serialization_delay(std::min(header, frame));
  c.transit = propagation_delay() + fec_.latency;
  c.loss = frame_loss_prob(frame);
  c.remainder = bits % lane_count();
  return c;
}

double LogicalLink::codeword_error_prob(double ber) const {
  for (const CwErrMemo& m : cw_err_memo_) {
    if (m.ber == ber) return m.cw_err;
  }
  const double cw_err = fec_.codeword_error_prob(ber);
  cw_err_memo_[cw_err_memo_next_] = CwErrMemo{ber, cw_err};
  cw_err_memo_next_ = (cw_err_memo_next_ + 1) % cw_err_memo_.size();
  return cw_err;
}

double LogicalLink::post_fec_ber() const { return fec_.post_fec_ber(worst_pre_fec_ber()); }

double LogicalLink::power_watts() const {
  double w = 0.0;
  for (const LinkSegment& seg : segments_) {
    const Cable& c = plant_->cable(seg.cable);
    for (int lane : seg.lanes) w += c.lane(lane).power_watts();
  }
  w += kBypassPowerW * bypass_joints();
  return w;
}

bool LogicalLink::compute_ready() const {
  for (const LinkSegment& seg : segments_) {
    const Cable& c = plant_->cable(seg.cable);
    for (int lane : seg.lanes) {
      if (!c.lane(lane).is_up()) return false;
    }
  }
  return !segments_.empty();
}

}  // namespace rsf::phy
