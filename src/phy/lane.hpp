// rsf::phy — individual physical lanes.
//
// A lane is one SerDes-to-SerDes bit pipe (one fibre wavelength, one
// copper pair group). Lanes have a state machine (off / training / up),
// a signalling rate, a time-varying pre-FEC bit error rate, and a power
// draw per state. PLP #3 (on/off) and PLP #5 (per-lane statistics)
// operate at this granularity.
#pragma once

#include <cstdint>
#include <string_view>

#include "phy/units.hpp"

namespace rsf::phy {

enum class LaneState {
  kOff = 0,    // powered down
  kTraining,   // retraining after power-on or re-bundle; carries no data
  kUp,         // carrying data
};

[[nodiscard]] std::string_view to_string(LaneState s);

// Power draw of one lane per state, in watts. The figures follow
// published 25G SerDes numbers (~1.1 W active including driver).
inline constexpr double kLaneActiveWatts = 1.1;
inline constexpr double kLaneTrainingWatts = 1.1;  // training drives the line at full swing
inline constexpr double kLaneOffWatts = 0.05;      // leakage + wake logic

class Lane {
 public:
  Lane(DataRate rate, double pre_fec_ber) : rate_(rate), pre_fec_ber_(pre_fec_ber) {}

  [[nodiscard]] DataRate rate() const { return rate_; }
  [[nodiscard]] LaneState state() const { return state_; }
  [[nodiscard]] bool is_up() const { return state_ == LaneState::kUp && !failed_; }
  /// A hard-failed lane (broken fibre, dead SerDes). Training cannot
  /// revive it; only repair() (a physical intervention) clears it.
  [[nodiscard]] bool is_failed() const { return failed_; }
  [[nodiscard]] double power_watts() const {
    switch (state_) {
      case LaneState::kOff:
        return kLaneOffWatts;
      case LaneState::kTraining:
        return kLaneTrainingWatts;
      case LaneState::kUp:
        return kLaneActiveWatts;
    }
    return 0.0;
  }

  /// Current environmental pre-FEC BER on this lane.
  [[nodiscard]] double pre_fec_ber() const { return pre_fec_ber_; }
  void set_pre_fec_ber(double ber) { pre_fec_ber_ = ber; }

  /// State transitions. The *timing* of transitions (training takes
  /// tens of microseconds) is enforced by the PLP engine; the lane
  /// object only validates legality. Failed lanes ignore training
  /// transitions (the PHY keeps trying, the lane stays dark). A
  /// training that a failure or power-off cut since begin_training
  /// completes dark; complete_training throws only when no training
  /// was begun.
  void begin_training();
  void complete_training();
  void power_off();

  /// Hard failure injection and (out-of-band) repair.
  void fail();
  void repair();

  /// PLP #5: bits this lane has carried. Lags the frames its link
  /// accounted since the plant's last fold;
  /// PhysicalPlant::lane_bits_carried folds first.
  [[nodiscard]] std::uint64_t bits_carried() const { return bits_carried_; }

 private:
  DataRate rate_;
  double pre_fec_ber_;
  LaneState state_ = LaneState::kOff;
  bool failed_ = false;
  bool training_begun_ = false;  // begin_training with no completion since
  std::uint64_t bits_carried_ = 0;

  friend class PhysicalPlant;  // folds accounted bits into bits_carried_
};

}  // namespace rsf::phy
