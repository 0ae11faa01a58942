#include "phy/lane.hpp"

#include <stdexcept>
#include <utility>

namespace rsf::phy {

std::string_view to_string(LaneState s) {
  switch (s) {
    case LaneState::kOff:
      return "off";
    case LaneState::kTraining:
      return "training";
    case LaneState::kUp:
      return "up";
  }
  return "?";
}

void Lane::begin_training() {
  training_begun_ = true;
  if (failed_) return;  // the PHY retrains in vain; the lane stays dark
  // Training can be (re)entered from any state: power-on (off->training)
  // or retrain after a re-bundle (up->training).
  state_ = LaneState::kTraining;
}

void Lane::complete_training() {
  const bool begun = std::exchange(training_begun_, false);
  if (failed_) return;
  if (state_ == LaneState::kTraining) {
    state_ = LaneState::kUp;
  } else if (!begun) {
    throw std::logic_error("Lane::complete_training: lane not training");
  }
  // Otherwise a failure (repaired since) or a power-off cut the
  // training: the lane stays dark until it is retrained.
}

void Lane::power_off() {
  if (!failed_) state_ = LaneState::kOff;
}

void Lane::fail() {
  failed_ = true;
  state_ = LaneState::kOff;
}

void Lane::repair() { failed_ = false; }

}  // namespace rsf::phy
