#include "core/fec_adapter.hpp"

#include <array>
#include <stdexcept>

namespace rsf::core {

namespace {
/// Candidate ladder, lightest first.
constexpr std::array<phy::FecScheme, 4> kLadder = {
    phy::FecScheme::kNone, phy::FecScheme::kFireCode, phy::FecScheme::kRsKr4,
    phy::FecScheme::kRsKp4};

int ladder_index(phy::FecScheme s) {
  for (std::size_t i = 0; i < kLadder.size(); ++i) {
    if (kLadder[i] == s) return static_cast<int>(i);
  }
  return 0;
}
}  // namespace

FecAdapter::FecAdapter(plp::PlpEngine* engine, phy::PhysicalPlant* plant)
    : engine_(engine), plant_(plant) {
  if (engine_ == nullptr || plant_ == nullptr) {
    throw std::invalid_argument("FecAdapter: null dependency");
  }
}

phy::FecScheme FecAdapter::choose(double ber, phy::FecScheme current) const {
  const int cur_idx = ladder_index(current);

  // Lightest mode meeting the plain target.
  int want = -1;
  for (std::size_t i = 0; i < kLadder.size(); ++i) {
    const auto spec = phy::FecSpec::of(kLadder[i]);
    if (spec.frame_loss_prob(ber, phy::kReferenceFrame) <= kTargetFrameLoss) {
      want = static_cast<int>(i);
      break;
    }
  }
  if (want < 0) return kLadder.back();  // nothing meets target: max protection
  if (want > cur_idx) return kLadder[static_cast<std::size_t>(want)];  // escalate now
  if (want < cur_idx) {
    // De-escalate only with margin to spare: the lightest mode below
    // the current one that beats the strict target. (Checking rungs
    // between `want` and `current` matters — the very lightest mode
    // may meet the plain target but sit inside the hysteresis band.)
    const double strict = kTargetFrameLoss * kRelaxMargin;
    for (int i = want; i < cur_idx; ++i) {
      const auto spec = phy::FecSpec::of(kLadder[static_cast<std::size_t>(i)]);
      if (spec.frame_loss_prob(ber, phy::kReferenceFrame) <= strict) {
        return kLadder[static_cast<std::size_t>(i)];
      }
    }
  }
  return current;
}

int FecAdapter::apply(const RackSnapshot& snapshot) {
  int submitted = 0;
  for (const LinkObservation& obs : snapshot.links) {
    if (!obs.ready || !plant_->has_link(obs.link)) continue;
    const phy::FecScheme current = plant_->link(obs.link).fec().scheme;
    const phy::FecScheme want = choose(obs.worst_pre_fec_ber, current);
    if (want != current && !plant_->link_busy(obs.link)) {
      engine_->submit(plp::SetFecCommand{obs.link, want});
      ++changes_;
      ++submitted;
    }
  }
  return submitted;
}

}  // namespace rsf::core
