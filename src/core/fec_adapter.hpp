// rsf::core — adaptive FEC policy (PLP #4 driver).
//
// Chooses, per link and per control epoch, the lightest FEC mode that
// meets a frame-loss target at the link's observed pre-FEC BER.
// Light FEC = less rate overhead and less codec latency, so the
// adapter rides as light as the error environment allows and deepens
// protection when lanes degrade. Hysteresis: escalation is immediate
// (loss is visible damage), de-escalation requires the lighter mode to
// hold the target with kRelaxMargin to spare, so the adapter cannot
// flap between modes at a noisy BER boundary.
#pragma once

#include <optional>

#include "core/observations.hpp"
#include "phy/fec.hpp"
#include "phy/units.hpp"
#include "plp/engine.hpp"

namespace rsf::core {

class FecAdapter {
 public:
  /// Maximum acceptable loss probability for phy::kReferenceFrame.
  static constexpr double kTargetFrameLoss = 1e-9;
  /// De-escalation requires the lighter mode to beat the target by
  /// this factor (loss <= kTargetFrameLoss * kRelaxMargin).
  static constexpr double kRelaxMargin = 1e-2;

  FecAdapter(plp::PlpEngine* engine, phy::PhysicalPlant* plant);

  /// The mode the policy wants for a link at bit-error-rate `ber`,
  /// given it currently runs `current`. A pure function, exposed for
  /// tests and for the bench's static-vs-adaptive sweep.
  [[nodiscard]] phy::FecScheme choose(double ber, phy::FecScheme current) const;

  /// Inspect a snapshot and submit SetFec commands where the policy
  /// disagrees with the installed mode. Returns number of changes
  /// submitted.
  int apply(const RackSnapshot& snapshot);

  [[nodiscard]] std::uint64_t changes_submitted() const { return changes_; }

 private:
  plp::PlpEngine* engine_;
  phy::PhysicalPlant* plant_;
  std::uint64_t changes_ = 0;
};

}  // namespace rsf::core
