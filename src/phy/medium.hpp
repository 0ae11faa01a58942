// rsf::phy — transmission media.
//
// The architecture is media-agnostic (paper §2): the fabric only asks a
// medium for its propagation velocity. Which Physical Layer Primitives
// a rack supports comes from RackParams::plp_caps, not from the medium.
// Optical and electrical media are both modelled (wavelength-style and
// copper lane bundling behave identically at this level).
#pragma once

#include <string_view>

#include "sim/time.hpp"

namespace rsf::phy {

enum class Medium {
  kFiber,          // single-mode fibre, ~5 ns/m (group index ~1.5)
  kCopper,         // twinax / backplane, ~4.3 ns/m
  kFreeSpaceOptic  // ProjecToR-style free-space links, ~3.34 ns/m
};

[[nodiscard]] std::string_view to_string(Medium m);

/// One-way propagation delay per metre of the medium.
[[nodiscard]] rsf::sim::SimTime propagation_per_meter(Medium m);

/// One-way propagation delay over `meters` of the medium.
[[nodiscard]] rsf::sim::SimTime propagation_delay(Medium m, double meters);

}  // namespace rsf::phy
