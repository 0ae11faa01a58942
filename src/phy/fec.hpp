// rsf::phy — forward error correction models (PLP #4, adaptive FEC).
//
// Each FEC mode is characterised by its rate overhead, added
// encode+decode latency, and a correction model from which post-FEC
// error rates are computed analytically. The Reed–Solomon modes use
// the exact binomial tail over symbol errors; the fire-code mode is
// approximated as a short RS code. Parameters follow the IEEE 802.3
// Clause 74 (BASE-R), Clause 91 (RS 528,514 "KR4") and RS(544,514)
// "KP4" codes, the modes real 25/50/100G lanes negotiate.
#pragma once

#include <array>
#include <string_view>

#include "phy/units.hpp"
#include "sim/time.hpp"

namespace rsf::phy {

enum class FecScheme {
  kNone = 0,   // no correction, no overhead
  kFireCode,   // BASE-R (Clause 74): light, low-latency
  kRsKr4,      // RS(528,514), 10-bit symbols, t=7
  kRsKp4,      // RS(544,514), 10-bit symbols, t=15: heavy, high-gain
};

inline constexpr std::array<FecScheme, 4> kAllFecSchemes = {
    FecScheme::kNone, FecScheme::kFireCode, FecScheme::kRsKr4, FecScheme::kRsKp4};

/// The frame the control loops observe a link through: the router's
/// unloaded-latency cost, the control ring's latency and loss
/// observations, and the FEC adapter's frame-loss target.
inline constexpr DataSize kReferenceFrame = DataSize::bytes(1024);

[[nodiscard]] std::string_view to_string(FecScheme s);

/// Static description of one FEC mode.
struct FecSpec {
  FecScheme scheme = FecScheme::kNone;
  /// Fraction of raw lane rate consumed by parity (0 => none).
  double overhead = 0.0;
  /// Added one-way latency (encoder + decoder pipeline).
  rsf::sim::SimTime latency = rsf::sim::SimTime::zero();
  /// Codeword length in symbols and correctable symbols. n == 0 means
  /// uncoded.
  int symbol_bits = 0;
  int n = 0;
  int k = 0;
  int t = 0;

  /// Spec for a scheme. Specs are value types; callers may tweak the
  /// fields (e.g. to model future codes) before installing on a link.
  [[nodiscard]] static FecSpec of(FecScheme s);

  /// Effective payload rate through this FEC at raw rate `raw`.
  [[nodiscard]] DataRate effective_rate(DataRate raw) const {
    return raw * (1.0 - overhead);
  }

  /// Probability an n-symbol codeword is uncorrectable at lane
  /// bit-error-rate `ber`.
  [[nodiscard]] double codeword_error_prob(double ber) const;

  /// Probability a frame of `frame` payload bits is delivered with an
  /// uncorrected error (and therefore dropped / retransmitted).
  [[nodiscard]] double frame_loss_prob(double ber, DataSize frame) const;
  /// The same, given `cw_err` = codeword_error_prob(ber): for a caller
  /// that keeps that BER-only part (a tail sum of lgamma terms) across
  /// frame sizes. Returns exactly what frame_loss_prob(ber, frame) does.
  [[nodiscard]] double frame_loss_prob_from_cw_err(double cw_err, DataSize frame) const;

  /// Residual bit error rate after correction; used for PLP per-lane
  /// statistics and CRC link-health pricing.
  [[nodiscard]] double post_fec_ber(double ber) const;
};

}  // namespace rsf::phy
