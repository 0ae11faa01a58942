#include "phy/fec.hpp"

#include <algorithm>
#include <cmath>

namespace rsf::phy {

using rsf::sim::SimTime;

std::string_view to_string(FecScheme s) {
  switch (s) {
    case FecScheme::kNone:
      return "none";
    case FecScheme::kFireCode:
      return "fire-code";
    case FecScheme::kRsKr4:
      return "rs-kr4";
    case FecScheme::kRsKp4:
      return "rs-kp4";
  }
  return "?";
}

FecSpec FecSpec::of(FecScheme s) {
  switch (s) {
    case FecScheme::kNone:
      return FecSpec{s, 0.0, SimTime::zero(), 0, 0, 0, 0};
    case FecScheme::kFireCode:
      // Clause 74 FEC(2112,2080): ~1.5% overhead, very low latency.
      // Correction power approximated as a 1-symbol-correcting code
      // over 32-bit blocks (it corrects a single burst <= 11 bits).
      return FecSpec{s, 32.0 / 2112.0, SimTime::nanoseconds(80), 32, 66, 65, 1};
    case FecScheme::kRsKr4:
      // RS(528,514) over 10-bit symbols, corrects t=7 symbols.
      return FecSpec{s, 14.0 / 528.0, SimTime::nanoseconds(120), 10, 528, 514, 7};
    case FecScheme::kRsKp4:
      // RS(544,514) over 10-bit symbols, corrects t=15 symbols.
      return FecSpec{s, 30.0 / 544.0, SimTime::nanoseconds(250), 10, 544, 514, 15};
  }
  return FecSpec{};
}

namespace {

/// log Gamma(x) via the reentrant lgamma_r: std::lgamma writes the
/// global signgam, a data race when sweep arms run on several threads.
double log_gamma(double x) {
  int sign = 0;
  return ::lgamma_r(x, &sign);
}

/// log of the binomial coefficient C(n, k).
double log_choose(int n, int k) {
  return log_gamma(n + 1.0) - log_gamma(k + 1.0) - log_gamma(n - k + 1.0);
}

/// P(X > t) for X ~ Binomial(n, p), computed as 1 - sum_{j<=t} pmf(j)
/// with pmf evaluated in log space for numerical stability at tiny p.
double binomial_tail_above(int n, int t, double p) {
  if (p <= 0.0) return 0.0;
  if (p >= 1.0) return t >= n ? 0.0 : 1.0;
  const double log_p = std::log(p);
  const double log_q = std::log1p(-p);
  double below = 0.0;
  for (int j = 0; j <= t; ++j) {
    const double log_pmf = log_choose(n, j) + j * log_p + (n - j) * log_q;
    below += std::exp(log_pmf);
  }
  // Tiny tails: 1 - below loses precision below ~1e-16; compute the
  // dominant term of the tail directly instead.
  const double tail = 1.0 - below;
  if (tail > 1e-12) return std::clamp(tail, 0.0, 1.0);
  const int j = t + 1;
  if (j > n) return 0.0;
  const double log_lead = log_choose(n, j) + j * log_p + (n - j) * log_q;
  return std::clamp(std::exp(log_lead), 0.0, 1.0);
}

}  // namespace

double FecSpec::codeword_error_prob(double ber) const {
  ber = std::clamp(ber, 0.0, 1.0);
  if (n == 0) {
    // Uncoded: treat a "codeword" as a single bit.
    return ber;
  }
  // Symbol error rate from bit error rate.
  const double p_sym = 1.0 - std::pow(1.0 - ber, symbol_bits);
  return binomial_tail_above(n, t, p_sym);
}

double FecSpec::frame_loss_prob(double ber, DataSize frame) const {
  return frame_loss_prob_from_cw_err(codeword_error_prob(ber), frame);
}

double FecSpec::frame_loss_prob_from_cw_err(double cw_err, DataSize frame) const {
  if (frame.bit_count() <= 0) return 0.0;
  if (n == 0) {
    // Any bit error kills the frame (FCS check). Uncoded, cw_err is the
    // clamped BER.
    const double bits = static_cast<double>(frame.bit_count());
    // 1-(1-ber)^bits, stable for tiny ber via expm1.
    return std::clamp(-std::expm1(bits * std::log1p(-cw_err)), 0.0, 1.0);
  }
  const double payload_bits_per_cw = static_cast<double>(k * symbol_bits);
  const double codewords = std::ceil(static_cast<double>(frame.bit_count()) / payload_bits_per_cw);
  if (cw_err <= 0.0) return 0.0;
  return std::clamp(-std::expm1(codewords * std::log1p(-cw_err)), 0.0, 1.0);
}

double FecSpec::post_fec_ber(double ber) const {
  ber = std::clamp(ber, 0.0, 1.0);
  if (n == 0) return ber;
  const double cw_err = codeword_error_prob(ber);
  // When a codeword fails, roughly t+1 symbol errors leak; spread over
  // the k-symbol payload that is (t+1)*symbol_bits/2 bit errors per
  // k*symbol_bits payload bits (half the bits in a bad symbol flip).
  const double bits_leaked = (t + 1.0) * symbol_bits * 0.5;
  const double payload_bits = static_cast<double>(k) * symbol_bits;
  return std::clamp(cw_err * bits_leaked / payload_bits, 0.0, 1.0);
}

}  // namespace rsf::phy
