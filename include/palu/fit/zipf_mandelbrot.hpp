// The modified Zipf–Mandelbrot model of Section II-B and its fitter.
//
// Unlike the linguistic ZM law (where d is a rank), the paper re-reads d as
// a measured network quantity and normalizes over d = 1..dmax:
//
//     p(d; α, δ) = (d + δ)^{-α} / Σ_{d'=1}^{dmax} (d' + δ)^{-α}
//
// The offset δ controls the small-d behaviour (most importantly d = 1,
// the highest-probability value in streaming data) while α controls the
// tail.  Fitting minimizes the difference between pooled differential
// cumulative distributions D(d_i) (Section II-B, Fig 3).
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "palu/common/types.hpp"
#include "palu/rng/distributions.hpp"
#include "palu/stats/histogram.hpp"
#include "palu/stats/log_binning.hpp"

namespace palu::fit {

class ZipfMandelbrot {
 public:
  /// Requires alpha > 0, delta > -1, dmax >= 1.
  ZipfMandelbrot(double alpha, double delta, Degree dmax);

  double alpha() const noexcept { return alpha_; }
  double delta() const noexcept { return delta_; }
  Degree dmax() const noexcept { return dmax_; }

  /// Unnormalized ρ(d) = (d + δ)^{-α}.
  double unnormalized(double d) const;

  /// Gradient ∂ρ/∂δ = −α·ρ(d; α+1, δ) (as derived in the paper).
  double unnormalized_delta_gradient(double d) const;

  /// Normalized pmf p(d); requires 1 <= d <= dmax.
  double pmf(Degree d) const;

  /// Cumulative P(d) = Σ_{d'<=d} p(d'); clamps d to [1, dmax].
  double cdf(Degree d) const;

  /// Pooled differential cumulative D(d_i) = cdf(d_i) − cdf(d_{i−1}) for
  /// bins i = 0..bin(dmax), with the same bits as those cdf() calls.  One
  /// math::shifted_zeta_prefixes pass yields the partial sum at every bin
  /// edge: each degree is summed once, up to dmax or, for larger dmax, up
  /// to the last edge before the Euler–Maclaurin crossover (about
  /// 4096 + 48 − δ), not once per bin.
  stats::LogBinned pooled() const;

  /// O(1)-per-draw sampler over the model's support (alias method built
  /// once from the pmf; construction is O(dmax)).
  rng::AliasSampler sampler() const;

 private:
  double alpha_;
  double delta_;
  Degree dmax_;
  double normalizer_;
};

struct ZmFitOptions {
  double alpha_init = 2.0;
  double delta_init = 0.5;
  /// Optional per-bin σ weights (weight = 1/max(σ, floor)); empty = equal.
  std::vector<double> bin_sigma;
  double sigma_floor = 1e-6;
};

struct ZmFitResult {
  double alpha = 0.0;
  double delta = 0.0;
  Degree dmax = 1;
  double objective = 0.0;  // weighted SSE over pooled bins
  bool converged = false;
};

/// Fits (α, δ) so the model's pooled D(d_i) matches `target` in weighted
/// least squares, exactly the paper's "minimizing the differences between
/// the observed differential cumulative distributions".  `dmax` fixes the
/// model support (use the measured d_max, Eq. 1).
ZmFitResult fit_zipf_mandelbrot(const stats::LogBinned& target, Degree dmax,
                                const ZmFitOptions& opts = {});

/// Maximum-likelihood (α, δ) with observed-information standard errors.
struct ZmMleResult {
  double alpha = 0.0;
  double delta = 0.0;
  double alpha_stderr = 0.0;
  double delta_stderr = 0.0;
  double log_likelihood = 0.0;
  Degree dmax = 1;
};

/// MLE over the un-pooled histogram (each observation contributes
/// log p(d; α, δ)).  Standard errors come from inverting the numeric
/// observed-information matrix; they are 0 when the Hessian is not
/// positive definite at the optimum (boundary solutions like δ → −1).
/// `dmax` = 0 uses the histogram maximum.
ZmMleResult fit_zipf_mandelbrot_mle(const stats::DegreeHistogram& h,
                                    Degree dmax = 0);

}  // namespace palu::fit
