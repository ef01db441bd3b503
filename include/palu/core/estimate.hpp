// The Section IV-B parameter-estimation pipeline and the estimator that
// serves it.
//
// Given an observed degree distribution, recover the simplified PALU
// constants.  fit_palu is the paper's staged moment recipe:
//
//  (a) Fit α to the tail (d >= tail_min, default 10) by the discrete
//      power-law MLE (Clauset–Shalizi–Newman), and c by tail-mass
//      matching c·ζ(α, tail_min) = P[d >= tail_min].  The paper writes
//      this step as Eq. (4)'s weighted log-log regression (slope −α,
//      intercept log c); singleton counts at large d flatten that
//      regression but leave the MLE unbiased, so the regression runs only
//      for its r² diagnostic (EXPERIMENTS.md, deviation 2).
//  (b) Form the excess e(d) = share(d) − c·d^{−α} for 2 <= d <= 64,
//      dropping negative e(d), and take the moment ratio
//      R = Σ d·e(d) / Σ e(d).  Under the model the excess is a Poisson
//      bump u·μ^d/d! with μ = λp, so R = g(μ) = μ + μ²/(e^μ − μ − 1);
//      invert g to recover μ.  (The paper labels the recovered parameter
//      Λ; in the generative model the moment ratio identifies μ = λp, with
//      Λ = e·μ.)  The cut at 64 keeps the sampling noise of the tiny
//      residuals at large d out of the first moment: a bump with
//      μ = λp ≤ 20 does not reach past it.  Below 1e-5 of excess mass, or
//      past μ = kMuCap, the bump is declared absent.  This moment-ratio
//      route is the paper's "substantially less variance" estimator; the
//      point-wise alternative is kept for the ablation bench.
//  (c) u = Σ e(d) / (e^μ − 1 − μ), then l from the degree-1 mass:
//      share(1) = c + l + u·μ·(e^μ + 1).
//
// When the recovered bump reaches past tail_min (support ~ μ + 4√μ), the
// (c, α) fit saw contaminated data, so (a)–(c) rerun from a tail start
// beyond it, at most twice.
//
// robust_fit_palu serves the profile-likelihood MLE of the same law
// (THEORY.md, "Profile likelihood"): l absorbs the d = 1 cell, d >= 2 is a
// two-component mixture of d^{−α}/(ζ(α)−1) and (μ^d/d!)/(e^μ−1−μ) whose
// weight solves a concave 1-D problem, and (α, μ) come from a coarse grid
// polished by Nelder–Mead.  fit_palu is one of its candidate starts and
// the answer when it fails.
#pragma once

#include <cstddef>
#include <string>

#include "palu/common/types.hpp"
#include "palu/core/theory.hpp"
#include "palu/fit/robust.hpp"
#include "palu/stats/distribution.hpp"
#include "palu/stats/histogram.hpp"

namespace palu::core {

/// The largest μ either estimator reports: λ ≤ 20 and p ≤ 1 bound the
/// true μ = λp by 20, so anything past 25 is noise masquerading as a bump.
inline constexpr double kMuCap = 25.0;

struct PaluFitOptions {
  Degree tail_min = 10;  ///< Eq. (4) applies from here up
};

struct PaluFit {
  double alpha = 0.0;  ///< core exponent
  double c = 0.0;      ///< core amplitude
  double mu = 0.0;     ///< μ = λp recovered from the moment ratio
  double u = 0.0;      ///< star-hub amplitude U·e^{−λp}/V
  double l = 0.0;      ///< leaf share L·p/V

  /// The paper's Λ = e·λ·p.
  double lambda_cap() const;

  // Diagnostics of the staged pipeline.  An `mle` fit carries those of
  // the fit_palu run beside it (zero when that run failed); only
  // mu_identifiable is the profile fit's own.
  double tail_r_squared = 0.0;   ///< goodness of the step-(a) regression
  double excess_mass = 0.0;      ///< Σ e(d) used in (b)/(c)
  double moment_ratio = 0.0;     ///< R fed into g^{-1}
  std::size_t tail_points = 0;   ///< support points in the (a) regression
  /// false when R <= 2 forced μ = 0 (moments), or when the profile fit
  /// found no star bump (μ = u = 0) or put μ on a search bound.
  bool mu_identifiable = true;

  /// Model prediction share(d) implied by the fit (Poisson star bump).
  double predicted_share(Degree d) const;

  /// The star contribution to share(1): u·μ·(e^μ + 1).
  double predicted_star_degree_one() const;
};

/// Runs (a)–(c) on an observed degree histogram.  Throws palu::DataError
/// when the tail has too few support points to fit.
PaluFit fit_palu(const stats::DegreeHistogram& h,
                 const PaluFitOptions& opts = {});

/// A PaluFit tagged with the estimator that produced it (see
/// fit::RobustStage).
struct RobustPaluFit {
  PaluFit fit;
  fit::RobustStage stage = fit::RobustStage::kFailed;
  std::string error;  ///< why both estimators failed, when stage == kFailed

  bool ok() const noexcept { return stage != fit::RobustStage::kFailed; }
};

/// The served PALU estimator.  Fits the profile-likelihood MLE (kMle) and
/// falls back to the staged moment pipeline (kMoments, retried with
/// relaxed tail starts on thin data) when the profile fit fails: fewer
/// than 5 occupied cells at d >= 2, no degree-1 mass, no (α, μ) that
/// keeps l >= 0, or an injected `fit.palu_mle` fault.  Degrees above
/// `refine_max` (at least 8) form one pooled cell, so the fit's cost does
/// not grow with d_max.  μ is searched in [0.05, kMuCap] and α in
/// [1.01, 30].  Never throws for bad data — a window neither estimator
/// can fit comes back with stage == kFailed and the reason in `error`, so
/// a multi-window sweep keeps its remaining windows.
RobustPaluFit robust_fit_palu(
    const stats::DegreeHistogram& h, const PaluFitOptions& fit_opts = {},
    const fit::RobustFitOptions& robust_opts = {},
    Degree refine_max = 256);

/// Streaming variant: `warm` (the previous window's parameters) joins the
/// grid optimum and the moment fit as one more candidate start of the
/// polish.  The grid still runs, so a regime shift cannot trap the fit in
/// the previous window's basin.  A pure function of its arguments, like
/// robust_fit_palu.
RobustPaluFit robust_fit_palu_warm(
    const stats::DegreeHistogram& h, const PaluFit& warm,
    const PaluFitOptions& fit_opts = {},
    const fit::RobustFitOptions& robust_opts = {},
    Degree refine_max = 256);

/// The profile log-likelihood the served fit maximizes: the d >= 2 cells
/// (those above `refine_max` pooled) under the two-component mixture at
/// (α, μ), maximized over the weight subject to l >= 0; μ = 0 means the
/// zeta component alone.  In nats, summed over observations; −inf where
/// no weight keeps l >= 0.  Throws palu::InvalidArgument for α <= 1 or
/// μ < 0.
double palu_profile_log_likelihood(const stats::EmpiricalDistribution& dist,
                                   double alpha, double mu,
                                   Degree refine_max = 256);

/// Ablation twin of step (b): estimates μ by point-wise matching of
/// consecutive excess ratios e(d+1)/e(d) = μ/(d+1), 2 <= d < 64, instead
/// of the moment ratio — the higher-variance route the paper advises
/// against.  Returns the count-weighted median of the point-wise
/// estimates.
double estimate_mu_pointwise(const stats::EmpiricalDistribution& dist,
                             double c, double alpha);

}  // namespace palu::core
