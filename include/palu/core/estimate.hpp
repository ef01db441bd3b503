// The Section IV-B parameter-estimation pipeline and the estimator that
// serves it.
//
// Given an observed degree distribution, recover the simplified PALU
// constants.  fit_palu is the paper's staged moment recipe:
//
//  (a) Fit c and α to the tail (d >= tail_min, default 10) of the degree
//      distribution by weighted log-log linear regression (Eq. 4: slope
//      −α, intercept log c).
//  (b) Form the excess e(d) = share(d) − c·d^{−α} for 2 <= d < tail_min,
//      and take the moment ratio R = Σ d·e(d) / Σ e(d).  Under the model
//      the excess is a Poisson bump u·μ^d/d! with μ = λp, so
//      R = g(μ) = μ + μ²/(e^μ − μ − 1); invert g to recover μ.  (The paper
//      labels the recovered parameter Λ; in the generative model the
//      moment ratio identifies μ = λp, with Λ = e·μ.)  This moment-ratio
//      route is the paper's "substantially less variance" estimator; the
//      point-wise alternative is provided for the ablation bench.
//  (c) u = Σ e(d) / (e^μ − 1 − μ), then l from the degree-1 mass:
//      share(1) = c + l + u·μ·(e^μ + 1).
//
// robust_fit_palu serves the profile-likelihood MLE of the same law
// (THEORY.md, "Profile likelihood"): l absorbs the d = 1 cell, d >= 2 is a
// two-component mixture of d^{−α}/(ζ(α)−1) and (μ^d/d!)/(e^μ−1−μ) whose
// weight solves a concave 1-D problem, and (α, μ) come from a coarse grid
// polished by Nelder–Mead.  fit_palu is one of its candidate starts and
// the answer when it fails.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "palu/common/types.hpp"
#include "palu/core/theory.hpp"
#include "palu/fit/bootstrap.hpp"
#include "palu/fit/robust.hpp"
#include "palu/stats/distribution.hpp"
#include "palu/stats/histogram.hpp"

namespace palu::core {

/// How step (a) extracts (c, α) from the tail.
enum class TailMethod {
  /// Discrete MLE for α on the tail (Clauset–Shalizi–Newman) plus c from
  /// tail-mass matching c·ζ(α, tail_min) = P[d >= tail_min].  Lower
  /// variance than the paper's regression: singleton counts at large d
  /// flatten a log-log regression but leave the MLE unbiased.  Default.
  kMleTailMass,
  /// The paper's literal recipe: weighted log-log linear regression with
  /// slope −α and intercept log c.  Kept for the fidelity ablation.
  kRegression,
};

struct PaluFitOptions {
  Degree tail_min = 10;       ///< Eq. (4) applies from here up
  TailMethod tail_method = TailMethod::kMleTailMass;
  bool weight_by_count = true;  ///< weight regression points by n(d)
  bool clip_negative_excess = true;  ///< drop e(d) < 0 in step (b)
  /// Upper degree bound for the excess sums.  The paper writes Σ_{d≥2},
  /// but with finite data the tiny residuals at large d are pure sampling
  /// noise that overwhelms the first moment, so the sum is restricted to
  /// the region where a Poisson bump (μ = λp ≤ 20) can actually live.
  Degree excess_max = 64;
  /// Below this excess mass the bump is treated as absent (μ, u = 0).
  double min_excess_mass = 1e-5;
  /// Moment ratios implying μ beyond this are declared unidentifiable:
  /// λ ≤ 20 and p ≤ 1 bound the true μ = λp by 20, so anything past 25 is
  /// noise masquerading as a bump.
  double mu_cap = 25.0;
  /// When the recovered μ implies the Poisson bump reaches past tail_min
  /// (bump support ~ μ + 4√μ), refit with the tail start pushed beyond it.
  /// Without this, a large-μ bump contaminates the (c, α) tail fit and
  /// biases every downstream constant.
  bool adaptive_tail = true;
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

/// Runs (a)–(c) on an observed degree distribution.  Throws
/// palu::DataError when the tail has too few support points to regress.
PaluFit fit_palu(const stats::EmpiricalDistribution& dist,
                 const PaluFitOptions& opts = {});

/// Convenience overload from a histogram.
PaluFit fit_palu(const stats::DegreeHistogram& h,
                 const PaluFitOptions& opts = {});

/// Bootstrap confidence intervals for the five fitted constants
/// (α, c, μ, u, l in that order), from a single resampling pass.
struct PaluFitCi {
  fit::BootstrapResult alpha, c, mu, u, l;
};
PaluFitCi bootstrap_palu_fit(const stats::DegreeHistogram& h, Rng& rng,
                             ThreadPool& pool,
                             const fit::BootstrapOptions& boot_opts = {},
                             const PaluFitOptions& fit_opts = {});

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
/// not grow with d_max.  μ is searched in [0.05, fit_opts.mu_cap] and α
/// in [1.01, 30].  Never throws for bad data — a window neither estimator
/// can fit comes back with stage == kFailed and the reason in `error`, so
/// a multi-window sweep keeps its remaining windows.
RobustPaluFit robust_fit_palu(
    const stats::EmpiricalDistribution& dist,
    const PaluFitOptions& fit_opts = {},
    const fit::RobustFitOptions& robust_opts = {},
    Degree refine_max = 256);

/// Convenience overload from a histogram.
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
    const stats::EmpiricalDistribution& dist, const PaluFit& warm,
    const PaluFitOptions& fit_opts = {},
    const fit::RobustFitOptions& robust_opts = {},
    Degree refine_max = 256);

/// Convenience overload from a histogram.
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
/// consecutive excess ratios e(d+1)/e(d) = μ/(d+1) instead of the moment
/// ratio — the higher-variance route the paper advises against.  Returns
/// the count-weighted median of the point-wise estimates.
double estimate_mu_pointwise(const stats::EmpiricalDistribution& dist,
                             double c, double alpha,
                             const PaluFitOptions& opts = {});

}  // namespace palu::core
