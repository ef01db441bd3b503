// Discrete heavy-tail model zoo and model selection.
//
// The paper's conclusion asks whether "there is a better fitting model
// than the Zipf–Mandelbrot distribution" (Section VII).  This module makes
// that question answerable: a family of discrete candidate models over
// d = 1..dmax — pure zeta, modified Zipf–Mandelbrot, power law with
// exponential cutoff, discrete lognormal, geometric, and the paper's own
// simplified PALU law — each fit by maximum likelihood, compared by AIC
// and by Vuong's likelihood-ratio test (the comparison CSN recommend for
// empirical power laws).
#pragma once

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "palu/common/types.hpp"
#include "palu/stats/distribution.hpp"
#include "palu/stats/histogram.hpp"

namespace palu::fit {

/// A fitted discrete distribution on {1, ..., dmax}.
class DiscreteModel {
 public:
  virtual ~DiscreteModel() = default;

  virtual std::string_view family() const = 0;

  /// Fitted parameter values, for reporting.
  virtual std::vector<std::pair<std::string, double>> parameters()
      const = 0;

  /// Number of free parameters (for AIC).
  virtual std::size_t num_parameters() const = 0;

  /// log p(d); requires 1 <= d <= dmax of the fit.
  virtual double log_pmf(Degree d) const = 0;

  double pmf(Degree d) const;

  /// Total log-likelihood over a histogram.
  double log_likelihood(const stats::DegreeHistogram& h) const;

  /// Akaike information criterion: 2k − 2·logL.
  double aic(const stats::DegreeHistogram& h) const;

  /// Bayesian information criterion: k·ln n − 2·logL — the sample-size-
  /// aware penalty (AIC barely penalizes extra parameters at trunk-window
  /// sample sizes).
  double bic(const stats::DegreeHistogram& h) const;
};

/// MLE fit of one family to a histogram over d = 1..dmax (dmax defaults to
/// the histogram max).  Throws palu::DataError on empty data and
/// palu::ConvergenceError when the optimizer fails.  The families: zeta
/// p ∝ d^{-α}; Zipf–Mandelbrot p ∝ (d+δ)^{-α}; power law with cutoff
/// p ∝ d^{-α}·e^{-β d}; lognormal p ∝ exp(−(ln d − m)²/2s²)/d; geometric
/// p ∝ q^{d}; and the paper's own simplified law as a 4-parameter mixture
/// density w₁·1{d=1} (leaves + one-leaf hubs) + w₂·zeta(α) (core) +
/// w₃·Po(μ | d ≥ 2) (star hubs), which lets the zoo ask whether PALU
/// itself beats the empirical Zipf–Mandelbrot on streaming data.
std::unique_ptr<DiscreteModel> fit_zeta_model(
    const stats::DegreeHistogram& h, Degree dmax = 0);
std::unique_ptr<DiscreteModel> fit_zipf_mandelbrot_model(
    const stats::DegreeHistogram& h, Degree dmax = 0);
std::unique_ptr<DiscreteModel> fit_powerlaw_cutoff_model(
    const stats::DegreeHistogram& h, Degree dmax = 0);
std::unique_ptr<DiscreteModel> fit_lognormal_model(
    const stats::DegreeHistogram& h, Degree dmax = 0);
std::unique_ptr<DiscreteModel> fit_geometric_model(
    const stats::DegreeHistogram& h, Degree dmax = 0);
std::unique_ptr<DiscreteModel> fit_palu_mixture_model(
    const stats::DegreeHistogram& h, Degree dmax = 0);

/// One ranked entry of a model-zoo comparison.
struct ModelComparison {
  std::string family;
  std::vector<std::pair<std::string, double>> parameters;
  double log_likelihood = 0.0;
  double aic = 0.0;
  double delta_aic = 0.0;  // aic − best aic
  double bic = 0.0;
  double delta_bic = 0.0;  // bic − best bic
};

/// Fits every family above, in the order declared, and ranks them by AIC
/// (best first).
std::vector<ModelComparison> fit_all_models(
    const stats::DegreeHistogram& h, Degree dmax = 0);

/// Vuong's non-nested likelihood-ratio test between two fitted models.
/// Positive `statistic` favors `a`; |statistic| > ~2 is conventionally
/// significant.  `p_two_sided` is the normal-approximation p-value.
struct VuongResult {
  double statistic = 0.0;
  double p_two_sided = 1.0;
};
VuongResult vuong_test(const DiscreteModel& a, const DiscreteModel& b,
                       const stats::DegreeHistogram& h);

}  // namespace palu::fit
