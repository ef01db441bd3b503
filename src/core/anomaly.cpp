#include "palu/core/anomaly.hpp"

#include "palu/common/error.hpp"
#include "palu/stats/distribution.hpp"

namespace palu::core {

void WindowAnomalyDetector::add_baseline(
    const stats::DegreeHistogram& window) {
  baseline_.merge(window);
}

AnomalyScore WindowAnomalyDetector::score(
    const stats::DegreeHistogram& window) const {
  if (baseline_.empty()) {
    throw DataError("WindowAnomalyDetector: no baseline accumulated");
  }
  AnomalyScore out;
  const auto ks = fit::ks_test_two_sample(baseline_, window);
  out.ks_statistic = ks.statistic;
  out.ks_p_value = ks.p_value;
  out.flagged = ks.p_value < opts_.p_threshold;

  // Baseline fit: cache while the baseline is unchanged.
  if (!baseline_fit_ || baseline_total_at_fit_ != baseline_.total()) {
    try {
      baseline_fit_ = fit_palu(baseline_);
      baseline_total_at_fit_ = baseline_.total();
    } catch (const DataError&) {
      baseline_fit_.reset();
    }
  }
  if (baseline_fit_) {
    out.mu_baseline =
        baseline_fit_->mu_identifiable ? baseline_fit_->mu : 0.0;
  }
  try {
    const auto window_fit = fit_palu(window);
    out.mu_window = window_fit.mu_identifiable ? window_fit.mu : 0.0;
  } catch (const DataError&) {
    out.mu_window = 0.0;
  }
  out.d1_baseline = stats::EmpiricalDistribution::from_histogram(baseline_)
                        .mass_at_one();
  out.d1_window =
      stats::EmpiricalDistribution::from_histogram(window).mass_at_one();
  return out;
}

}  // namespace palu::core
