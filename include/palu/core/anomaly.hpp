// Traffic anomaly scoring on PALU statistics.
//
// The paper's motivation is operational: "the rising influence of
// adversarial Internet robots" shows up as excess leaves and unattached
// links.  This detector packages the library's pieces into one scoring
// call: a calm baseline is accumulated from windows, and each incoming
// window is scored by (a) the two-sample KS p-value against the baseline
// degree law, (b) the shift of the star-bump parameter μ, and (c) the
// shift of the degree-1 mass — the PALU-specific bot signatures.
#pragma once

#include <optional>

#include "palu/core/estimate.hpp"
#include "palu/fit/ks_test.hpp"
#include "palu/stats/histogram.hpp"

namespace palu::core {

struct AnomalyScore {
  double ks_statistic = 0.0;
  double ks_p_value = 1.0;
  double mu_baseline = 0.0;
  double mu_window = 0.0;      // 0 when unidentifiable in the window
  double d1_baseline = 0.0;    // degree-1 mass of the baseline
  double d1_window = 0.0;
  bool flagged = false;        // ks_p below threshold
};

struct AnomalyOptions {
  double p_threshold = 1e-4;   // KS p-value below this flags the window
};

class WindowAnomalyDetector {
 public:
  explicit WindowAnomalyDetector(AnomalyOptions opts = {})
      : opts_(opts) {}

  /// Folds a calm window into the baseline.  Baseline windows should
  /// precede any score() calls; later additions extend the baseline.
  void add_baseline(const stats::DegreeHistogram& window);

  bool has_baseline() const noexcept { return !baseline_.empty(); }

  /// Scores one window against the accumulated baseline.  Throws
  /// palu::DataError when no baseline has been added.
  AnomalyScore score(const stats::DegreeHistogram& window) const;

  const stats::DegreeHistogram& baseline() const noexcept {
    return baseline_;
  }

 private:
  AnomalyOptions opts_;
  stats::DegreeHistogram baseline_;
  // Lazily cached baseline fit (recomputed when the baseline grows).
  mutable std::optional<PaluFit> baseline_fit_;
  mutable Count baseline_total_at_fit_ = 0;
};

}  // namespace palu::core
