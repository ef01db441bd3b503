// Provenance tags and metrics routing for the served PALU fit.
//
// core::robust_fit_palu serves one of two estimators on every window: the
// profile-likelihood fit (kMle) or, when that fails, the paper's staged
// moment recipe (kMoments).  A window neither can fit comes back kFailed
// with the reason, so a sweep keeps its remaining windows and a streaming
// lane keeps its previous parameters.  This header holds only the tag
// and the options every caller passes through; the estimators live in
// core/estimate.
#pragma once

#include <string_view>

namespace palu::obs {
class Registry;
}

namespace palu::fit {

/// Which estimator produced a served PALU fit.
enum class RobustStage {
  /// Retired Levenberg–Marquardt rung.  Nothing produces it any more;
  /// declared so that existing switch statements over the enum compile.
  kLevMar,
  /// Retired Nelder–Mead rung; likewise never produced.
  kNelderMead,
  kMoments,  ///< the staged moment pipeline (core::fit_palu) as-is
  kFailed,   ///< neither estimator could fit the window
  kMle,      ///< the profile-likelihood fit
};

/// "mle", "moments", "failed" (and "levmar", "nelder-mead" for the
/// retired tags): the tokens of serve lines, `[stage=…]` output,
/// checkpoints and the palu_fit_* metric labels.
std::string_view to_string(RobustStage stage) noexcept;

struct RobustFitOptions {
  /// Metrics sink for the palu_fit_* families (profile-fit attempts,
  /// successes and evaluation counts; served-stage outcomes); nullptr
  /// routes to obs::default_registry().
  obs::Registry* metrics = nullptr;
};

}  // namespace palu::fit
