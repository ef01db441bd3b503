#include "palu/fit/robust.hpp"

namespace palu::fit {

std::string_view to_string(RobustStage stage) noexcept {
  switch (stage) {
    case RobustStage::kLevMar: return "levmar";
    case RobustStage::kNelderMead: return "nelder-mead";
    case RobustStage::kMoments: return "moments";
    case RobustStage::kFailed: return "failed";
    case RobustStage::kMle: return "mle";
  }
  return "unknown";
}

}  // namespace palu::fit
