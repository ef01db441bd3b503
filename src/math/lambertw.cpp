#include "palu/math/lambertw.hpp"

#include <cmath>

#include "palu/common/error.hpp"

namespace palu::math {
namespace {

// −1/e rounded to double (the true branch point is ~1.2e-17 above this).
constexpr double kBranchPoint = -0.36787944117144233;

// Starting value accurate to a few percent everywhere on [−1/e, ∞); Halley
// is cubically convergent, so two to four iterations reach ~1 ulp.
double initial_guess(double x) {
  if (x > 2.0) {
    // Asymptotic: W = L1 − L2 + L2/L1 + O((L2/L1)²), L1 = ln x, L2 = ln L1.
    const double l1 = std::log(x);
    const double l2 = std::log(l1);
    return l1 - l2 + l2 / l1;
  }
  if (x >= -0.30) {
    // Padé-flavoured start built from the Taylor series W = x − x² + …;
    // x/(1+x) matches both leading terms and stays in (−1, ∞).
    return x / (1.0 + x);
  }
  // Branch-point series in p = √(2(e·x + 1)):
  //   W = −1 + p − p²/3 + 11p³/72 − 43p⁴/540 + O(p⁵).
  constexpr double kE = 2.718281828459045235;
  const double z = std::fma(kE, x, 1.0);
  const double p = std::sqrt(std::max(0.0, 2.0 * z));
  return -1.0 +
         p * (1.0 + p * (-1.0 / 3.0 + p * (11.0 / 72.0 - p * 43.0 / 540.0)));
}

}  // namespace

double lambert_w0(double x) {
  if (std::isnan(x)) return x;
  if (x < kBranchPoint) {
    // Allow rounding noise around the branch point itself (|slack| a few
    // ulp); true out-of-domain arguments are a caller error.
    PALU_CHECK(x >= kBranchPoint - 4e-16,
               "lambert_w0: requires x >= -1/e (real branch)");
    return -1.0;
  }
  if (x == 0.0) return x;  // preserves ±0
  if (std::isinf(x)) return x;

  double w = initial_guess(x);
  // Near the branch point the Halley denominator e^w(w+1) − … vanishes;
  // the quartic branch-point series above is already ~p⁵ ≈ 1e-15 accurate
  // there, so return it directly.
  if (w + 1.0 < 1e-3) return w;

  // The guesses above are within a few percent everywhere on the branch and
  // Halley is cubically convergent, so eight iterations are far more than
  // full double precision; the early-out catches the usual 3-4 step
  // convergence (a pure |Δ| threshold can limit-cycle on the last bit).
  for (int iter = 0; iter < 8; ++iter) {
    const double ew = std::exp(w);
    const double f = w * ew - x;
    // Halley: w ← w − f / (e^w(w+1) − (w+2)f / (2w+2)).
    const double denom = ew * (w + 1.0) - (w + 2.0) * f / (2.0 * w + 2.0);
    const double next = w - f / denom;
    if (!std::isfinite(next)) break;
    const double step = std::abs(next - w);
    w = next;
    if (step <= 1e-12 * (1.0 + std::abs(next))) break;  // next pass is ≤ ulp
  }
  return w;
}

}  // namespace palu::math
