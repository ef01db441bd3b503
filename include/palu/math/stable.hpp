// Numerically stable scalar helpers used throughout the model code.
#pragma once

namespace palu::math {

/// (e^x − 1 − x) computed without catastrophic cancellation near 0
/// (series for |x| < 1; within a few ulp on [1e-8, 40], see
/// math_accuracy_test).  This is the denominator of the paper's Λ
/// moment-ratio (Section IV-B) and of the zero-truncated star component
/// in the profile-likelihood fit.
double expm1_minus_x(double x);

/// x·ln(y) with the convention 0·ln(0) = 0 (used in log-likelihoods).
double xlogy(double x, double y);

/// log(1 + x) − x, stable near 0 (series for |x| < 1e-4).
double log1p_minus_x(double x);

/// Σ of a and b in log space: log(e^a + e^b) without overflow.
double log_add_exp(double a, double b);

/// Relative difference |a−b| / max(|a|, |b|, tiny); 0 when both are 0.
double rel_diff(double a, double b);

}  // namespace palu::math
