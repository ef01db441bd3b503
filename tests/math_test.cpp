// Unit tests for palu/math: zeta family, gamma family, stable helpers, and
// the Λ moment-ratio function.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <numbers>

#include "palu/common/error.hpp"
#include "palu/math/gamma.hpp"
#include "palu/math/lambda_ratio.hpp"
#include "palu/math/lambertw.hpp"
#include "palu/math/stable.hpp"
#include "palu/math/zeta.hpp"

namespace palu::math {
namespace {

constexpr double kPi = std::numbers::pi;

TEST(RiemannZeta, KnownValues) {
  EXPECT_NEAR(riemann_zeta(2.0), kPi * kPi / 6.0, 1e-12);
  EXPECT_NEAR(riemann_zeta(4.0), std::pow(kPi, 4) / 90.0, 1e-12);
  EXPECT_NEAR(riemann_zeta(6.0), std::pow(kPi, 6) / 945.0, 1e-12);
  // Apéry's constant.
  EXPECT_NEAR(riemann_zeta(3.0), 1.2020569031595942854, 1e-12);
}

TEST(RiemannZeta, PaperParameterRange) {
  // Section IV: 1.202 <= ζ(α) <= 2.612 for α ∈ [1.5, 3].
  EXPECT_NEAR(riemann_zeta(1.5), 2.6123753486854883, 1e-10);
  EXPECT_NEAR(riemann_zeta(3.0), 1.2020569031595943, 1e-10);
  for (double a = 1.5; a <= 3.0; a += 0.1) {
    const double z = riemann_zeta(a);
    EXPECT_GE(z, 1.202);
    EXPECT_LE(z, 2.6124);
  }
}

TEST(RiemannZeta, MonotoneDecreasing) {
  double prev = riemann_zeta(1.05);
  for (double s = 1.1; s < 10.0; s += 0.05) {
    const double z = riemann_zeta(s);
    EXPECT_LT(z, prev) << "at s=" << s;
    prev = z;
  }
}

TEST(RiemannZeta, ApproachesOneForLargeS) {
  EXPECT_NEAR(riemann_zeta(30.0), 1.0 + std::pow(2.0, -30.0), 1e-12);
}

TEST(RiemannZeta, RejectsDomainErrors) {
  EXPECT_THROW(riemann_zeta(1.0), InvalidArgument);
  EXPECT_THROW(riemann_zeta(0.5), InvalidArgument);
}

TEST(HurwitzZeta, ReducesToRiemannAtQOne) {
  for (double s : {1.5, 2.0, 2.5, 3.0}) {
    EXPECT_NEAR(hurwitz_zeta(s, 1.0), riemann_zeta(s), 1e-12);
  }
}

TEST(HurwitzZeta, KnownHalfValue) {
  // ζ(2, 1/2) = π²/2.
  EXPECT_NEAR(hurwitz_zeta(2.0, 0.5), kPi * kPi / 2.0, 1e-11);
}

TEST(HurwitzZeta, RecurrenceRelation) {
  // ζ(s, q) = ζ(s, q+1) + q^{-s}.
  for (double s : {1.7, 2.3, 3.1}) {
    for (double q : {0.25, 1.0, 3.5, 40.0}) {
      EXPECT_NEAR(hurwitz_zeta(s, q),
                  hurwitz_zeta(s, q + 1.0) + std::pow(q, -s), 1e-12)
          << "s=" << s << " q=" << q;
    }
  }
}

TEST(HurwitzZeta, MatchesDirectSummation) {
  // Brute-force tail with enough terms for s comfortably > 1.
  const double s = 3.5, q = 2.75;
  double direct = 0.0;
  for (int n = 0; n < 200000; ++n) direct += std::pow(n + q, -s);
  EXPECT_NEAR(hurwitz_zeta(s, q), direct, 1e-10);
}

TEST(TruncatedZeta, SmallExactSums) {
  EXPECT_DOUBLE_EQ(truncated_zeta(2.0, 1), 1.0);
  EXPECT_NEAR(truncated_zeta(2.0, 2), 1.25, 1e-14);
  EXPECT_NEAR(truncated_zeta(2.0, 3), 1.25 + 1.0 / 9.0, 1e-14);
  EXPECT_NEAR(truncated_zeta(1.0, 4), 1.0 + 0.5 + 1.0 / 3.0 + 0.25, 1e-14);
}

TEST(TruncatedZeta, ConsistentWithZetaMinusTail) {
  for (double s : {1.6, 2.0, 2.8}) {
    for (std::uint64_t dmax : {10ull, 1000ull, 100000ull}) {
      const double expected =
          riemann_zeta(s) -
          hurwitz_zeta(s, static_cast<double>(dmax) + 1.0);
      EXPECT_NEAR(truncated_zeta(s, dmax), expected, 1e-11)
          << "s=" << s << " dmax=" << dmax;
    }
  }
}

TEST(TruncatedZeta, HarmonicNumbers) {
  // s = 1: H_n.
  double h = 0.0;
  for (int n = 1; n <= 10000; ++n) h += 1.0 / n;
  EXPECT_NEAR(truncated_zeta(1.0, 10000), h, 1e-10);
}

TEST(TruncatedZeta, SubOnePowerSums) {
  // s = 0.5 partial sum vs direct.
  double direct = 0.0;
  for (int n = 1; n <= 50000; ++n) direct += 1.0 / std::sqrt(n);
  EXPECT_NEAR(truncated_zeta(0.5, 50000), direct, 1e-8 * direct);
}

TEST(ShiftedTruncatedZeta, MatchesDirectLoop) {
  for (double s : {0.8, 1.0, 2.2}) {
    for (double q : {0.0, 0.37, 5.0}) {
      double direct = 0.0;
      for (int d = 1; d <= 3000; ++d) direct += std::pow(d + q, -s);
      EXPECT_NEAR(shifted_truncated_zeta(s, q, 3000), direct,
                  1e-10 * direct)
          << "s=" << s << " q=" << q;
    }
  }
}

TEST(ShiftedTruncatedZeta, ZeroOffsetEqualsTruncated) {
  EXPECT_NEAR(shifted_truncated_zeta(2.0, 0.0, 500),
              truncated_zeta(2.0, 500), 1e-13);
}

TEST(ZetaTail, ComplementsTruncated) {
  const double s = 2.4;
  EXPECT_NEAR(truncated_zeta(s, 99) + zeta_tail(s, 100), riemann_zeta(s),
              1e-12);
}

TEST(LogGamma, KnownValues) {
  EXPECT_NEAR(log_gamma(0.5), std::log(std::sqrt(kPi)), 1e-12);
  EXPECT_NEAR(log_gamma(1.0), 0.0, 1e-13);
  EXPECT_NEAR(log_gamma(2.0), 0.0, 1e-13);
  EXPECT_NEAR(log_gamma(5.0), std::log(24.0), 1e-12);
  EXPECT_NEAR(log_gamma(10.0), std::log(362880.0), 1e-11);
}

TEST(LogGamma, ReflectionBranch) {
  // x < 0.5 uses the reflection formula; Γ(1/4)Γ(3/4) = π/sin(π/4).
  EXPECT_NEAR(log_gamma(0.25) + log_gamma(0.75),
              std::log(kPi / std::sin(kPi / 4.0)), 1e-11);
}

TEST(LogGamma, RejectsNonPositive) {
  EXPECT_THROW(log_gamma(0.0), InvalidArgument);
  EXPECT_THROW(log_gamma(-1.5), InvalidArgument);
}

TEST(LogFactorial, MatchesCumulativeLogs) {
  double acc = 0.0;
  for (std::uint64_t n = 1; n <= 2000; ++n) {
    acc += std::log(static_cast<double>(n));
    EXPECT_NEAR(log_factorial(n), acc, 1e-9 * std::max(1.0, acc))
        << "n=" << n;
  }
  EXPECT_DOUBLE_EQ(log_factorial(0), 0.0);
}

TEST(LogBinomialCoefficient, ExactSmallValues) {
  EXPECT_NEAR(std::exp(log_binomial_coefficient(5, 2)), 10.0, 1e-10);
  EXPECT_NEAR(std::exp(log_binomial_coefficient(10, 5)), 252.0, 1e-9);
  EXPECT_NEAR(std::exp(log_binomial_coefficient(52, 5)), 2598960.0, 1e-3);
  EXPECT_THROW(log_binomial_coefficient(3, 4), InvalidArgument);
}

TEST(PoissonPmf, NormalizesAndHasCorrectMean) {
  for (double lambda : {0.3, 1.0, 4.5, 12.0}) {
    double total = 0.0, mean = 0.0;
    for (std::uint64_t k = 0; k < 200; ++k) {
      const double p = poisson_pmf(k, lambda);
      total += p;
      mean += static_cast<double>(k) * p;
    }
    EXPECT_NEAR(total, 1.0, 1e-12) << "lambda=" << lambda;
    EXPECT_NEAR(mean, lambda, 1e-10) << "lambda=" << lambda;
  }
}

TEST(PoissonPmf, ZeroLambdaIsPointMass) {
  EXPECT_DOUBLE_EQ(poisson_pmf(0, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(poisson_pmf(3, 0.0), 0.0);
}

TEST(BinomialPmf, NormalizesAndHasCorrectMean) {
  const std::uint64_t n = 40;
  for (double p : {0.05, 0.3, 0.77}) {
    double total = 0.0, mean = 0.0;
    for (std::uint64_t k = 0; k <= n; ++k) {
      const double w = binomial_pmf(k, n, p);
      total += w;
      mean += static_cast<double>(k) * w;
    }
    EXPECT_NEAR(total, 1.0, 1e-12);
    EXPECT_NEAR(mean, static_cast<double>(n) * p, 1e-10);
  }
}

TEST(BinomialPmf, DegenerateEdges) {
  EXPECT_DOUBLE_EQ(binomial_pmf(0, 10, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(binomial_pmf(10, 10, 1.0), 1.0);
  EXPECT_DOUBLE_EQ(binomial_pmf(3, 10, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(binomial_pmf(11, 10, 0.5), 0.0);
}

TEST(StableHelpers, Expm1MinusX) {
  EXPECT_NEAR(expm1_minus_x(1.0), std::exp(1.0) - 2.0, 1e-14);
  // Tiny x: series branch vs exact quadratic leading term.
  const double x = 1e-8;
  EXPECT_NEAR(expm1_minus_x(x), 0.5 * x * x, 1e-24);
  EXPECT_GT(expm1_minus_x(1e-6), 0.0);
  EXPECT_NEAR(expm1_minus_x(-0.5), std::exp(-0.5) - 0.5, 1e-14);
}

TEST(StableHelpers, XlogyConvention) {
  EXPECT_DOUBLE_EQ(xlogy(0.0, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(xlogy(2.0, std::exp(1.0)), 2.0);
}

TEST(StableHelpers, LogAddExp) {
  EXPECT_NEAR(log_add_exp(0.0, 0.0), std::log(2.0), 1e-14);
  EXPECT_NEAR(log_add_exp(1000.0, 1000.0), 1000.0 + std::log(2.0), 1e-10);
  EXPECT_NEAR(log_add_exp(-1000.0, 0.0), 0.0, 1e-12);
}

TEST(StableHelpers, RelDiff) {
  EXPECT_DOUBLE_EQ(rel_diff(0.0, 0.0), 0.0);
  EXPECT_NEAR(rel_diff(1.0, 1.1), 0.1 / 1.1, 1e-12);
  EXPECT_NEAR(rel_diff(-2.0, 2.0), 2.0, 1e-12);
}

TEST(LambdaMomentRatio, LimitAtZeroIsTwo) {
  EXPECT_NEAR(lambda_moment_ratio(0.0), 2.0, 1e-12);
  // Paper Taylor expansion: g(Λ) ≈ 2 + Λ/3 near 0.
  EXPECT_NEAR(lambda_moment_ratio(0.01), 2.0 + 0.01 / 3.0, 1e-5);
  EXPECT_NEAR(lambda_moment_ratio(0.001), 2.0 + 0.001 / 3.0, 1e-7);
}

TEST(LambdaMomentRatio, ClosedFormSpotCheck) {
  // g(1) = 1 + 1/(e − 2).
  EXPECT_NEAR(lambda_moment_ratio(1.0),
              1.0 + 1.0 / (std::exp(1.0) - 2.0), 1e-12);
}

TEST(LambdaMomentRatio, StrictlyIncreasing) {
  double prev = lambda_moment_ratio(0.0);
  for (double x = 0.05; x < 60.0; x += 0.05) {
    const double g = lambda_moment_ratio(x);
    EXPECT_GT(g, prev) << "x=" << x;
    prev = g;
  }
}

TEST(LambdaMomentRatio, AsymptoticallyLinear) {
  EXPECT_NEAR(lambda_moment_ratio(800.0), 800.0, 1e-9);
}

TEST(LambdaMomentRatio, DerivativeMatchesFiniteDifference) {
  for (double x : {0.05, 0.5, 2.0, 10.0, 35.0, 50.0}) {
    const double h = 1e-6 * std::max(1.0, x);
    const double fd =
        (lambda_moment_ratio(x + h) - lambda_moment_ratio(x - h)) /
        (2.0 * h);
    EXPECT_NEAR(lambda_moment_ratio_derivative(x), fd,
                1e-5 * std::max(1.0, std::abs(fd)))
        << "x=" << x;
  }
}

class LambdaInverseRoundTrip : public ::testing::TestWithParam<double> {};

TEST_P(LambdaInverseRoundTrip, InvertsExactly) {
  const double x = GetParam();
  const double r = lambda_moment_ratio(x);
  EXPECT_NEAR(invert_lambda_moment_ratio(r), x,
              1e-8 * std::max(1.0, x));
}

INSTANTIATE_TEST_SUITE_P(Sweep, LambdaInverseRoundTrip,
                         ::testing::Values(1e-6, 1e-3, 0.05, 0.2, 0.7, 1.0,
                                           2.0, 3.5, 5.0, 8.0, 13.0, 20.0,
                                           54.0, 120.0));

TEST(LambdaInverse, BoundaryAndErrors) {
  EXPECT_DOUBLE_EQ(invert_lambda_moment_ratio(2.0), 0.0);
  EXPECT_THROW(invert_lambda_moment_ratio(1.99), InvalidArgument);
}

TEST(LambdaInverse, ClampsRoundingNoiseBelowTwoToZero) {
  // Noisy empirical ratios from the excess-moment sums can land an exact
  // r = 2 a few ulps below it; that sliver is Λ = 0, not an error.
  EXPECT_DOUBLE_EQ(invert_lambda_moment_ratio(2.0 - 1e-10), 0.0);
  EXPECT_DOUBLE_EQ(invert_lambda_moment_ratio(
                       std::nextafter(2.0, 0.0)),
                   0.0);
  EXPECT_DOUBLE_EQ(invert_lambda_moment_ratio(2.0 - 1e-9), 0.0);
  // Anything past the documented slack is still a domain error.
  EXPECT_THROW(invert_lambda_moment_ratio(2.0 - 1.1e-9), InvalidArgument);
}

// ------------------------------------------------------------ Lambert W

TEST(LambertW, ReferenceValues) {
  // Pinned against a 60-digit Decimal Newton evaluation of w·e^w = x
  // (independent implementation, MAGPIE-style reference table).
  const struct {
    double x, w;
  } kRefs[] = {
      {1.0, 0.56714329040978387300},    // the omega constant
      {10.0, 1.74552800274069938307},
      {100.0, 3.38563014029005018489},
      {0.5, 0.35173371124919582602},
      {2.0, 0.85260550201372549135},
      {1e6, 11.38335808614005262200},
      {1e-3, 0.00099900149733853089},
      {700.0, 4.95140829490515652715},
      {-0.1, -0.11183255915896296483},
      {-0.2, -0.25917110181907374506},
      {-0.3, -0.48940222718021496904},
      {-0.35, -0.71663881645607385059},
  };
  for (const auto& ref : kRefs) {
    EXPECT_NEAR(lambert_w0(ref.x), ref.w,
                1e-14 * std::max(1.0, std::abs(ref.w)))
        << "x=" << ref.x;
  }
  EXPECT_DOUBLE_EQ(lambert_w0(0.0), 0.0);
  EXPECT_NEAR(lambert_w0(std::exp(1.0)), 1.0, 1e-14);
}

TEST(LambertW, DefiningIdentityAcrossTheDomain) {
  // w·e^w must reproduce x to a few ulps everywhere the real branch
  // exists, including the awkward stretch just above −1/e.
  for (double x = -0.367; x <= 0.5; x += 0.0031) {
    const double w = lambert_w0(x);
    EXPECT_NEAR(w * std::exp(w), x, 4e-15 * (1.0 + std::abs(x)))
        << "x=" << x;
  }
  for (double x = 1.0; x < 1e8; x *= 3.7) {
    const double w = lambert_w0(x);
    EXPECT_NEAR(w * std::exp(w), x, 1e-13 * x) << "x=" << x;
  }
}

TEST(LambertW, BranchPointAndDomainErrors) {
  // At the branch point itself W = −1; double(−1/e) sits a hair below the
  // exact −1/e (1.2e-17), and the rounded result lands within √ε of −1.
  const double w = lambert_w0(-std::exp(-1.0));
  EXPECT_GE(w, -1.0);
  EXPECT_LE(w, -0.99999997);
  EXPECT_THROW(lambert_w0(-0.368), InvalidArgument);
  EXPECT_THROW(lambert_w0(-1.0), InvalidArgument);
  EXPECT_TRUE(std::isnan(lambert_w0(
      std::numeric_limits<double>::quiet_NaN())));
}

// -------------------------------------------- derivative branch seams

TEST(LambdaMomentRatioDerivative, SeriesAccurateDeepInSmallLambda) {
  // Regression: the exact branch's two ~4/Λ terms cancel to O(1), so its
  // relative error grows like ε/Λ — about 1e-9 at Λ = 1e-6, where the
  // series/exact seam used to sit.  The extended series is exact there:
  // g'(1e-6) = 1/3 + 1e-6/9 + ... pinned to full double precision.
  const double l = 1e-6;
  const double series = 1.0 / 3.0 + l / 9.0 + l * l / 90.0;
  EXPECT_NEAR(lambda_moment_ratio_derivative(l), series, 1e-12 * series);
  EXPECT_NEAR(lambda_moment_ratio_derivative(0.0), 1.0 / 3.0, 1e-16);
}

TEST(LambdaMomentRatioDerivative, BranchSeamsAreContinuous) {
  // Compare at nextafter-adjacent points across each branch seam: the
  // function's own slope contributes ~1e-18 over one ulp, so any mismatch
  // beyond 1e-12 relative is branch drift, not curvature.  (Measuring at
  // seam·(1 ± 1e-9) instead would see g''·ΔΛ ≈ 2e-11 and mask the bug.)
  for (const double seam : {0.1, 40.0}) {
    const double below =
        lambda_moment_ratio_derivative(std::nextafter(seam, 0.0));
    const double at = lambda_moment_ratio_derivative(seam);
    EXPECT_NEAR(below, at, 1e-12 * std::abs(at)) << "seam=" << seam;
  }
}

// ------------------------------------------------- inverter round trip

TEST(LambdaInverse, DenseRoundTripToFullPrecision) {
  // Regression for the silent midpoint fallback: the inverter must now
  // recover Λ (and satisfy g(Λ̂) = r) to 1e-12 relative across the whole
  // operating range, Lambert-W seed included — a collapsed bracket can no
  // longer smuggle out an unverified midpoint.
  for (double x = 0.0; x <= 700.0; x += 0.1) {
    const double r = lambda_moment_ratio(x);
    const double inv = invert_lambda_moment_ratio(r);
    EXPECT_NEAR(inv, x, 1e-12 * std::max(1.0, x)) << "x=" << x;
    EXPECT_NEAR(lambda_moment_ratio(inv), r,
                1e-12 * (1.0 + std::abs(r)))
        << "x=" << x;
  }
}

TEST(LambdaInverse, NonFiniteRatioIsRejected) {
  // A NaN ratio poisoned the old bracket arithmetic into returning an
  // arbitrary midpoint; it must surface as a domain error instead.
  EXPECT_THROW(
      invert_lambda_moment_ratio(std::numeric_limits<double>::quiet_NaN()),
      InvalidArgument);
}

}  // namespace
}  // namespace palu::math
