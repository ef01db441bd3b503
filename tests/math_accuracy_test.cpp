// Deep accuracy tests for the math substrate: identity-based checks that
// need no memorized constants, plus a standard optimizer battery.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <numbers>
#include <vector>

#include "palu/common/error.hpp"
#include "palu/fit/brent.hpp"
#include "palu/fit/nelder_mead.hpp"
#include "palu/math/binmass.hpp"
#include "palu/math/gamma.hpp"
#include "palu/math/incomplete_gamma.hpp"
#include "palu/math/stable.hpp"
#include "palu/math/vexp.hpp"
#include "palu/math/zeta.hpp"
#include "palu/rng/xoshiro.hpp"

namespace palu {
namespace {

// ------------------------------------------ profile-likelihood kernels

// The two normalizers the PALU profile likelihood evaluates at every
// (α, μ): e^μ − 1 − μ (zero-truncated star component) and ζ(α) − 1 (zeta
// core on d >= 2).  Both are checked on dense grids against long-double
// series that share no code with src/math.

// Σ_{k>=2} x^k/k! in long double, all terms positive for x > 0.
long double expm1_minus_x_reference(long double x) {
  long double term = x * x / 2.0L;
  long double sum = 0.0L;
  for (int k = 2; k < 1000; ++k) {
    sum += term;
    term *= x / static_cast<long double>(k + 1);
    if (static_cast<long double>(k) > x && term < 1e-30L * sum) break;
  }
  return sum;
}

// Σ_{n>=2} n^{-s} in long double: 254 direct terms summed smallest
// first, then the Euler–Maclaurin tail from n = 256 through the B10 term
// (its truncation error is below 1e-30 of the sum for s ∈ (1, 30]).
long double zeta_minus_one_reference(long double s) {
  constexpr long double kStart = 256.0L;
  const long double f = std::pow(kStart, -s);
  long double tail = kStart * f / (s - 1.0L) + 0.5L * f;
  // B_{2k}/(2k)! · (s)(s+1)…(s+2k−2) · kStart^{−s−2k+1}.
  const long double bernoulli[] = {1.0L / 6, -1.0L / 30, 1.0L / 42,
                                   -1.0L / 30, 5.0L / 66};
  long double rising = s;        // (s)(s+1)…(s+2k−2)
  long double power = f / kStart;  // kStart^{−s−2k+1}
  long double factorial = 2.0L;  // (2k)!
  for (int k = 1; k <= 5; ++k) {
    tail += bernoulli[k - 1] / factorial * rising * power;
    const auto m = static_cast<long double>(2 * k);
    rising *= (s + m - 1.0L) * (s + m);
    power /= kStart * kStart;
    factorial *= (m + 1.0L) * (m + 2.0L);
  }
  long double head = 0.0L;
  for (int n = 255; n >= 2; --n) {
    head += std::pow(static_cast<long double>(n), -s);
  }
  return head + tail;
}

TEST(ProfileKernels, Expm1MinusXWithinAFewUlp) {
  // The series branch used to stop at |x| = 1e-4, where expm1(x) − x
  // cancels: 8.8e-13 relative error at 1.01e-4, 1.3e-14 at 1e-2.
  double worst = 0.0;
  double worst_x = 0.0;
  for (int i = 0; i <= 4000; ++i) {
    const double x = 1e-8 * std::pow(4e9, i / 4000.0);  // [1e-8, 40]
    const long double ref = expm1_minus_x_reference(x);
    const double err = static_cast<double>(
        std::fabs((static_cast<long double>(math::expm1_minus_x(x)) - ref) /
                  ref));
    if (err > worst) {
      worst = err;
      worst_x = x;
    }
  }
  EXPECT_LE(worst, 4.0 * std::numeric_limits<double>::epsilon())
      << "x=" << worst_x;
}

TEST(ProfileKernels, HurwitzZetaAtTwoIsZetaMinusOne) {
  // ζ(α) − 1 as hurwitz_zeta(α, 2) keeps full relative precision; the
  // subtraction riemann_zeta(α) − 1 does not once ζ(α) ≈ 1 (relative
  // error ~6e-11 at α = 20, ~3e-8 at α = 30).
  double worst = 0.0;
  double worst_alpha = 0.0;
  double worst_subtracted = 0.0;
  for (int i = 0; i <= 300; ++i) {
    const double alpha =
        1.0 + 1e-3 * std::pow(29.0 / 1e-3, i / 300.0);  // [1.001, 30]
    const long double ref = zeta_minus_one_reference(alpha);
    const double err = static_cast<double>(std::fabs(
        (static_cast<long double>(math::hurwitz_zeta(alpha, 2.0)) - ref) /
        ref));
    if (err > worst) {
      worst = err;
      worst_alpha = alpha;
    }
    worst_subtracted = std::max(
        worst_subtracted,
        static_cast<double>(std::fabs(
            (static_cast<long double>(math::riemann_zeta(alpha) - 1.0) -
             ref) /
            ref)));
  }
  EXPECT_LE(worst, 1e-15) << "alpha=" << worst_alpha;
  EXPECT_GT(worst_subtracted, 1e3 * worst);
}

// ------------------------------------------------------ gamma identities

TEST(GammaIdentities, RecurrenceAcrossRandomArguments) {
  // ln Γ(x+1) = ln Γ(x) + ln x.
  Rng rng(1);
  for (int i = 0; i < 200; ++i) {
    const double x = 0.05 + 30.0 * rng.uniform();
    EXPECT_NEAR(math::log_gamma(x + 1.0),
                math::log_gamma(x) + std::log(x),
                1e-11 * (1.0 + std::abs(math::log_gamma(x))))
        << "x=" << x;
  }
}

TEST(GammaIdentities, LegendreDuplication) {
  // Γ(2x) = Γ(x)·Γ(x+1/2)·2^{2x−1}/√π, in log form.
  for (double x : {0.3, 0.75, 1.0, 2.5, 7.0, 19.5}) {
    const double lhs = math::log_gamma(2.0 * x);
    const double rhs = math::log_gamma(x) + math::log_gamma(x + 0.5) +
                       (2.0 * x - 1.0) * std::log(2.0) -
                       0.5 * std::log(std::numbers::pi);
    EXPECT_NEAR(lhs, rhs, 1e-10 * (1.0 + std::abs(lhs))) << "x=" << x;
  }
}

TEST(GammaIdentities, ReflectionAcrossSmallArguments) {
  // Γ(x)Γ(1−x) = π / sin(πx) for x ∈ (0, 1).
  for (double x : {0.05, 0.2, 0.35, 0.45}) {
    const double lhs = math::log_gamma(x) + math::log_gamma(1.0 - x);
    const double rhs =
        std::log(std::numbers::pi / std::sin(std::numbers::pi * x));
    EXPECT_NEAR(lhs, rhs, 1e-11) << "x=" << x;
  }
}

TEST(IncompleteGammaIdentities, RecurrenceInA) {
  // P(a+1, x) = P(a, x) − x^a e^{−x}/Γ(a+1).
  for (double a : {0.5, 1.0, 3.0, 8.0}) {
    for (double x : {0.2, 1.0, 4.0, 20.0}) {
      const double correction =
          std::exp(a * std::log(x) - x - math::log_gamma(a + 1.0));
      EXPECT_NEAR(math::regularized_gamma_p(a + 1.0, x),
                  math::regularized_gamma_p(a, x) - correction, 1e-12)
          << "a=" << a << " x=" << x;
    }
  }
}

TEST(IncompleteGammaIdentities, ChiSquareAdditivityViaConvolution) {
  // χ²₂ survival is exactly e^{−x/2}; χ²₄(x) relates by the Erlang form
  // Q(2, x/2) = e^{−x/2}(1 + x/2).
  for (double x : {0.5, 2.0, 7.0, 18.0}) {
    EXPECT_NEAR(math::chi_squared_survival(x, 2.0), std::exp(-0.5 * x),
                1e-12);
    EXPECT_NEAR(math::chi_squared_survival(x, 4.0),
                std::exp(-0.5 * x) * (1.0 + 0.5 * x), 1e-12);
  }
}

// ------------------------------------------------------ zeta identities

TEST(ZetaIdentities, EulerProductSpotCheck) {
  // ζ(s)·Π_{p ≤ 97} (1 − p^{−s}) ≈ 1 for s where the tail primes are
  // negligible (large s).
  const double s = 8.0;
  double prod = math::riemann_zeta(s);
  for (const int p :
       {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59,
        61, 67, 71, 73, 79, 83, 89, 97}) {
    prod *= 1.0 - std::pow(static_cast<double>(p), -s);
  }
  EXPECT_NEAR(prod, 1.0, 1e-10);
}

TEST(ZetaIdentities, DirichletEtaRelation) {
  // η(s) = Σ (−1)^{n−1} n^{−s} = (1 − 2^{1−s})·ζ(s).
  for (double s : {1.5, 2.0, 3.0, 5.0}) {
    double eta = 0.0;
    for (int n = 1; n < 500000; ++n) {
      eta += (n % 2 == 1 ? 1.0 : -1.0) * std::pow(n, -s);
    }
    EXPECT_NEAR(eta, (1.0 - std::pow(2.0, 1.0 - s)) *
                         math::riemann_zeta(s),
                1e-6)
        << "s=" << s;
  }
}

TEST(ZetaIdentities, HurwitzRationalSplitting) {
  // ζ(s, 1/2) + ζ(s, 1) = 2^s ζ(s)  (split over even/odd integers).
  for (double s : {1.4, 2.0, 3.3}) {
    EXPECT_NEAR(math::hurwitz_zeta(s, 0.5) + math::hurwitz_zeta(s, 1.0),
                std::pow(2.0, s) * math::riemann_zeta(s),
                1e-10 * std::pow(2.0, s) * math::riemann_zeta(s))
        << "s=" << s;
  }
}

// --------------------------------------------------- optimizer battery

TEST(OptimizerBattery, BrentRootsOfTranscendentals) {
  // x = cos(x): Dottie number ≈ 0.7390851332151607.
  const double dottie = fit::brent_root(
      [](double x) { return x - std::cos(x); }, 0.0, 1.0);
  EXPECT_NEAR(dottie, 0.7390851332151607, 1e-10);
  // Lambert W(1): x·e^x = 1 at x ≈ 0.5671432904097838.
  const double omega = fit::brent_root(
      [](double x) { return x * std::exp(x) - 1.0; }, 0.0, 1.0);
  EXPECT_NEAR(omega, 0.5671432904097838, 1e-10);
}

TEST(OptimizerBattery, NelderMeadBooth) {
  const auto booth = [](const std::vector<double>& v) {
    const double a = v[0] + 2.0 * v[1] - 7.0;
    const double b = 2.0 * v[0] + v[1] - 5.0;
    return a * a + b * b;
  };
  const auto res = fit::nelder_mead(booth, {0.0, 0.0});
  EXPECT_NEAR(res.x[0], 1.0, 1e-5);
  EXPECT_NEAR(res.x[1], 3.0, 1e-5);
}

TEST(OptimizerBattery, NelderMeadBeale) {
  const auto beale = [](const std::vector<double>& v) {
    const double x = v[0], y = v[1];
    const double a = 1.5 - x + x * y;
    const double b = 2.25 - x + x * y * y;
    const double c = 2.625 - x + x * y * y * y;
    return a * a + b * b + c * c;
  };
  const auto res = fit::nelder_mead(beale, {1.0, 1.0});
  EXPECT_NEAR(res.x[0], 3.0, 1e-3);
  EXPECT_NEAR(res.x[1], 0.5, 1e-3);
}

TEST(OptimizerBattery, NelderMeadHimmelblauReachesAZero) {
  const auto himmelblau = [](const std::vector<double>& v) {
    const double x = v[0], y = v[1];
    const double a = x * x + y - 11.0;
    const double b = x + y * y - 7.0;
    return a * a + b * b;
  };
  // Four global minima, all with value 0; any is acceptable.
  const auto res = fit::nelder_mead(himmelblau, {0.0, 0.0});
  EXPECT_LT(res.value, 1e-8);
}

TEST(OptimizerBattery, BrentMinimizeZetaLikelihoodShape) {
  // The 1-D negative log-likelihood used by the power-law MLE is convex
  // in α; Brent must land on the stationary point where the derivative
  // flips sign.
  const double sum_log_d = 0.9;  // per-observation Σ ln d
  const auto nll = [&](double alpha) {
    return std::log(math::riemann_zeta(alpha)) + alpha * sum_log_d;
  };
  const double alpha_star = fit::brent_minimize(nll, 1.05, 20.0);
  const double h = 1e-5;
  EXPECT_LT(nll(alpha_star), nll(alpha_star + 10.0 * h));
  EXPECT_LT(nll(alpha_star), nll(alpha_star - 10.0 * h));
}

// -------------------------------------------------- vexp kernel budget

TEST(VexpKernels, ProbesStayWithinTheUlpBudget) {
  // The accuracy contract the expectation path relies on: the dense
  // libm-referenced probes must come in under the budget that gates the
  // kernels at runtime (today they measure ~2–3 ulp against budget 8;
  // regressions in the reduction constants or polynomials show up here
  // long before they would move a histogram).
  EXPECT_LE(math::vexp_probe_max_ulp(), math::kVexpUlpBudget);
  EXPECT_LE(math::vlog1p_probe_max_ulp(), math::kVexpUlpBudget);
  EXPECT_TRUE(math::vexp_kernel_active());
}

TEST(VexpKernels, MatchesLibmEdgeCases) {
  const std::vector<double> xs = {0.0,   -0.0, 1.0,   -1.0,  700.0,
                                  -700.0, 701.0, -745.0, 1e-300, 0.5};
  std::vector<double> out(xs.size());
  math::vexp(xs, out);
  for (std::size_t i = 0; i < xs.size(); ++i) {
    const double ref = std::exp(xs[i]);
    EXPECT_NEAR(out[i], ref, 4e-15 * std::abs(ref)) << "x=" << xs[i];
  }
  const std::vector<double> ys = {0.0,  -0.5, -1.0, 0.25,
                                  1e-18, -0.999999, 1e6, 3.0};
  std::vector<double> lout(ys.size());
  math::vlog1p(ys, lout);
  for (std::size_t i = 0; i < ys.size(); ++i) {
    const double ref = std::log1p(ys[i]);
    if (std::isinf(ref)) {
      EXPECT_EQ(lout[i], ref) << "y=" << ys[i];
    } else {
      EXPECT_NEAR(lout[i], ref, 4e-15 * (1.0 + std::abs(ref)))
          << "y=" << ys[i];
    }
  }
}

TEST(VexpKernels, AliasedSpansAreSupported) {
  std::vector<double> buf = {-0.25, 0.0, 0.5, 3.0};
  const std::vector<double> copy = buf;
  math::vlog1p(buf, buf);
  for (std::size_t i = 0; i < buf.size(); ++i) {
    EXPECT_DOUBLE_EQ(buf[i], std::log1p(copy[i]));
  }
}

// ------------------------------------------- binmass ladder cross-checks

TEST(BinMass, BinomialExactWalkMatchesSaddlepointLadder) {
  // Same distribution folded twice: once with thresholds that force the
  // exact pmf walk, once with the span limit at 0 so every boundary goes
  // through the Edgeworth/Lugannani–Rice ladder.  The ladder owes the
  // exact tier every bin to ~1e-5 absolute (documented per-entity budget
  // 1e-4, DESIGN.md §5i).
  math::BinMassOptions exact;
  exact.exact_span_limit = 1e18;
  math::BinMassOptions approx;
  approx.exact_span_limit = 0.0;
  // Only σ ≳ 6.4 cases: below that the ±40σ span fits the default
  // exact_span_limit, so the ladder never serves them in production and
  // owes them nothing.
  for (const double p : {2e-3, 5e-2, 0.5, 0.97}) {
    for (const std::uint64_t n :
         {std::uint64_t{50000}, std::uint64_t{1000000}}) {
      std::vector<double> be(64, 0.0), ba(64, 0.0);
      const double ve = math::binomial_log2_bins(n, p, be, exact);
      const double va = math::binomial_log2_bins(n, p, ba, approx);
      EXPECT_NEAR(ve, va, 1e-12) << "n=" << n << " p=" << p;
      for (std::size_t i = 0; i < 64; ++i) {
        EXPECT_NEAR(be[i], ba[i], 1e-4) << "n=" << n << " p=" << p
                                        << " bin=" << i;
      }
    }
  }
}

TEST(BinMass, ModeSeededWalkCoversNarrowHighMeanMarginals) {
  // Regression for the walk-seed underflow: n=2000, p=0.99 has μ=1980,
  // σ≈4.4, span 360 < 512 → exact tier, and lo≈1798 > 0.  Seeding the
  // ratio recurrence at the lo edge evaluates a pmf of ~e^{-800},
  // underflows to an exact 0, and the recurrence never recovers — every
  // bin got zero mass while the function still reported visibility 1.
  std::vector<double> bins(64, 0.0);
  const double visible = math::binomial_log2_bins(2000, 0.99, bins);
  EXPECT_NEAR(visible, 1.0, 1e-15);
  double total = 0.0;
  for (const double b : bins) total += b;
  EXPECT_NEAR(total, 1.0, 1e-12);
  EXPECT_NEAR(bins[11], 1.0, 1e-12);  // (1024, 2048] holds μ=1980
}

TEST(BinMass, PoissonBinomialDpMatchesSaddlepointLadder) {
  // Heterogeneous visibilities, DP vs moment-ladder fold of the same
  // vector (the DP is exact; the ladder carries the approximation).
  Rng rng(7);
  std::vector<double> probs(300);
  for (double& pi : probs) pi = 0.9 * rng.uniform() + 0.05;
  math::BinMassOptions dp;
  dp.pb_exact_max_terms = 400;
  math::BinMassOptions approx;
  approx.pb_exact_max_terms = 0;
  math::BinMassScratch scratch;
  std::vector<double> bd(64, 0.0), ba(64, 0.0);
  const double vd =
      math::poisson_binomial_log2_bins(probs, bd, scratch, dp);
  const double va =
      math::poisson_binomial_log2_bins(probs, ba, scratch, approx);
  EXPECT_NEAR(vd, va, 1e-12);
  for (std::size_t i = 0; i < 64; ++i) {
    EXPECT_NEAR(bd[i], ba[i], 1e-4) << "bin=" << i;
  }
  // CDF ladder vs the DP-summed CDF at the bin edges actually used.
  double cum = 0.0;
  std::vector<double> pmf(probs.size() + 1, 0.0);
  pmf[0] = 1.0;
  for (const double pi : probs) {
    for (std::size_t j = pmf.size() - 1; j-- > 0;) {
      pmf[j + 1] += pmf[j] * pi;
      pmf[j] *= 1.0 - pi;
    }
  }
  for (const double m : {64.0, 128.0, 160.0, 192.0, 256.0}) {
    cum = 0.0;
    for (std::size_t d = 0; d <= static_cast<std::size_t>(m); ++d) {
      cum += pmf[d];
    }
    EXPECT_NEAR(math::poisson_binomial_cdf_approx(probs, m), cum, 2e-4)
        << "m=" << m;
  }
}

TEST(BinMass, ExactTiersAndEdgeCases) {
  // Bin convention matches stats::LogBinned: bin 0 = {1}, bin i =
  // (2^{i−1}, 2^i].
  EXPECT_EQ(math::log2_bin_index(1, 64), 0u);
  EXPECT_EQ(math::log2_bin_index(2, 64), 1u);
  EXPECT_EQ(math::log2_bin_index(3, 64), 2u);
  EXPECT_EQ(math::log2_bin_index(4, 64), 2u);
  EXPECT_EQ(math::log2_bin_index(5, 64), 3u);
  EXPECT_EQ(math::log2_bin_index(1u << 20, 8), 7u);  // saturating top bin

  // Small binomial folded exactly: mass and visibility are closed-form.
  std::vector<double> bins(64, 0.0);
  const double visible = math::binomial_log2_bins(4, 0.5, bins);
  EXPECT_NEAR(visible, 1.0 - 0.0625, 1e-15);
  EXPECT_NEAR(bins[0], 0.25, 1e-15);            // P[X=1]
  EXPECT_NEAR(bins[1], 0.375, 1e-15);           // P[X=2]
  EXPECT_NEAR(bins[2], 0.25 + 0.0625, 1e-15);   // P[X∈{3,4}]

  // Degenerate cases.
  std::fill(bins.begin(), bins.end(), 0.0);
  EXPECT_EQ(math::binomial_log2_bins(0, 0.3, bins), 0.0);
  EXPECT_EQ(math::binomial_log2_bins(10, 0.0, bins), 0.0);
  EXPECT_EQ(math::binomial_log2_bins(8, 1.0, bins), 1.0);
  EXPECT_DOUBLE_EQ(bins[3], 1.0);  // point mass at 8
  math::BinMassScratch scratch;
  EXPECT_EQ(math::poisson_binomial_log2_bins({}, bins, scratch), 0.0);
}

}  // namespace
}  // namespace palu
