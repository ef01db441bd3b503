// Unit tests for palu/fit: regression, Brent, Nelder–Mead, LM, power-law
// MLE, and the modified Zipf–Mandelbrot model + fitter.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <numbers>
#include <vector>

#include "palu/common/error.hpp"
#include "palu/parallel/thread_pool.hpp"
#include "palu/fit/brent.hpp"
#include "palu/fit/linreg.hpp"
#include "palu/fit/nelder_mead.hpp"
#include "palu/fit/powerlaw_mle.hpp"
#include "palu/fit/zipf_mandelbrot.hpp"
#include "palu/math/zeta.hpp"
#include "palu/rng/distributions.hpp"
#include "palu/rng/xoshiro.hpp"
#include "palu/stats/histogram.hpp"
#include "palu/stats/log_binning.hpp"

namespace palu::fit {
namespace {

TEST(LinearRegression, RecoversExactLine) {
  std::vector<double> x, y;
  for (int i = 0; i < 20; ++i) {
    x.push_back(i);
    y.push_back(2.5 * i - 7.0);
  }
  const LinearFit fit = linear_regression(x, y);
  EXPECT_NEAR(fit.slope, 2.5, 1e-12);
  EXPECT_NEAR(fit.intercept, -7.0, 1e-11);
  EXPECT_NEAR(fit.r_squared, 1.0, 1e-12);
  EXPECT_NEAR(fit.slope_stderr, 0.0, 1e-10);
}

TEST(LinearRegression, NoisyLineWithinErrorBars) {
  Rng rng(1);
  std::vector<double> x, y;
  for (int i = 0; i < 500; ++i) {
    x.push_back(i * 0.1);
    y.push_back(1.0 + 3.0 * i * 0.1 + (rng.uniform() - 0.5));
  }
  const LinearFit fit = linear_regression(x, y);
  EXPECT_NEAR(fit.slope, 3.0, 4.0 * fit.slope_stderr);
  EXPECT_GT(fit.r_squared, 0.99);
}

TEST(WeightedRegression, ZeroWeightPointsAreIgnored) {
  const std::vector<double> x = {0.0, 1.0, 2.0, 100.0};
  const std::vector<double> y = {0.0, 1.0, 2.0, -999.0};
  const std::vector<double> w = {1.0, 1.0, 1.0, 0.0};
  const LinearFit fit = weighted_linear_regression(x, y, w);
  EXPECT_NEAR(fit.slope, 1.0, 1e-12);
  EXPECT_NEAR(fit.intercept, 0.0, 1e-12);
  EXPECT_EQ(fit.n, 3u);
}

TEST(WeightedRegression, HeavyWeightDominates) {
  const std::vector<double> x = {0.0, 1.0, 2.0};
  const std::vector<double> y = {0.0, 10.0, 4.0};
  const std::vector<double> w = {1e6, 1.0, 1e6};
  const LinearFit fit = weighted_linear_regression(x, y, w);
  EXPECT_NEAR(fit.slope, 2.0, 1e-3);
}

TEST(WeightedRegression, RejectsDegenerateInputs) {
  const std::vector<double> x = {1.0, 1.0};
  const std::vector<double> y = {1.0, 2.0};
  const std::vector<double> w = {1.0, 1.0};
  EXPECT_THROW(weighted_linear_regression(x, y, w), palu::InvalidArgument);
  const std::vector<double> x1 = {1.0}, y1 = {2.0}, w1 = {1.0};
  EXPECT_THROW(weighted_linear_regression(x1, y1, w1),
               palu::InvalidArgument);
  const std::vector<double> w_neg = {1.0, -1.0};
  EXPECT_THROW(weighted_linear_regression(x, y, w_neg),
               palu::InvalidArgument);
}

TEST(BrentRoot, FindsSimpleRoots) {
  EXPECT_NEAR(brent_root([](double x) { return x * x - 2.0; }, 0.0, 2.0),
              std::sqrt(2.0), 1e-10);
  EXPECT_NEAR(brent_root([](double x) { return std::cos(x); }, 0.0, 3.0),
              std::numbers::pi / 2.0, 1e-10);
}

TEST(BrentRoot, AcceptsRootAtEndpoint) {
  EXPECT_DOUBLE_EQ(brent_root([](double x) { return x; }, 0.0, 1.0), 0.0);
}

TEST(BrentRoot, RejectsNonBracketingInterval) {
  EXPECT_THROW(
      brent_root([](double x) { return x * x + 1.0; }, -1.0, 1.0),
      palu::InvalidArgument);
}

TEST(BrentMinimize, FindsQuadraticMinimum) {
  const double x = brent_minimize(
      [](double t) { return (t - 1.37) * (t - 1.37) + 5.0; }, -10.0, 10.0);
  EXPECT_NEAR(x, 1.37, 1e-8);
}

TEST(BrentMinimize, NonSmoothObjective) {
  const double x =
      brent_minimize([](double t) { return std::abs(t - 0.25); }, -4.0, 4.0);
  EXPECT_NEAR(x, 0.25, 1e-7);
}

TEST(NelderMead, MinimizesRosenbrock) {
  const auto rosenbrock = [](const std::vector<double>& v) {
    const double a = 1.0 - v[0];
    const double b = v[1] - v[0] * v[0];
    return a * a + 100.0 * b * b;
  };
  const auto res = nelder_mead(rosenbrock, {-1.2, 1.0});
  EXPECT_NEAR(res.x[0], 1.0, 1e-4);
  EXPECT_NEAR(res.x[1], 1.0, 1e-4);
  EXPECT_LT(res.value, 1e-8);
}

TEST(NelderMead, HandlesInfiniteRejectionRegions) {
  // Constrained quadratic: +inf outside x > 0.
  const auto f = [](const std::vector<double>& v) {
    if (v[0] <= 0.0) return std::numeric_limits<double>::infinity();
    return (std::log(v[0]) - 1.0) * (std::log(v[0]) - 1.0);
  };
  const auto res = nelder_mead(f, {0.5});
  EXPECT_NEAR(res.x[0], std::exp(1.0), 1e-4);
}

TEST(NelderMead, FourDimensionalSphere) {
  const auto f = [](const std::vector<double>& v) {
    double acc = 0.0;
    for (std::size_t i = 0; i < v.size(); ++i) {
      const double d = v[i] - static_cast<double>(i);
      acc += d * d;
    }
    return acc;
  };
  const auto res = nelder_mead(f, {5.0, 5.0, 5.0, 5.0});
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_NEAR(res.x[i], static_cast<double>(i), 1e-4);
  }
}

// ---------------------------------------------------------------- power law

stats::DegreeHistogram synthetic_zeta_sample(double alpha, Degree xmin,
                                             Count n, std::uint64_t seed) {
  rng::BoundedZipfSampler zipf(alpha, xmin, 1u << 22);
  Rng rng(seed);
  stats::DegreeHistogram h;
  for (Count i = 0; i < n; ++i) h.add(zipf(rng));
  return h;
}

class PowerLawRecovery : public ::testing::TestWithParam<double> {};

TEST_P(PowerLawRecovery, FixedXminAlphaWithinError) {
  const double alpha = GetParam();
  const auto h = synthetic_zeta_sample(alpha, 1, 60000, 99);
  const PowerLawFit fit = fit_power_law_fixed_xmin(h, 1);
  EXPECT_NEAR(fit.alpha, alpha, 5.0 * fit.alpha_stderr + 0.02)
      << "alpha=" << alpha;
  EXPECT_EQ(fit.xmin, 1u);
  EXPECT_EQ(fit.tail_size, 60000u);
}

INSTANTIATE_TEST_SUITE_P(Sweep, PowerLawRecovery,
                         ::testing::Values(1.5, 1.8, 2.0, 2.5, 3.0));

TEST(PowerLaw, XminScanFindsTrueCutoff) {
  // Mixture: uniform "noise" mass on 1..4, zeta tail from 5 up.
  Rng rng(3);
  rng::BoundedZipfSampler tail(2.2, 5, 1u << 20);
  stats::DegreeHistogram h;
  for (int i = 0; i < 30000; ++i) h.add(1 + rng.uniform_index(4));
  for (int i = 0; i < 30000; ++i) h.add(tail(rng));
  const PowerLawFit fit = fit_power_law(h);
  EXPECT_GE(fit.xmin, 4u);
  EXPECT_LE(fit.xmin, 10u);
  EXPECT_NEAR(fit.alpha, 2.2, 0.1);
}

TEST(PowerLaw, KsSmallForTrueModel) {
  const auto h = synthetic_zeta_sample(2.0, 1, 40000, 7);
  const PowerLawFit fit = fit_power_law_fixed_xmin(h, 1);
  // Expected KS for a correct model ~ 1/sqrt(n).
  EXPECT_LT(fit.ks_statistic, 3.0 / std::sqrt(40000.0));
}

TEST(PowerLaw, ZetaTailCdfProperties) {
  EXPECT_DOUBLE_EQ(zeta_tail_cdf(2.0, 5, 4), 0.0);
  const double at_min = zeta_tail_cdf(2.0, 5, 5);
  EXPECT_GT(at_min, 0.0);
  EXPECT_LT(at_min, 1.0);
  EXPECT_NEAR(zeta_tail_cdf(2.0, 5, 1u << 26), 1.0, 1e-6);
  // Monotone.
  double prev = 0.0;
  for (Degree d = 5; d < 50; ++d) {
    const double c = zeta_tail_cdf(2.0, 5, d);
    EXPECT_GE(c, prev);
    prev = c;
  }
}

TEST(PowerLaw, DegenerateDataThrows) {
  stats::DegreeHistogram h;
  EXPECT_THROW(fit_power_law(h), palu::DataError);
  h.add(3, 100);  // single-value support
  EXPECT_THROW(fit_power_law_fixed_xmin(h, 1), palu::DataError);
}

TEST(PowerLaw, BootstrapAcceptsTrueModel) {
  const auto h = synthetic_zeta_sample(2.3, 1, 3000, 17);
  const PowerLawFit fit = fit_power_law_fixed_xmin(h, 1);
  Rng rng(55);
  ThreadPool pool(2);
  const double p = bootstrap_gof_pvalue(h, fit, 40, rng, pool);
  // True-model data should rarely be rejected (CSN threshold 0.1).
  EXPECT_GT(p, 0.1);
}

TEST(PowerLaw, BootstrapRejectsPoissonData) {
  Rng rng(21);
  stats::DegreeHistogram h;
  for (int i = 0; i < 5000; ++i) {
    h.add(1 + rng::sample_poisson(rng, 6.0));
  }
  const PowerLawFit fit = fit_power_law_fixed_xmin(h, 1);
  ThreadPool pool(2);
  Rng boot_rng(23);
  const double p = bootstrap_gof_pvalue(h, fit, 40, boot_rng, pool);
  EXPECT_LT(p, 0.1);
}

// ------------------------------------------------------- Zipf–Mandelbrot

TEST(ZipfMandelbrot, PmfNormalizes) {
  for (double delta : {0.0, 0.5, 3.0}) {
    const ZipfMandelbrot zm(2.0, delta, 5000);
    double total = 0.0;
    for (Degree d = 1; d <= 5000; ++d) total += zm.pmf(d);
    EXPECT_NEAR(total, 1.0, 1e-10) << "delta=" << delta;
  }
}

TEST(ZipfMandelbrot, CdfMatchesPartialPmfSums) {
  const ZipfMandelbrot zm(1.7, 0.8, 256);
  double running = 0.0;
  for (Degree d = 1; d <= 256; ++d) {
    running += zm.pmf(d);
    EXPECT_NEAR(zm.cdf(d), running, 1e-11);
  }
  EXPECT_NEAR(zm.cdf(256), 1.0, 1e-12);
  EXPECT_DOUBLE_EQ(zm.cdf(0), 0.0);
  EXPECT_NEAR(zm.cdf(100000), 1.0, 1e-12);  // clamps beyond dmax
}

TEST(ZipfMandelbrot, DeltaGradientIdentity) {
  // ∂_δ ρ = −α·ρ(d; α+1, δ) (the identity stated in Section II-B).
  const ZipfMandelbrot zm(2.2, 0.6, 100);
  const ZipfMandelbrot zm_up(3.2, 0.6, 100);
  for (double d : {1.0, 2.0, 10.0, 64.0}) {
    EXPECT_NEAR(zm.unnormalized_delta_gradient(d),
                -2.2 * zm_up.unnormalized(d), 1e-14);
  }
  // And against a numerical derivative.
  const double h = 1e-6;
  const ZipfMandelbrot plus(2.2, 0.6 + h, 100);
  const ZipfMandelbrot minus(2.2, 0.6 - h, 100);
  const double fd =
      (plus.unnormalized(10.0) - minus.unnormalized(10.0)) / (2.0 * h);
  EXPECT_NEAR(zm.unnormalized_delta_gradient(10.0), fd, 1e-8);
}

TEST(ZipfMandelbrot, DeltaControlsHeadAlphaControlsTail) {
  // Raising δ suppresses p(1); the tail ratio p(2^k)/p(2^{k+1}) is set by α.
  const ZipfMandelbrot flat(2.0, 5.0, 1u << 14);
  const ZipfMandelbrot sharp(2.0, 0.0, 1u << 14);
  EXPECT_LT(flat.pmf(1), sharp.pmf(1));
  const double tail_ratio =
      flat.pmf(1 << 12) / flat.pmf(1 << 13);
  EXPECT_NEAR(tail_ratio, std::pow(2.0, 2.0), 0.01);
}

TEST(ZipfMandelbrot, PooledSumsToOne) {
  const ZipfMandelbrot zm(2.4, 1.5, 777);  // non-power-of-two dmax
  const auto pooled = zm.pooled();
  EXPECT_NEAR(pooled.total_mass(), 1.0, 1e-10);
  EXPECT_EQ(pooled.num_bins(), stats::LogBinned::bin_index(777) + 1);
  // Bin 0 is exactly pmf(1).
  EXPECT_NEAR(pooled[0], zm.pmf(1), 1e-12);
}

TEST(ZipfMandelbrot, PooledEqualsPerBinCdfDifferencesBitForBit) {
  // The one-pass pooled() against the per-bin cdf() calls it replaced,
  // across the 4096-term Euler–Maclaurin crossover.
  for (const Degree dmax : {4u, 306u, 4095u, 4096u, 4097u, 4143u, 4144u,
                            4145u, 8192u, 100000u, 1000000u}) {
    for (const double delta : {-0.999999, -0.5, 0.0, 0.5, 46.5, 47.0,
                               1000.0}) {
      for (const double alpha : {0.3, 1.0, 2.2, 3.3}) {
        const ZipfMandelbrot zm(alpha, delta, dmax);
        const auto pooled = zm.pooled();
        ASSERT_EQ(pooled.num_bins(), stats::LogBinned::bin_index(dmax) + 1);
        double prev = 0.0;
        for (std::uint32_t i = 0; i < pooled.num_bins(); ++i) {
          const double c =
              zm.cdf(std::min(stats::LogBinned::bin_upper(i), dmax));
          ASSERT_EQ(std::bit_cast<std::uint64_t>(pooled[i]),
                    std::bit_cast<std::uint64_t>(c - prev))
              << "dmax=" << dmax << " delta=" << delta
              << " alpha=" << alpha << " bin=" << i;
          prev = c;
        }
      }
    }
  }
}

TEST(ZipfMandelbrot, RejectsBadParameters) {
  EXPECT_THROW(ZipfMandelbrot(0.0, 0.5, 10), palu::InvalidArgument);
  EXPECT_THROW(ZipfMandelbrot(2.0, -1.0, 10), palu::InvalidArgument);
  EXPECT_THROW(ZipfMandelbrot(2.0, 0.5, 0), palu::InvalidArgument);
  const ZipfMandelbrot zm(2.0, 0.5, 10);
  EXPECT_THROW(zm.pmf(0), palu::InvalidArgument);
  EXPECT_THROW(zm.pmf(11), palu::InvalidArgument);
}

struct ZmCase {
  double alpha;
  double delta;
};

class ZmFitRecovery : public ::testing::TestWithParam<ZmCase> {};

TEST_P(ZmFitRecovery, RecoversParametersFromExactPooled) {
  const auto [alpha, delta] = GetParam();
  const Degree dmax = 1u << 14;
  const ZipfMandelbrot truth(alpha, delta, dmax);
  const auto result = fit_zipf_mandelbrot(truth.pooled(), dmax);
  EXPECT_NEAR(result.alpha, alpha, 0.02) << "alpha";
  EXPECT_NEAR(result.delta, delta, 0.05 * (1.0 + delta)) << "delta";
  EXPECT_LT(result.objective, 1e-10);
}

INSTANTIATE_TEST_SUITE_P(Sweep, ZmFitRecovery,
                         ::testing::Values(ZmCase{1.6, 0.0}, ZmCase{2.0, 0.5},
                                           ZmCase{2.0, 2.0}, ZmCase{2.5, 1.0},
                                           ZmCase{3.0, 0.2},
                                           ZmCase{2.2, 4.0}));

TEST(ZmFit, SigmaWeightingFavorsTightBins) {
  const Degree dmax = 1u << 10;
  const ZipfMandelbrot truth(2.0, 1.0, dmax);
  auto target_mass = truth.pooled().mass();
  // Corrupt the last bin heavily but mark it as high-σ.
  std::vector<double> sigma(target_mass.size(), 1e-4);
  target_mass.back() += 0.05;
  sigma.back() = 10.0;
  ZmFitOptions opts;
  opts.bin_sigma = sigma;
  const auto result =
      fit_zipf_mandelbrot(stats::LogBinned(target_mass), dmax, opts);
  EXPECT_NEAR(result.alpha, 2.0, 0.05);
  EXPECT_NEAR(result.delta, 1.0, 0.1);
}

TEST(ZipfMandelbrot, SamplerMatchesPmf) {
  const ZipfMandelbrot zm(2.0, 1.5, 512);
  auto sampler = zm.sampler();
  Rng rng(404);
  std::vector<Count> counts(513, 0);
  constexpr int kN = 300000;
  for (int i = 0; i < kN; ++i) {
    const auto d = sampler(rng);
    ASSERT_GE(d, 1u);
    ASSERT_LE(d, 512u);
    ++counts[d];
  }
  for (Degree d = 1; d <= 8; ++d) {
    const double expected = zm.pmf(d) * kN;
    EXPECT_NEAR(static_cast<double>(counts[d]), expected,
                6.0 * std::sqrt(expected))
        << "d=" << d;
  }
}

TEST(ZmFit, PinnedBitsAtServeAndMicrobenchScale) {
  // (α, δ, objective) as the fitter returned them before the objective
  // moved to one prefix pass per evaluation; the pass must not move a bit.
  // A 306-degree window histogram (serve's d_max regime) ...
  stats::DegreeHistogram h;
  for (Degree d = 1; d <= 306; ++d) {
    const auto c = static_cast<std::uint64_t>(
        std::floor(2e4 * std::pow(static_cast<double>(d) + 0.4, -2.1)));
    h.add(d, c + (d % 37 == 0 ? 2 : 0) + (d == 306 ? 1 : 0));
  }
  const auto window =
      fit_zipf_mandelbrot(stats::LogBinned::from_histogram(h), 306);
  EXPECT_EQ(window.alpha, 0x1.10b4eff648afdp+1);
  EXPECT_EQ(window.delta, 0x1.b78c61eb05268p-2);
  EXPECT_EQ(window.objective, 0x1.0b54e982063fdp-17);
  EXPECT_TRUE(window.converged);
  // ... and bench_micro's BM_ZmFit target at d_max 2^14.
  const Degree dmax = 1u << 14;
  const auto bm =
      fit_zipf_mandelbrot(ZipfMandelbrot(2.1, 0.8, dmax).pooled(), dmax);
  EXPECT_EQ(bm.alpha, 0x1.0cccdfc2e62bep+1);
  EXPECT_EQ(bm.delta, 0x1.999a4c808eb1ep-1);
  EXPECT_EQ(bm.objective, 0x1.0e9b2df3e56a5p-43);
  EXPECT_TRUE(bm.converged);
}

TEST(ZmFit, RejectsTooFewBins) {
  EXPECT_THROW(
      fit_zipf_mandelbrot(stats::LogBinned({0.5, 0.5}), 1024),
      palu::InvalidArgument);
}

}  // namespace
}  // namespace palu::fit
