// Unit tests for the incomplete gamma functions, chi-square GOF on pooled
// distributions, bootstrap confidence intervals, and the parallel window
// sweep pipeline.
#include <gtest/gtest.h>

#include <cmath>

#include "palu/common/error.hpp"
#include "palu/fit/bootstrap.hpp"
#include "palu/fit/powerlaw_mle.hpp"
#include "palu/fit/zipf_mandelbrot.hpp"
#include "palu/graph/generators.hpp"
#include "palu/math/incomplete_gamma.hpp"
#include "palu/rng/distributions.hpp"
#include "palu/stats/chisq.hpp"
#include "palu/traffic/window_pipeline.hpp"

namespace palu {
namespace {

// ------------------------------------------------------ incomplete gamma

TEST(IncompleteGamma, KnownValues) {
  // P(1, x) = 1 − e^{−x}.
  for (double x : {0.1, 1.0, 3.0, 10.0}) {
    EXPECT_NEAR(math::regularized_gamma_p(1.0, x), -std::expm1(-x), 1e-12);
  }
  // P(1/2, x) = erf(√x).
  for (double x : {0.25, 1.0, 4.0}) {
    EXPECT_NEAR(math::regularized_gamma_p(0.5, x), std::erf(std::sqrt(x)),
                1e-12);
  }
}

TEST(IncompleteGamma, ComplementsSumToOne) {
  for (double a : {0.3, 1.0, 2.5, 17.0}) {
    for (double x : {0.01, 0.5, 2.0, 30.0, 200.0}) {
      EXPECT_NEAR(math::regularized_gamma_p(a, x) +
                      math::regularized_gamma_q(a, x),
                  1.0, 1e-12)
          << "a=" << a << " x=" << x;
    }
  }
}

TEST(IncompleteGamma, MonotoneInX) {
  double prev = 0.0;
  for (double x = 0.0; x < 20.0; x += 0.25) {
    const double p = math::regularized_gamma_p(3.0, x);
    EXPECT_GE(p, prev);
    prev = p;
  }
  EXPECT_NEAR(prev, 1.0, 1e-6);
}

TEST(IncompleteGamma, BoundaryAndErrors) {
  EXPECT_DOUBLE_EQ(math::regularized_gamma_p(2.0, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(math::regularized_gamma_q(2.0, 0.0), 1.0);
  EXPECT_THROW(math::regularized_gamma_p(0.0, 1.0), InvalidArgument);
  EXPECT_THROW(math::regularized_gamma_q(1.0, -1.0), InvalidArgument);
}

TEST(ChiSquaredSurvival, MatchesKnownQuantiles) {
  // Classic table values: P[χ²₁ > 3.841] ≈ 0.05, P[χ²₅ > 11.07] ≈ 0.05.
  EXPECT_NEAR(math::chi_squared_survival(3.841, 1.0), 0.05, 2e-4);
  EXPECT_NEAR(math::chi_squared_survival(11.0705, 5.0), 0.05, 2e-4);
  EXPECT_NEAR(math::chi_squared_survival(2.0, 2.0), std::exp(-1.0), 1e-12);
}

// -------------------------------------------------------------- chisq gof

stats::LogBinned pooled_from_zm(double alpha, double delta, Degree dmax) {
  return fit::ZipfMandelbrot(alpha, delta, dmax).pooled();
}

TEST(ChiSquare, AcceptsTrueModel) {
  // Sample from a ZM law, pool, test against the exact model masses.
  Rng rng(1);
  const Degree dmax = 4096;
  const fit::ZipfMandelbrot zm(2.0, 1.0, dmax);
  std::vector<double> weights(dmax);
  for (Degree d = 1; d <= dmax; ++d) weights[d - 1] = zm.pmf(d);
  rng::AliasSampler sampler(weights, 1);
  stats::DegreeHistogram h;
  const Count n = 50000;
  for (Count i = 0; i < n; ++i) h.add(sampler(rng));
  const auto observed = stats::LogBinned::from_histogram(h);
  const auto result =
      stats::chi_square_pooled(observed, zm.pooled(), n, 0);
  EXPECT_GT(result.p_value, 0.01);
  EXPECT_GE(result.bins_used, 8u);
}

TEST(ChiSquare, RejectsWrongModel) {
  Rng rng(2);
  const Degree dmax = 4096;
  const fit::ZipfMandelbrot truth(2.0, 5.0, dmax);
  std::vector<double> weights(dmax);
  for (Degree d = 1; d <= dmax; ++d) weights[d - 1] = truth.pmf(d);
  rng::AliasSampler sampler(weights, 1);
  stats::DegreeHistogram h;
  const Count n = 50000;
  for (Count i = 0; i < n; ++i) h.add(sampler(rng));
  const auto observed = stats::LogBinned::from_histogram(h);
  // Test against a ZM with the wrong offset.
  const auto result = stats::chi_square_pooled(
      observed, pooled_from_zm(2.0, 0.0, dmax), n, 0);
  EXPECT_LT(result.p_value, 1e-6);
}

TEST(ChiSquare, MergesSparseTailBins) {
  // A tail bin with expectation << min_expected must be merged, not
  // counted alone.
  const stats::LogBinned observed({0.6, 0.3, 0.08, 0.02});
  const stats::LogBinned model({0.6, 0.3, 0.0999, 0.0001});
  const auto result = stats::chi_square_pooled(observed, model, 100, 0);
  EXPECT_LT(result.bins_used, 4u);
  EXPECT_GE(result.dof, 1.0);
}

TEST(ChiSquare, DegenerateInputsThrow) {
  const stats::LogBinned two({0.5, 0.5});
  EXPECT_THROW(stats::chi_square_pooled(two, two, 0, 0), InvalidArgument);
  EXPECT_THROW(stats::chi_square_pooled(two, two, 100, 5),
               InvalidArgument);  // dof would be negative
  const stats::LogBinned one({1.0});
  EXPECT_THROW(stats::chi_square_pooled(one, one, 100, 0),
               InvalidArgument);
}

// -------------------------------------------------------------- bootstrap

TEST(Bootstrap, CoversTrueAlphaOnZetaSample) {
  Rng sample_rng(3);
  rng::BoundedZipfSampler zipf(2.2, 1u << 18);
  stats::DegreeHistogram h;
  for (int i = 0; i < 20000; ++i) h.add(zipf(sample_rng));
  Rng rng(4);
  ThreadPool pool(2);
  fit::BootstrapOptions opts;
  opts.replicates = 60;
  const auto ci = fit::bootstrap_ci(
      h,
      [](const stats::DegreeHistogram& sample) {
        return fit::fit_power_law_fixed_xmin(sample, 1).alpha;
      },
      rng, pool, opts);
  EXPECT_EQ(ci.replicates_used, 60);
  EXPECT_LT(ci.lower, ci.upper);
  EXPECT_GT(ci.std_error, 0.0);
  // The interval must straddle the point estimate and (with margin) the
  // truth.
  EXPECT_LE(ci.lower, ci.estimate);
  EXPECT_GE(ci.upper, ci.estimate);
  EXPECT_LT(ci.lower - 0.05, 2.2);
  EXPECT_GT(ci.upper + 0.05, 2.2);
}

TEST(Bootstrap, WiderIntervalsForSmallerSamples) {
  rng::BoundedZipfSampler zipf(2.0, 1u << 16);
  const auto run = [&](Count n, std::uint64_t seed) {
    Rng sample_rng(seed);
    stats::DegreeHistogram h;
    for (Count i = 0; i < n; ++i) h.add(zipf(sample_rng));
    Rng rng(seed + 1);
    ThreadPool pool(2);
    fit::BootstrapOptions opts;
    opts.replicates = 40;
    return fit::bootstrap_ci(
        h,
        [](const stats::DegreeHistogram& sample) {
          return fit::fit_power_law_fixed_xmin(sample, 1).alpha;
        },
        rng, pool, opts);
  };
  const auto small = run(1000, 10);
  const auto large = run(50000, 20);
  EXPECT_GT(small.std_error, 2.0 * large.std_error);
}

TEST(Bootstrap, SkipsDegenerateReplicatesButReports) {
  // A statistic that throws on every replicate must raise DataError.
  stats::DegreeHistogram h;
  h.add(1, 100);
  h.add(2, 50);
  Rng rng(5);
  ThreadPool pool(2);
  EXPECT_THROW(
      fit::bootstrap_ci(
          h,
          [](const stats::DegreeHistogram&) -> double {
            throw DataError("always fails");
          },
          rng, pool),
      DataError);
}

TEST(Bootstrap, MultiStatisticSharesResamplingPass) {
  rng::BoundedZipfSampler zipf(2.0, 1u << 16);
  Rng sample_rng(30);
  stats::DegreeHistogram h;
  for (int i = 0; i < 15000; ++i) h.add(zipf(sample_rng));
  Rng rng(31);
  ThreadPool pool(2);
  fit::BootstrapOptions opts;
  opts.replicates = 30;
  const auto both = fit::bootstrap_ci_multi(
      h,
      [](const stats::DegreeHistogram& sample) {
        const auto fitted = fit::fit_power_law_fixed_xmin(sample, 1);
        return std::vector<double>{fitted.alpha, fitted.ks_statistic};
      },
      rng, pool, opts);
  ASSERT_EQ(both.size(), 2u);
  EXPECT_EQ(both[0].replicates_used, 30);
  EXPECT_EQ(both[1].replicates_used, 30);
  EXPECT_NEAR(both[0].estimate, 2.0, 0.1);
  EXPECT_GT(both[1].estimate, 0.0);
  EXPECT_LT(both[0].lower, both[0].upper);
}

TEST(Bootstrap, ValidatesOptions) {
  stats::DegreeHistogram h;
  h.add(1, 10);
  Rng rng(6);
  ThreadPool pool(1);
  fit::BootstrapOptions opts;
  opts.replicates = 5;
  const auto stat = [](const stats::DegreeHistogram&) { return 1.0; };
  EXPECT_THROW(fit::bootstrap_ci(h, stat, rng, pool, opts),
               InvalidArgument);
  opts.replicates = 20;
  opts.confidence = 1.5;
  EXPECT_THROW(fit::bootstrap_ci(h, stat, rng, pool, opts),
               InvalidArgument);
}

// --------------------------------------------------------- window sweep

TEST(WindowSweep, DeterministicAndComplete) {
  Rng gen_rng(7);
  const auto g = graph::erdos_renyi(gen_rng, 2000, 0.004);
  ThreadPool pool(3);
  const auto a = traffic::sweep_windows(g, traffic::RateModel{}, 5000, 6,
                                        traffic::Quantity::kSourceFanOut,
                                        /*seed=*/42, pool);
  const auto b = traffic::sweep_windows(g, traffic::RateModel{}, 5000, 6,
                                        traffic::Quantity::kSourceFanOut,
                                        /*seed=*/42, pool);
  EXPECT_EQ(a.windows, 6u);
  EXPECT_EQ(a.merged.total(), b.merged.total());
  EXPECT_EQ(a.max_value, b.max_value);
  EXPECT_EQ(a.ensemble.mean(), b.ensemble.mean());
  EXPECT_EQ(a.ensemble.stddev(), b.ensemble.stddev());
}

TEST(WindowSweep, SeedChangesResults) {
  Rng gen_rng(8);
  const auto g = graph::erdos_renyi(gen_rng, 2000, 0.004);
  ThreadPool pool(2);
  const auto a = traffic::sweep_windows(g, traffic::RateModel{}, 5000, 4,
                                        traffic::Quantity::kSourceFanOut,
                                        1, pool);
  const auto b = traffic::sweep_windows(g, traffic::RateModel{}, 5000, 4,
                                        traffic::Quantity::kSourceFanOut,
                                        2, pool);
  EXPECT_NE(a.ensemble.mean(), b.ensemble.mean());
}

TEST(WindowSweep, MatchesSequentialSemantics) {
  // Mean pooled mass from the sweep should be statistically consistent
  // with a sequential single-generator run (same underlying rates law).
  Rng gen_rng(9);
  const auto g = graph::zeta_degree_core(gen_rng, 5000, 2.0, 500);
  ThreadPool pool(3);
  const auto sweep = traffic::sweep_windows(
      g, traffic::RateModel{}, 20000, 8,
      traffic::Quantity::kSourceFanOut, 11, pool);
  traffic::SyntheticTrafficGenerator seq(g, traffic::RateModel{}, Rng(12));
  stats::BinnedEnsemble sequential;
  for (int t = 0; t < 8; ++t) {
    sequential.add(stats::LogBinned::from_histogram(
        traffic::quantity_histogram(seq.window(20000),
                                    traffic::Quantity::kSourceFanOut)));
  }
  const auto m1 = sweep.ensemble.mean();
  const auto m2 = sequential.mean();
  for (std::size_t i = 0; i < std::min(m1.size(), m2.size()); ++i) {
    EXPECT_NEAR(m1[i], m2[i], 0.05 + 0.3 * m2[i]) << "bin " << i;
  }
}

TEST(WindowSweep, ValidatesArguments) {
  Rng gen_rng(10);
  const auto g = graph::erdos_renyi(gen_rng, 100, 0.1);
  ThreadPool pool(1);
  EXPECT_THROW(traffic::sweep_windows(g, traffic::RateModel{}, 0, 4,
                                      traffic::Quantity::kSourceFanOut, 1,
                                      pool),
               InvalidArgument);
  EXPECT_THROW(traffic::sweep_windows(g, traffic::RateModel{}, 100, 0,
                                      traffic::Quantity::kSourceFanOut, 1,
                                      pool),
               InvalidArgument);
}

}  // namespace
}  // namespace palu
