// Unit tests for the discrete model zoo and model selection (the paper's
// "is there a better model than Zipf–Mandelbrot?" machinery).
#include <gtest/gtest.h>

#include <cmath>

#include "palu/common/error.hpp"
#include "palu/core/generator.hpp"
#include "palu/fit/model_zoo.hpp"
#include "palu/fit/zipf_mandelbrot.hpp"
#include "palu/rng/distributions.hpp"
#include "palu/rng/xoshiro.hpp"
#include "palu/stats/histogram.hpp"

namespace palu::fit {
namespace {

stats::DegreeHistogram zeta_sample(double alpha, Count n,
                                   std::uint64_t seed) {
  rng::BoundedZipfSampler zipf(alpha, 1u << 20);
  Rng rng(seed);
  stats::DegreeHistogram h;
  for (Count i = 0; i < n; ++i) h.add(zipf(rng));
  return h;
}

stats::DegreeHistogram geometric_sample(double q, Count n,
                                        std::uint64_t seed) {
  Rng rng(seed);
  stats::DegreeHistogram h;
  for (Count i = 0; i < n; ++i) h.add(rng::sample_geometric(rng, q));
  return h;
}

stats::DegreeHistogram lognormal_sample(double m, double s, Count n,
                                        std::uint64_t seed) {
  Rng rng(seed);
  stats::DegreeHistogram h;
  for (Count i = 0; i < n; ++i) {
    // Box–Muller normal, exponentiated and rounded up to >= 1.
    const double u1 = rng.uniform_positive();
    const double u2 = rng.uniform();
    const double z =
        std::sqrt(-2.0 * std::log(u1)) * std::cos(6.283185307179586 * u2);
    const double x = std::exp(m + s * z);
    h.add(std::max<Degree>(1, static_cast<Degree>(std::llround(x))));
  }
  return h;
}

TEST(ModelZoo, EveryFamilyNormalizes) {
  stats::DegreeHistogram h;
  for (Degree d = 1; d <= 100; ++d) h.add(d, 101 - d);
  const Degree dmax = 100;
  const auto check = [&](const DiscreteModel& model) {
    double total = 0.0;
    for (Degree d = 1; d <= dmax; ++d) total += model.pmf(d);
    EXPECT_NEAR(total, 1.0, 1e-8) << model.family();
  };
  check(*fit_zeta_model(h, dmax));
  check(*fit_zipf_mandelbrot_model(h, dmax));
  check(*fit_powerlaw_cutoff_model(h, dmax));
  check(*fit_lognormal_model(h, dmax));
  check(*fit_geometric_model(h, dmax));
}

TEST(ModelZoo, NormalizersHandleHugeSupport) {
  // dmax >> head: exercises the Simpson / Gaussian tail branches.
  stats::DegreeHistogram h;
  h.add(1, 100);
  h.add(10, 20);
  h.add(100000, 1);
  const Degree dmax = 1u << 20;
  const auto check = [&](const DiscreteModel& model) {
    // Spot-integrate: cdf-ish partial sums must stay within [0, 1].
    double total = 0.0;
    for (Degree d = 1; d <= 4096; ++d) total += model.pmf(d);
    EXPECT_GE(total, 0.0) << model.family();
    EXPECT_LE(total, 1.0 + 1e-6) << model.family();
  };
  check(*fit_zeta_model(h, dmax));
  check(*fit_powerlaw_cutoff_model(h, dmax));
  check(*fit_lognormal_model(h, dmax));
}

TEST(ModelZoo, ZetaMleMatchesPowerLawRecovery) {
  const auto h = zeta_sample(2.3, 50000, 3);
  const auto model = fit_zeta_model(h);
  EXPECT_EQ(model->family(), "zeta");
  EXPECT_NEAR(model->parameters()[0].second, 2.3, 0.05);
}

TEST(ModelZoo, GeometricMleRecoversQ) {
  const auto h = geometric_sample(0.35, 50000, 5);
  const auto model = fit_geometric_model(h);
  EXPECT_NEAR(model->parameters()[0].second, 0.35, 0.01);
}

TEST(ModelZoo, LognormalMleRecoversParameters) {
  const auto h = lognormal_sample(2.0, 0.7, 60000, 7);
  const auto model = fit_lognormal_model(h);
  const auto params = model->parameters();
  EXPECT_NEAR(params[0].second, 2.0, 0.1);   // mu
  EXPECT_NEAR(params[1].second, 0.7, 0.08);  // sigma
}

TEST(ModelZoo, CutoffModelDetectsExponentialTruncation) {
  // Sample zeta then thin the tail with e^{−βd}: the cutoff fit should
  // find a clearly positive β where pure zeta data would give ~0.
  Rng rng(11);
  rng::BoundedZipfSampler zipf(1.8, 1u << 16);
  stats::DegreeHistogram h;
  const double beta_true = 0.02;
  Count kept = 0;
  while (kept < 40000) {
    const Degree d = zipf(rng);
    if (rng.uniform() <
        std::exp(-beta_true * static_cast<double>(d))) {
      h.add(d);
      ++kept;
    }
  }
  const auto model = fit_powerlaw_cutoff_model(h);
  const auto params = model->parameters();
  EXPECT_NEAR(params[0].second, 1.8, 0.15);        // alpha
  EXPECT_NEAR(params[1].second, beta_true, 0.01);  // beta
}

TEST(ModelZoo, AicRanksTrueFamilyFirstOnZetaData) {
  const auto h = zeta_sample(2.0, 40000, 13);
  const auto ranking = fit_all_models(h);
  ASSERT_GE(ranking.size(), 4u);
  // Zeta or one of its supersets (ZM with δ≈0, cutoff with β≈0) wins; the
  // geometric must be far behind on heavy-tailed data.
  EXPECT_NE(ranking.front().family, "geometric");
  EXPECT_EQ(ranking.back().family, "geometric");
  EXPECT_DOUBLE_EQ(ranking.front().delta_aic, 0.0);
  for (const auto& entry : ranking) {
    EXPECT_GE(entry.delta_aic, 0.0);
  }
}

TEST(ModelZoo, AicPrefersGeometricFamilyOnGeometricData) {
  // powerlaw-cutoff nests the geometric (α = 0), so the two can tie within
  // χ² noise; the requirement is that the geometric shape wins decisively
  // over the genuinely different families.
  const auto h = geometric_sample(0.2, 40000, 17);
  const auto ranking = fit_all_models(h);
  double geo_delta = 1e9, zeta_delta = 0.0, zm_delta = 0.0;
  for (const auto& entry : ranking) {
    if (entry.family == "geometric") geo_delta = entry.delta_aic;
    if (entry.family == "zeta") zeta_delta = entry.delta_aic;
    if (entry.family == "zipf-mandelbrot") zm_delta = entry.delta_aic;
  }
  EXPECT_LE(geo_delta, 2.5);
  EXPECT_GT(zeta_delta, 100.0);
  // ZM is not far behind: (d+δ)^{−α} with δ → ∞ tends to e^{−αd/δ}, an
  // exponential — so ZM can mimic geometric data, unlike pure zeta.  It
  // still pays its extra parameter.
  EXPECT_GT(zm_delta, geo_delta);
}

TEST(ModelZoo, ZipfMandelbrotWinsOnShiftedData) {
  // Sample from ZM with a strong offset: pure zeta cannot express the
  // flattened head, so ZM must beat it decisively.
  Rng rng(19);
  const Degree dmax = 1u << 14;
  std::vector<double> weights(dmax);
  for (Degree d = 1; d <= dmax; ++d) {
    weights[d - 1] = std::pow(static_cast<double>(d) + 5.0, -2.0);
  }
  rng::AliasSampler sampler(weights, 1);
  stats::DegreeHistogram h;
  for (int i = 0; i < 60000; ++i) h.add(sampler(rng));

  const auto zm = fit_zipf_mandelbrot_model(h, dmax);
  const auto zeta = fit_zeta_model(h, dmax);
  EXPECT_GT(zm->log_likelihood(h), zeta->log_likelihood(h));
  EXPECT_NEAR(zm->parameters()[0].second, 2.0, 0.15);   // alpha
  EXPECT_NEAR(zm->parameters()[1].second, 5.0, 1.0);    // delta

  const auto vuong = vuong_test(*zm, *zeta, h);
  EXPECT_GT(vuong.statistic, 2.0);
  EXPECT_LT(vuong.p_two_sided, 0.05);
}

TEST(ModelZoo, VuongIsAntisymmetricAndNullOnSelf) {
  const auto h = zeta_sample(2.0, 10000, 23);
  const auto zeta = fit_zeta_model(h);
  const auto geo = fit_geometric_model(h);
  const auto ab = vuong_test(*zeta, *geo, h);
  const auto ba = vuong_test(*geo, *zeta, h);
  EXPECT_NEAR(ab.statistic, -ba.statistic, 1e-10);
  const auto self = vuong_test(*zeta, *zeta, h);
  EXPECT_DOUBLE_EQ(self.statistic, 0.0);
  EXPECT_DOUBLE_EQ(self.p_two_sided, 1.0);
}

TEST(ModelZoo, AicPenalizesExtraParameters) {
  // On true-zeta data, ZM's extra δ gains ~nothing in likelihood, so AIC
  // must rank it behind (or at most tied with) plain zeta.
  const auto h = zeta_sample(2.5, 30000, 29);
  const auto zeta = fit_zeta_model(h);
  const auto zm = fit_zipf_mandelbrot_model(h);
  EXPECT_GE(zm->log_likelihood(h), zeta->log_likelihood(h) - 1e-6);
  EXPECT_GE(zm->aic(h), zeta->aic(h) - 0.5);
}

TEST(ModelZoo, PaluMixtureNormalizes) {
  stats::DegreeHistogram h;
  for (Degree d = 1; d <= 200; ++d) h.add(d, 201 - d);
  const auto model = fit_palu_mixture_model(h, 200);
  double total = 0.0;
  for (Degree d = 1; d <= 200; ++d) total += model->pmf(d);
  EXPECT_NEAR(total, 1.0, 1e-6);
  EXPECT_EQ(model->family(), "palu-mixture");
  EXPECT_EQ(model->num_parameters(), 4u);
}

TEST(ModelZoo, PaluMixtureBeatsZmOnPaluData) {
  // The headline question: on data generated by the PALU process, the
  // paper's own law should out-fit the empirical Zipf–Mandelbrot.
  const auto params =
      core::PaluParams::solve_hubs(6.0, 0.35, 0.25, 2.2, 0.9);
  Rng rng(31);
  const auto h = core::sample_observed_degrees(params, 250000, rng);
  const auto palu_model = fit_palu_mixture_model(h);
  const auto zm = fit_zipf_mandelbrot_model(h);
  EXPECT_GT(palu_model->log_likelihood(h), zm->log_likelihood(h));
  const auto vuong = vuong_test(*palu_model, *zm, h);
  EXPECT_GT(vuong.statistic, 2.0);
  // And its fitted μ lands near the true λ·p.
  const auto fitted = palu_model->parameters();
  double mu_hat = 0.0;
  for (const auto& [name, value] : fitted) {
    if (name == "mu") mu_hat = value;
  }
  EXPECT_NEAR(mu_hat, 6.0 * 0.9, 1.2);
}

TEST(ModelZoo, PaluMixtureDegeneratesGracefullyOnPureZeta) {
  // On pure power-law data the mixture should switch its bump weight off
  // and match zeta's likelihood (within the 3 extra parameters' slack).
  const auto h = zeta_sample(2.2, 40000, 37);
  const auto palu_model = fit_palu_mixture_model(h);
  const auto zeta = fit_zeta_model(h);
  EXPECT_GE(palu_model->log_likelihood(h),
            zeta->log_likelihood(h) - 1.0);
  const auto vuong = vuong_test(*palu_model, *zeta, h);
  EXPECT_LT(std::abs(vuong.statistic), 2.5);
}

TEST(ModelZoo, RejectsDegenerateInputs) {
  stats::DegreeHistogram empty;
  EXPECT_THROW(fit_zeta_model(empty), DataError);
  EXPECT_THROW(fit_all_models(empty), DataError);
  stats::DegreeHistogram h;
  h.add(50, 10);
  EXPECT_THROW(fit_zeta_model(h, 10), InvalidArgument);  // dmax < max d
}

TEST(ModelZoo, BicPenalizesHarderThanAicAtScale) {
  const auto h = zeta_sample(2.0, 30000, 43);
  const auto zeta = fit_zeta_model(h);
  const auto zm = fit_zipf_mandelbrot_model(h);
  // Identical-likelihood nesting: the BIC gap between the 2-parameter ZM
  // and the 1-parameter zeta must exceed the AIC gap by ln(n) − 2.
  const double aic_gap = zm->aic(h) - zeta->aic(h);
  const double bic_gap = zm->bic(h) - zeta->bic(h);
  EXPECT_NEAR(bic_gap - aic_gap,
              std::log(static_cast<double>(h.total())) - 2.0, 1e-9);
}

TEST(ModelZoo, RankingCarriesBicDeltas) {
  const auto h = zeta_sample(2.4, 15000, 47);
  const auto ranking = fit_all_models(h);
  bool some_zero = false;
  for (const auto& entry : ranking) {
    EXPECT_GE(entry.delta_bic, 0.0);
    some_zero = some_zero || entry.delta_bic == 0.0;
    // ln(15000) > 2, so BIC's penalty strictly exceeds AIC's.
    EXPECT_GT(entry.bic, entry.aic);
  }
  EXPECT_TRUE(some_zero);
}

TEST(ModelZoo, LogPmfRangeChecks) {
  stats::DegreeHistogram h;
  for (Degree d = 1; d <= 50; ++d) h.add(d, 51 - d);
  const auto model = fit_zeta_model(h, 50);
  EXPECT_THROW(model->log_pmf(0), InvalidArgument);
  EXPECT_THROW(model->log_pmf(51), InvalidArgument);
}

}  // namespace
}  // namespace palu::fit
