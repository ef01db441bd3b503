// Unit tests for the Section IV-B estimation pipeline.
#include <gtest/gtest.h>

#include <cmath>
#include <numbers>
#include <string>
#include <vector>

#include "palu/common/error.hpp"
#include "palu/core/estimate.hpp"
#include "palu/core/generator.hpp"
#include "palu/core/streaming.hpp"
#include "palu/core/theory.hpp"
#include "palu/fit/model_zoo.hpp"
#include "palu/math/gamma.hpp"
#include "palu/rng/distributions.hpp"
#include "palu/stats/histogram.hpp"
#include "palu/traffic/quantities.hpp"
#include "palu/traffic/stream.hpp"
#include "palu/traffic/window_accumulator.hpp"

namespace palu::core {
namespace {

// A noise-free histogram following the simplified PALU law:
//   mass(1) = c + l + u·μ(e^μ+1); mass(d>=2) = c·d^{−α} + u·μ^d/d!.
// The histogram normalizer rescales everything by the total mass S, so
// recovered constants are the inputs divided by S.
struct ExactLaw {
  stats::DegreeHistogram hist;
  double total_mass = 0.0;  // S
};

ExactLaw exact_law_histogram(double c, double l, double u, double mu,
                             double alpha, Degree dmax, Count scale) {
  ExactLaw out;
  const double p1 =
      c + l + (mu > 0.0 ? u * mu * (std::exp(mu) + 1.0) : 0.0);
  out.hist.add(1, static_cast<Count>(std::llround(
                      p1 * static_cast<double>(scale))));
  out.total_mass = p1;
  for (Degree d = 2; d <= dmax; ++d) {
    double share = c * std::pow(static_cast<double>(d), -alpha);
    if (mu > 0.0 && u > 0.0) {
      share += u * std::exp(static_cast<double>(d) * std::log(mu) -
                            math::log_factorial(d));
    }
    out.total_mass += share;
    const auto count = static_cast<Count>(
        std::llround(share * static_cast<double>(scale)));
    if (count > 0) out.hist.add(d, count);
  }
  return out;
}

// The Poisson bump of μ ≈ 3 leaks past d = 10, so the exact-law tests move
// the tail start to 16 where the bump is < 1e-3 of the core term.
PaluFitOptions exact_law_options() {
  PaluFitOptions opts;
  opts.tail_min = 16;
  return opts;
}

TEST(FitPalu, RecoversExactLawParameters) {
  const double c = 0.30, l = 0.25, u = 0.04, mu = 2.5, alpha = 2.2;
  const auto law =
      exact_law_histogram(c, l, u, mu, alpha, 1u << 14, 4'000'000'000ull);
  const double s = law.total_mass;
  const PaluFit fit = fit_palu(law.hist, exact_law_options());
  EXPECT_NEAR(fit.alpha, alpha, 0.02);
  EXPECT_NEAR(fit.c, c / s, 0.02 * c / s);
  EXPECT_NEAR(fit.mu, mu, 0.1);
  EXPECT_NEAR(fit.u, u / s, 0.15 * u / s);
  EXPECT_NEAR(fit.l, l / s, 0.05);
  EXPECT_TRUE(fit.mu_identifiable);
  EXPECT_GT(fit.tail_r_squared, 0.999);
  EXPECT_NEAR(fit.lambda_cap(), std::numbers::e * fit.mu, 1e-12);
}

TEST(FitPalu, PureCoreGivesZeroBump) {
  // No stars: the excess after subtracting c·d^{−α} is ~0, so μ and u
  // must come back (near) zero and l absorbs the leaf surplus.
  const double c = 0.4, l = 0.5;
  const auto law = exact_law_histogram(c, l, 0.0, 1.0, 2.0, 1u << 14,
                                       4'000'000'000ull);
  const double s = law.total_mass;
  const PaluFit fit = fit_palu(law.hist, exact_law_options());
  EXPECT_NEAR(fit.alpha, 2.0, 0.02);
  EXPECT_LT(fit.u * fit.mu, 1e-3);
  EXPECT_NEAR(fit.l, l / s, 0.05);
}

TEST(FitPalu, PredictedShareReproducesInputLaw) {
  const double c = 0.25, l = 0.3, u = 0.03, mu = 3.0, alpha = 2.5;
  const auto law =
      exact_law_histogram(c, l, u, mu, alpha, 1u << 14, 4'000'000'000ull);
  const PaluFit fit = fit_palu(law.hist, exact_law_options());
  const auto dist = stats::EmpiricalDistribution::from_histogram(law.hist);
  for (Degree d = 1; d <= 32; ++d) {
    const double measured = dist.probability_at(d);
    if (measured == 0.0) continue;
    EXPECT_NEAR(fit.predicted_share(d), measured,
                0.08 * measured + 1e-6)
        << "d=" << d;
  }
}

TEST(FitPalu, MonteCarloRecovery) {
  // End-to-end: generate a PALU network, fit the constants, compare with
  // the theory values (Monte-Carlo + approximation bands).
  const PaluParams p = PaluParams::solve_hubs(
      /*lambda=*/6.0, /*core=*/0.35, /*leaves=*/0.25, /*alpha=*/2.3,
      /*window=*/0.8);
  Rng rng(77);
  const auto h = sample_observed_degrees(p, 600000, rng);
  const PaluFit fit = fit_palu(h);
  const auto k = simplified_constants(p);
  EXPECT_NEAR(fit.alpha, p.alpha, 0.25);
  EXPECT_NEAR(fit.mu, k.mu, 0.2 * k.mu);
  EXPECT_NEAR(fit.l + fit.c, k.l + k.c, 0.3 * (k.l + k.c));
}

TEST(FitPalu, TailTooShortThrows) {
  stats::DegreeHistogram h;
  h.add(1, 100);
  h.add(2, 50);
  h.add(12, 5);  // only one point at/above tail_min
  EXPECT_THROW(fit_palu(h), DataError);
}

TEST(FitPalu, NotIdentifiableWithoutExcess) {
  // A pure zeta law (no degree-1 surplus, no bump): μ cannot be identified.
  stats::DegreeHistogram h;
  const double alpha = 2.0;
  for (Degree d = 1; d <= 4096; ++d) {
    const auto count = static_cast<Count>(std::llround(
        1e9 * std::pow(static_cast<double>(d), -alpha)));
    if (count > 0) h.add(d, count);
  }
  const PaluFit fit = fit_palu(h);
  EXPECT_NEAR(fit.alpha, alpha, 0.02);
  EXPECT_FALSE(fit.mu_identifiable);
  EXPECT_DOUBLE_EQ(fit.u, 0.0);
  EXPECT_DOUBLE_EQ(fit.mu, 0.0);
}

TEST(FitPalu, OptionsControlTailStart) {
  const double c = 0.30, l = 0.25, u = 0.04, mu = 2.0;
  const auto law =
      exact_law_histogram(c, l, u, mu, 2.2, 1u << 14, 4'000'000'000ull);
  PaluFitOptions opts;
  opts.tail_min = 20;
  const PaluFit fit = fit_palu(law.hist, opts);
  EXPECT_NEAR(fit.alpha, 2.2, 0.02);
  EXPECT_THROW(
      [&] {
        PaluFitOptions bad;
        bad.tail_min = 1;
        return fit_palu(law.hist, bad);
      }(),
      InvalidArgument);
}

// ------------------------------------------------- profile likelihood

// iid draws from the simplified law (2)-(4) itself, as in
// bench_estimator_recovery: no generator, no approximation gap.
stats::DegreeHistogram iid_law_histogram(double c, double l, double u,
                                         double mu, double alpha,
                                         Count draws, std::uint64_t seed) {
  std::vector<double> weights = {c + l + u * mu * (std::exp(mu) + 1.0)};
  for (Degree d = 2; d <= (1u << 14); ++d) {
    weights.push_back(c * std::pow(static_cast<double>(d), -alpha) +
                      u * std::exp(static_cast<double>(d) * std::log(mu) -
                                   math::log_factorial(d)));
  }
  const rng::AliasSampler sampler(weights, /*offset=*/1);
  Rng rng(seed);
  stats::DegreeHistogram h;
  for (Count i = 0; i < draws; ++i) h.add(sampler(rng));
  return h;
}

TEST(ProfileFit, RecoversExactLawParameters) {
  const double c = 0.30, l = 0.25, u = 0.04, mu = 2.5, alpha = 2.2;
  const auto law =
      exact_law_histogram(c, l, u, mu, alpha, 1u << 14, 4'000'000'000ull);
  const double s = law.total_mass;
  const RobustPaluFit fit = robust_fit_palu(law.hist);
  ASSERT_EQ(fit.stage, fit::RobustStage::kMle);
  EXPECT_NEAR(fit.fit.alpha, alpha, 0.01);
  EXPECT_NEAR(fit.fit.mu, mu, 0.01);
  EXPECT_NEAR(fit.fit.c, c / s, 0.01 * c / s);
  EXPECT_NEAR(fit.fit.u, u / s, 0.01 * u / s);
  EXPECT_NEAR(fit.fit.l, l / s, 0.01 * l / s);
  EXPECT_TRUE(fit.fit.mu_identifiable);
}

TEST(ProfileFit, AgreesWithModelZooMixture) {
  // fit_palu_mixture_model maximizes the same d >= 2 likelihood with a
  // 4-D Nelder–Mead (no pooled tail, no l >= 0 constraint): an
  // independent reference.  Its zeta part is normalized over 1..dmax, so
  // dmax is the law's own support: at μ = 6 the observed d_max is ~110,
  // and truncating there pulls its α̂ down by up to 8%.
  for (const double mu : {2.5, 6.0}) {
    SCOPED_TRACE("mu=" + std::to_string(mu));
    const auto h = iid_law_histogram(0.30, 0.25, 0.04, mu, 2.2, 200000, 31);
    const RobustPaluFit fit = robust_fit_palu(h);
    ASSERT_EQ(fit.stage, fit::RobustStage::kMle);
    const auto zoo = fit::fit_palu_mixture_model(h, 1u << 14);
    double zoo_alpha = 0.0;
    double zoo_mu = 0.0;
    for (const auto& [name, value] : zoo->parameters()) {
      if (name == "alpha") zoo_alpha = value;
      if (name == "mu") zoo_mu = value;
    }
    EXPECT_NEAR(fit.fit.alpha, zoo_alpha, 0.02 * zoo_alpha);
    EXPECT_NEAR(fit.fit.mu, zoo_mu, 0.02 * zoo_mu);
    EXPECT_NEAR(fit.fit.mu, mu, 0.02 * mu);
  }
}

TEST(ProfileFit, ServedLikelihoodAtLeastMomentFit) {
  // Bench-like windows: 20000-packet windows of traffic over a PALU
  // network with the serve benchmark's parameters, fitted by the
  // streaming estimator as `serve` fits them.
  Rng rng(17);
  const auto net = generate_underlying(
      PaluParams::solve_hubs(6.0, 0.35, 0.2, 2.3, 1.0), 50000, rng);
  traffic::SyntheticTrafficGenerator gen(
      net.graph,
      traffic::make_edge_rates(net.graph, traffic::RateModel{},
                               Rng(17).fork(1)),
      Rng(3));
  std::vector<traffic::Packet> packets(20000);
  traffic::WindowAccumulator acc;
  WindowedStreamingEstimator served;
  for (int w = 0; w < 6; ++w) {
    SCOPED_TRACE("window " + std::to_string(w));
    gen.next_batch(packets);
    acc.begin_window();
    for (const auto& p : packets) acc.add(p.src, p.dst);
    const auto h = acc.histogram(traffic::Quantity::kUndirectedDegree);
    const auto refit = served.refit_window(h);
    ASSERT_TRUE(refit.fresh);
    ASSERT_EQ(refit.window.stage, fit::RobustStage::kMle);
    const PaluFit moments = fit_palu(h);
    const auto dist = stats::EmpiricalDistribution::from_histogram(h);
    const double at_served = palu_profile_log_likelihood(
        dist, refit.window.fit.alpha, refit.window.fit.mu);
    const double at_moments =
        palu_profile_log_likelihood(dist, moments.alpha, moments.mu);
    EXPECT_GE(at_served, at_moments - 1e-9 * std::abs(at_moments));
  }
}

TEST(ProfileFit, UnidentifiedBumpFollowsBoundaryRules) {
  // μ = 0.5 at 2e4 draws: the bump adds ~7% at d = 2 and is not
  // identified.  Every replicate still returns finite constants with
  // l >= 0, and a μ̂ strictly inside [0.05, mu_cap] unless it is flagged.
  const PaluFitOptions opts;
  int flagged = 0;
  for (std::uint64_t rep = 0; rep < 20; ++rep) {
    SCOPED_TRACE("replicate " + std::to_string(rep));
    const auto h =
        iid_law_histogram(0.30, 0.25, 0.04, 0.5, 2.2, 20000, 9000 + rep);
    const RobustPaluFit fit = robust_fit_palu(h, opts);
    ASSERT_TRUE(fit.ok());
    const PaluFit& f = fit.fit;
    EXPECT_TRUE(std::isfinite(f.u) && f.u >= 0.0) << f.u;
    EXPECT_TRUE(std::isfinite(f.c) && f.c > 0.0);
    EXPECT_GE(f.l, 0.0);
    if (f.mu_identifiable) {
      EXPECT_GT(f.mu, 0.05);
      EXPECT_LT(f.mu, opts.mu_cap);
    } else {
      ++flagged;
      EXPECT_TRUE(f.mu == 0.0 || (f.mu >= 0.05 && f.mu <= opts.mu_cap));
      if (f.mu == 0.0) {
        EXPECT_EQ(f.u, 0.0);
      }
    }
  }
  RecordProperty("flagged", flagged);
}

TEST(ProfileFit, DegreesAboveRefineMaxPoolIntoOneCell) {
  // Moving mass around above refine_max leaves the pooled cell, and so
  // the fit, unchanged bit for bit.
  const auto base =
      iid_law_histogram(0.30, 0.25, 0.04, 2.5, 2.2, 50000, 5);
  stats::DegreeHistogram near;
  stats::DegreeHistogram far;
  for (const auto& [d, n] : base.sorted()) {
    near.add(d, n);
    far.add(d > 256 ? d * 40 : d, n);
  }
  ASSERT_GT(far.max_degree(), near.max_degree());
  const RobustPaluFit a = robust_fit_palu(near);
  const RobustPaluFit b = robust_fit_palu(far);
  ASSERT_EQ(a.stage, fit::RobustStage::kMle);
  EXPECT_EQ(a.stage, b.stage);
  EXPECT_EQ(a.fit.alpha, b.fit.alpha);
  EXPECT_EQ(a.fit.mu, b.fit.mu);
  EXPECT_EQ(a.fit.c, b.fit.c);
  EXPECT_EQ(a.fit.u, b.fit.u);
  EXPECT_EQ(a.fit.l, b.fit.l);
}

TEST(ProfileFit, LikelihoodValidatesArguments) {
  const auto h = iid_law_histogram(0.30, 0.25, 0.04, 2.5, 2.2, 5000, 7);
  const auto dist = stats::EmpiricalDistribution::from_histogram(h);
  EXPECT_THROW(palu_profile_log_likelihood(dist, 1.0, 2.0),
               InvalidArgument);
  EXPECT_THROW(palu_profile_log_likelihood(dist, 2.0, -1.0),
               InvalidArgument);
  // μ = 0 is the zeta core alone, which no bump can beat downwards.
  EXPECT_LE(palu_profile_log_likelihood(dist, 2.2, 0.0),
            palu_profile_log_likelihood(dist, 2.2, 2.5));
}

TEST(EstimateMuPointwise, AgreesOnExactLaw) {
  const double c = 0.30, l = 0.25, u = 0.04, mu = 2.5, alpha = 2.2;
  const auto law =
      exact_law_histogram(c, l, u, mu, alpha, 1u << 14, 4'000'000'000ull);
  const auto dist = stats::EmpiricalDistribution::from_histogram(law.hist);
  const double mu_hat =
      estimate_mu_pointwise(dist, c / law.total_mass, alpha);
  EXPECT_NEAR(mu_hat, mu, 0.15 * mu);
}

TEST(EstimateMuPointwise, HigherVarianceThanMomentRatio) {
  // The paper's claim behind the moment-ratio route: across noisy
  // replicates, the point-wise estimator scatters more.  (The ablation
  // bench quantifies this; here we just check both produce finite
  // estimates on sampled data.)
  const PaluParams p = PaluParams::solve_hubs(5.0, 0.3, 0.2, 2.4, 0.9);
  Rng rng(5);
  const auto h = sample_observed_degrees(p, 200000, rng);
  const PaluFit fit = fit_palu(h);
  const auto dist = stats::EmpiricalDistribution::from_histogram(h);
  const double mu_pw = estimate_mu_pointwise(dist, fit.c, fit.alpha);
  EXPECT_GT(fit.mu, 0.0);
  EXPECT_GT(mu_pw, 0.0);
}

}  // namespace
}  // namespace palu::core
