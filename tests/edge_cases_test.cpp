// Cross-module edge cases: tiny supports, extreme parameters, boundary
// windows — the inputs that break libraries in the field.
#include <gtest/gtest.h>

#include <cmath>

#include "palu/common/error.hpp"
#include "palu/core/estimate.hpp"
#include "palu/core/generator.hpp"
#include "palu/core/theory.hpp"
#include "palu/core/zm_connection.hpp"
#include "palu/fit/powerlaw_mle.hpp"
#include "palu/fit/zipf_mandelbrot.hpp"
#include "palu/graph/components.hpp"
#include "palu/graph/generators.hpp"
#include "palu/parallel/parallel_for.hpp"
#include "palu/rng/distributions.hpp"
#include "palu/stats/chisq.hpp"
#include "palu/stats/distribution.hpp"
#include "palu/stats/log_binning.hpp"
#include "palu/traffic/stream.hpp"

namespace palu {
namespace {

TEST(EdgeCases, ZipfMandelbrotTinySupports) {
  // dmax = 1: all mass at d = 1.
  const fit::ZipfMandelbrot one(2.0, 0.5, 1);
  EXPECT_DOUBLE_EQ(one.pmf(1), 1.0);
  EXPECT_DOUBLE_EQ(one.cdf(1), 1.0);
  const auto pooled1 = one.pooled();
  ASSERT_EQ(pooled1.num_bins(), 1u);
  EXPECT_DOUBLE_EQ(pooled1[0], 1.0);
  // dmax = 3: bins {1}, {2}, {3..4 truncated at 3}.
  const fit::ZipfMandelbrot three(1.5, 0.0, 3);
  const auto pooled3 = three.pooled();
  ASSERT_EQ(pooled3.num_bins(), 3u);
  EXPECT_NEAR(pooled3.total_mass(), 1.0, 1e-12);
  EXPECT_NEAR(pooled3[2], three.pmf(3), 1e-12);
}

TEST(EdgeCases, PaluZmCurveSingleton) {
  const core::PaluZmCurve curve(2.0, -0.5, 2.0, 1);
  EXPECT_DOUBLE_EQ(curve.pmf(1), 1.0);
  EXPECT_NEAR(curve.pooled().total_mass(), 1.0, 1e-12);
}

TEST(EdgeCases, LogBinnedAllMassAtOne) {
  stats::DegreeHistogram h;
  h.add(1, 1000);
  const auto pooled = stats::LogBinned::from_histogram(h);
  ASSERT_EQ(pooled.num_bins(), 1u);
  EXPECT_DOUBLE_EQ(pooled[0], 1.0);
}

TEST(EdgeCases, EmpiricalSingleSupportPoint) {
  stats::DegreeHistogram h;
  h.add(7, 42);
  const auto dist = stats::EmpiricalDistribution::from_histogram(h);
  EXPECT_DOUBLE_EQ(dist.probability_at(7), 1.0);
  EXPECT_DOUBLE_EQ(dist.cumulative_at(6), 0.0);
  EXPECT_DOUBLE_EQ(dist.cumulative_at(7), 1.0);
  EXPECT_EQ(dist.max_value(), 7u);
  EXPECT_DOUBLE_EQ(dist.mean(), 7.0);
}

TEST(EdgeCases, PowerLawXminAboveSupportThrows) {
  stats::DegreeHistogram h;
  h.add(1, 10);
  h.add(2, 5);
  EXPECT_THROW(fit::fit_power_law_fixed_xmin(h, 100), DataError);
}

TEST(EdgeCases, SingleThreadPoolStillOrdersReduce) {
  ThreadPool pool(1);
  const auto concat = parallel_reduce<std::string>(
      pool, 0, 26, 1, std::string{},
      [](IndexRange r) {
        std::string s;
        for (std::size_t i = r.begin; i < r.end; ++i) {
          s.push_back(static_cast<char>('a' + i));
        }
        return s;
      },
      [](std::string a, std::string b) { return a + b; });
  EXPECT_EQ(concat, "abcdefghijklmnopqrstuvwxyz");
}

TEST(EdgeCases, TinyWindowParameter) {
  // p = 1e-6: the theory must stay finite and positive.
  const auto params =
      core::PaluParams::solve_hubs(5.0, 0.4, 0.2, 2.2, 1e-6);
  const auto comp = core::observed_composition(params);
  EXPECT_GT(comp.visible_mass, 0.0);
  EXPECT_LT(comp.visible_mass, 1.0);
  EXPECT_GT(core::degree_share(params, 1), 0.0);
  const auto k = core::simplified_constants(params);
  EXPECT_NEAR(k.mu, 5e-6, 1e-12);
}

TEST(EdgeCases, DegreeShareAtHugeDegreeUnderflowsGracefully) {
  const auto params =
      core::PaluParams::solve_hubs(3.0, 0.4, 0.2, 2.2, 0.7);
  const double s = core::degree_share(params, Degree{1} << 40);
  EXPECT_GT(s, 0.0);
  EXPECT_LT(s, 1e-20);
}

TEST(EdgeCases, SteepZipfConcentratesAtMinimum) {
  rng::BoundedZipfSampler zipf(30.0, 5, 1000);
  Rng rng(1);
  int at_min = 0;
  for (int i = 0; i < 1000; ++i) at_min += (zipf(rng) == 5);
  EXPECT_GT(at_min, 990);
}

TEST(EdgeCases, AliasSingleOutcome) {
  rng::AliasSampler alias({3.0});
  Rng rng(2);
  for (int i = 0; i < 50; ++i) EXPECT_EQ(alias(rng), 0u);
}

TEST(EdgeCases, EmptyGraphOperations) {
  const graph::Graph g(0);
  EXPECT_TRUE(g.degrees().empty());
  EXPECT_EQ(graph::connected_components(g).size(), 0u);
  const auto census = graph::classify_topology(g);
  EXPECT_EQ(census.total_components(), 0u);
  EXPECT_EQ(census.isolated_nodes, 0u);
}

TEST(EdgeCases, ConnectByEdgeSwapWithMultiEdges) {
  Rng rng(3);
  graph::Graph g(6);
  g.add_edge(0, 1);
  g.add_edge(0, 1);  // parallel edge
  g.add_edge(2, 3);
  g.add_edge(2, 3);
  g.add_edge(4, 5);
  const auto out = graph::connect_by_edge_swap(rng, g);
  EXPECT_EQ(out.num_edges(), 5u);
  EXPECT_EQ(out.degrees(), g.degrees());
  // Multi-edge components carry cycles (in the multigraph sense), so the
  // merge has fuel; at minimum nothing crashes and degrees hold.
}

TEST(EdgeCases, FitPaluAllMassInTail) {
  // No head at all: l must come back 0 and the fit still stands.
  stats::DegreeHistogram h;
  for (Degree d = 10; d <= 2000; ++d) {
    const auto count = static_cast<Count>(
        std::llround(1e8 * std::pow(static_cast<double>(d), -2.0)));
    if (count > 0) h.add(d, count);
  }
  const auto fit = core::fit_palu(h);
  EXPECT_NEAR(fit.alpha, 2.0, 0.05);
  EXPECT_DOUBLE_EQ(fit.l, 0.0);
}

TEST(EdgeCases, ChiSquareRaggedBinCounts) {
  // Observed has more bins than the model and vice versa: missing bins
  // count as zero mass on either side.
  const stats::LogBinned obs({0.5, 0.3, 0.15, 0.05});
  const stats::LogBinned model({0.5, 0.3, 0.2});
  const auto r1 = stats::chi_square_pooled(obs, model, 1000, 0);
  EXPECT_GE(r1.statistic, 0.0);
  const auto r2 = stats::chi_square_pooled(model, obs, 1000, 0);
  EXPECT_GE(r2.statistic, 0.0);
}

TEST(EdgeCases, DeltaFromParamsExtremes) {
  // Star-free-ish network: u/c → 0 from above, δ → 0 from below.
  const auto params =
      core::PaluParams::solve_hubs(19.9, 0.89, 0.05, 2.0, 1.0);
  const double delta = core::delta_from_params(params);
  EXPECT_LT(delta, 0.0);
  EXPECT_GT(delta, -0.1);
}

TEST(EdgeCases, GenerateUnderlyingMinimumViableScale) {
  // The smallest N whose rounded core is >= 2.
  const auto params =
      core::PaluParams::solve_hubs(1.0, 0.5, 0.2, 2.0, 0.5);
  Rng rng(4);
  const auto net = core::generate_underlying(params, 4, rng);
  EXPECT_GE(net.core_size(), 2u);
  EXPECT_NO_THROW(core::generate_observed(net, params, rng));
}

TEST(EdgeCases, WindowAtExactlyOnePacket) {
  Rng gen_rng(5);
  graph::Graph g(2);
  g.add_edge(0, 1);
  traffic::SyntheticTrafficGenerator stream(g, traffic::RateModel{},
                                            Rng(6));
  const auto window = stream.window(1);
  EXPECT_EQ(window.total(), 1u);
  EXPECT_EQ(window.nnz(), 1u);
}

}  // namespace
}  // namespace palu
