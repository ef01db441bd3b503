// Unit tests for the DMS tunable-exponent growth core, the webcrawl
// sampler, and the windowed streaming PALU estimator.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "palu/common/error.hpp"
#include "palu/core/generator.hpp"
#include "palu/core/streaming.hpp"
#include "palu/fit/powerlaw_mle.hpp"
#include "palu/graph/components.hpp"
#include "palu/graph/crawl.hpp"
#include "palu/graph/generators.hpp"
#include "palu/stats/distribution.hpp"

namespace palu {
namespace {

// ------------------------------------------------------------------ DMS

TEST(DmsAttachment, ZeroAttractivenessMatchesBaEdgeBudget) {
  Rng rng(1);
  const NodeId n = 5000;
  const graph::Graph g = graph::dms_attachment(rng, n, 3, 0.0);
  EXPECT_EQ(g.num_edges(), 6u + (n - 4) * 3u);
  const auto deg = g.degrees();
  EXPECT_EQ(*std::min_element(deg.begin(), deg.end()), 3u);
  // Grown graphs are connected.
  const auto census = graph::classify_topology(g);
  EXPECT_EQ(census.total_components() + census.isolated_nodes, 1u);
}

struct DmsCase {
  NodeId m;
  double a;
  double expected_alpha;  // 3 + a/m
};

class DmsExponent : public ::testing::TestWithParam<DmsCase> {};

TEST_P(DmsExponent, TailExponentTracksTheory) {
  const auto [m, a, expected] = GetParam();
  Rng rng(2);
  const graph::Graph g = graph::dms_attachment(rng, 60000, m, a);
  const auto h = stats::DegreeHistogram::from_degrees(g.degrees());
  const auto fitted = fit::fit_power_law_fixed_xmin(h, 2 * m + 2);
  EXPECT_NEAR(fitted.alpha, expected, 0.25)
      << "m=" << m << " a=" << a;
}

// a > 0 (α > 3) converges to its asymptotic slope too slowly for a tight
// finite-size check; the paper's range α ∈ (2, 3) (a < 0) is what we pin.
INSTANTIATE_TEST_SUITE_P(Sweep, DmsExponent,
                         ::testing::Values(DmsCase{2, 0.0, 3.0},
                                           DmsCase{2, -1.0, 2.5},
                                           DmsCase{2, -1.6, 2.2},
                                           DmsCase{3, -1.5, 2.5},
                                           DmsCase{1, -0.5, 2.5}));

TEST(DmsAttachment, RejectsBadParameters) {
  Rng rng(3);
  EXPECT_THROW(graph::dms_attachment(rng, 100, 0, 0.0), InvalidArgument);
  EXPECT_THROW(graph::dms_attachment(rng, 3, 3, 0.0), InvalidArgument);
  EXPECT_THROW(graph::dms_attachment(rng, 100, 2, -2.0), InvalidArgument);
}

// ---------------------------------------------------------------- crawl

TEST(BfsCrawl, RespectsBudgetAndInducesSubgraph) {
  Rng rng(4);
  const auto g = graph::barabasi_albert(rng, 5000, 2);
  const auto crawl = graph::bfs_crawl(rng, g, 500);
  EXPECT_EQ(crawl.visited.size(), 500u);
  EXPECT_EQ(crawl.subgraph.num_nodes(), 500u);
  EXPECT_GE(crawl.seed_count, 1u);
  // Every induced edge's endpoints are visited nodes with matching ids.
  for (const auto& e : crawl.subgraph.edges()) {
    ASSERT_LT(e.u, crawl.visited.size());
    ASSERT_LT(e.v, crawl.visited.size());
  }
}

TEST(BfsCrawl, ExhaustsSmallGraphs) {
  Rng rng(5);
  graph::Graph g(10);
  g.add_edge(0, 1);
  const auto crawl = graph::bfs_crawl(rng, g, 100);
  EXPECT_EQ(crawl.visited.size(), 10u);
  // Disconnected nodes require fresh seeds.
  EXPECT_GE(crawl.seed_count, 8u);
}

TEST(BfsCrawl, OversamplesSupernodes) {
  // The paper: webcrawls naturally sample the core/supernodes.  Compare
  // the crawl view's mean degree with the population mean.
  const auto params = core::PaluParams::solve_hubs(3.0, 0.3, 0.3, 2.1,
                                                   1.0);
  Rng rng(6);
  const auto net = core::generate_underlying(params, 100000, rng);
  const auto crawl = graph::bfs_crawl(rng, net.graph, 5000);
  const auto crawl_view =
      stats::EmpiricalDistribution::from_histogram(
          graph::crawl_view_degrees(net.graph, crawl));
  const auto population = stats::EmpiricalDistribution::from_histogram(
      stats::DegreeHistogram::from_degrees(net.graph.degrees()));
  EXPECT_GT(crawl_view.mean(), 1.5 * population.mean());
  // And it under-represents degree-1 nodes (leaves + star leaves).
  EXPECT_LT(crawl_view.mass_at_one(), population.mass_at_one());
}

TEST(BfsCrawl, MissesUnattachedComponents) {
  // A single-seed crawl that stays within its component sees zero
  // unattached links even when the network is full of them.
  const auto params = core::PaluParams::solve_hubs(1.0, 0.2, 0.1, 2.1,
                                                   1.0);
  Rng rng(7);
  const auto net = core::generate_underlying(params, 50000, rng);
  // Budget small enough that one core seed suffices whenever the seed
  // lands in the giant core (retry seeds until it does).
  graph::CrawlResult crawl;
  for (int attempt = 0; attempt < 50; ++attempt) {
    crawl = graph::bfs_crawl(rng, net.graph, 2000);
    if (crawl.seed_count == 1) break;
  }
  ASSERT_EQ(crawl.seed_count, 1u);
  const auto census = graph::classify_topology(crawl.subgraph);
  EXPECT_EQ(census.unattached_links, 0u);
}

TEST(BfsCrawl, ValidatesArguments) {
  Rng rng(8);
  EXPECT_THROW(graph::bfs_crawl(rng, graph::Graph(5), 0),
               InvalidArgument);
  EXPECT_THROW(graph::bfs_crawl(rng, graph::Graph(0), 10),
               InvalidArgument);
}

// ------------------------------------------------------------ streaming

TEST(WindowedStreamingEstimator, ThinFirstWindowLeavesLanesUnfitted) {
  // A first window too thin to fit has no earlier parameters to fall back
  // on: both lanes stay kNone and say why, and refit_window does not throw.
  core::WindowedStreamingEstimator est;
  stats::DegreeHistogram thin;
  thin.add(1, 5);
  thin.add(2, 2);
  core::StreamingRefit refit;
  ASSERT_NO_THROW(refit = est.refit_window(thin));
  EXPECT_EQ(est.windows_seen(), 1u);
  EXPECT_FALSE(refit.fresh);
  for (const core::StreamingFitSnapshot* lane :
       {&refit.window, &refit.sliding}) {
    EXPECT_EQ(lane->freshness, core::FitFreshness::kNone);
    EXPECT_FALSE(lane->error.empty());
  }
}

TEST(WindowedStreamingEstimator, BotWindowLiftsTumblingMu) {
  // Three windows from a low-λ regime, then one from a high-λ regime: the
  // tumbling lane fits that window alone, so its μ moves at once.  A
  // ladder warm-started from the calm fit settled at μ ≈ 0.6 here; the
  // shift has to start it cold.
  Rng rng(11);
  const auto calm = core::PaluParams::solve_hubs(1.0, 0.35, 0.25, 2.2,
                                                 1.0);
  const auto botty = core::PaluParams::solve_hubs(8.0, 0.35, 0.25, 2.2,
                                                  1.0);
  core::WindowedStreamingEstimator est;
  for (int w = 0; w < 3; ++w) {
    Rng wrng = rng.fork(w + 1);
    est.refit_window(core::sample_observed_degrees(calm, 80000, wrng));
  }
  ASSERT_EQ(est.window_fit().freshness, core::FitFreshness::kFresh);
  const double mu_before = est.window_fit().fit.mu;
  Rng wrng = rng.fork(50);
  const auto refit =
      est.refit_window(core::sample_observed_degrees(botty, 80000, wrng));
  ASSERT_TRUE(refit.fresh);
  EXPECT_GE(refit.window.fit.mu, 2.0 * mu_before);
}

}  // namespace
}  // namespace palu
