// Unit tests for palu/core generator: underlying/observed network sampling
// against the Section IV/V predictions (Monte-Carlo with generous bands).
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>

#include "palu/common/error.hpp"
#include "palu/core/generator.hpp"
#include "palu/core/theory.hpp"
#include "palu/fit/powerlaw_mle.hpp"
#include "palu/graph/components.hpp"
#include "palu/stats/distribution.hpp"

namespace palu::core {
namespace {

PaluParams typical_params() {
  return PaluParams::solve_hubs(/*lambda=*/2.0, /*core=*/0.4,
                                /*leaves=*/0.25, /*alpha=*/2.2,
                                /*window=*/0.6);
}

TEST(GenerateUnderlying, ClassLayoutMatchesProportions) {
  const PaluParams p = typical_params();
  Rng rng(1);
  const NodeId n = 100000;
  const auto net = generate_underlying(p, n, rng);
  EXPECT_EQ(net.core_size(),
            static_cast<NodeId>(std::llround(p.core * n)));
  EXPECT_EQ(net.leaf_size(),
            static_cast<NodeId>(std::llround(p.leaves * n)));
  EXPECT_EQ(net.hub_size(),
            static_cast<NodeId>(std::llround(p.hubs * n)));
  // Total nodes ≈ n (star leaves are Poisson with mean hubs·λ, and the
  // constraint makes the expected total equal exactly n up to e^{−λ}·hubs
  // invisible-isolate bookkeeping).
  const double expected_total =
      static_cast<double>(n) *
      (p.core + p.leaves + p.hubs * (1.0 + p.lambda));
  EXPECT_NEAR(static_cast<double>(net.graph.num_nodes()), expected_total,
              5.0 * std::sqrt(expected_total));
}

TEST(GenerateUnderlying, LeavesHaveDegreeOne) {
  const PaluParams p = typical_params();
  Rng rng(2);
  const auto net = generate_underlying(p, 20000, rng);
  const auto deg = net.graph.degrees();
  for (NodeId v = net.leaf_begin; v < net.leaf_end; ++v) {
    ASSERT_EQ(deg[v], 1u) << "leaf " << v;
  }
  // Star leaves too.
  for (NodeId v = net.hub_end; v < net.graph.num_nodes(); ++v) {
    ASSERT_EQ(deg[v], 1u) << "star leaf " << v;
  }
}

TEST(GenerateUnderlying, LeavesAnchorOnlyToCore) {
  const PaluParams p = typical_params();
  Rng rng(3);
  const auto net = generate_underlying(p, 20000, rng);
  std::size_t leaf_edges = 0;
  for (const auto& e : net.graph.edges()) {
    const bool u_leaf = e.u >= net.leaf_begin && e.u < net.leaf_end;
    const bool v_leaf = e.v >= net.leaf_begin && e.v < net.leaf_end;
    if (!u_leaf && !v_leaf) continue;
    ++leaf_edges;
    const NodeId anchor = u_leaf ? e.v : e.u;
    EXPECT_LT(anchor, net.core_end) << "leaf anchored outside the core";
  }
  EXPECT_EQ(leaf_edges, net.leaf_size());
}

TEST(GenerateUnderlying, HubLeafCountsHavePoissonMean) {
  const PaluParams p = typical_params();
  Rng rng(4);
  const auto net = generate_underlying(p, 150000, rng);
  const auto deg = net.graph.degrees();
  double total = 0.0;
  for (NodeId v = net.hub_begin; v < net.hub_end; ++v) {
    total += static_cast<double>(deg[v]);
  }
  const double mean = total / static_cast<double>(net.hub_size());
  EXPECT_NEAR(mean, p.lambda,
              6.0 * std::sqrt(p.lambda /
                              static_cast<double>(net.hub_size())));
}

TEST(GenerateUnderlying, PreferentialLeavesPileOntoSupernodes) {
  // With preferential attachment, the most-anchored core node should carry
  // far more leaves than the uniform expectation.
  PaluParams p = typical_params();
  Rng rng_pref(5);
  GeneratorOptions pref;
  pref.leaf_attachment = LeafAttachment::kPreferential;
  const auto net_p = generate_underlying(p, 60000, rng_pref, pref);

  Rng rng_unif(5);
  GeneratorOptions unif;
  unif.leaf_attachment = LeafAttachment::kUniform;
  const auto net_u = generate_underlying(p, 60000, rng_unif, unif);

  // Compare the heaviest single anchor's leaf count: preferential anchors
  // concentrate on supernodes, uniform anchors spread ~L·N/C·N per node.
  const auto max_anchor_load = [](const UnderlyingNetwork& net) {
    std::vector<Count> load(net.core_end, 0);
    for (const auto& e : net.graph.edges()) {
      const bool u_leaf = e.u >= net.leaf_begin && e.u < net.leaf_end;
      const bool v_leaf = e.v >= net.leaf_begin && e.v < net.leaf_end;
      if (u_leaf == v_leaf) continue;  // not a core-leaf edge
      const NodeId anchor = u_leaf ? e.v : e.u;
      if (anchor < net.core_end) ++load[anchor];
    }
    return *std::max_element(load.begin(), load.end());
  };
  EXPECT_GT(max_anchor_load(net_p), 10 * max_anchor_load(net_u));
}

TEST(GenerateUnderlying, RespectsCoreDmaxOption) {
  Rng rng(6);
  GeneratorOptions opts;
  opts.core_dmax = 8;
  opts.leaf_attachment = LeafAttachment::kUniform;
  PaluParams no_leaves = PaluParams::solve_hubs(2.0, 0.4, 0.0, 2.2, 0.6);
  const auto net = generate_underlying(no_leaves, 20000, rng, opts);
  const auto deg = net.graph.degrees();
  for (NodeId v = net.core_begin; v < net.core_end; ++v) {
    // Parity fix can add one stub beyond the cap.
    ASSERT_LE(deg[v], 9u);
  }
}

TEST(GenerateUnderlying, DmsGrowthCoreIsConnectedWithRightTail) {
  const PaluParams p = PaluParams::solve_hubs(2.0, 0.5, 0.1, 2.5, 0.8);
  Rng rng(21);
  GeneratorOptions opts;
  opts.core_kind = CoreKind::kDmsGrowth;
  opts.dms_edges_per_node = 2;
  const auto net = generate_underlying(p, 120000, rng, opts);
  // Core portion alone is connected (grown process).
  graph::Graph core_only(net.core_size());
  for (const auto& e : net.graph.edges()) {
    if (e.u < net.core_end && e.v < net.core_end) {
      core_only.add_edge(e.u, e.v);
    }
  }
  const auto census = graph::classify_topology(core_only);
  EXPECT_EQ(census.total_components() + census.isolated_nodes, 1u);
  // Core degree tail exponent near alpha.
  std::vector<Degree> core_deg(net.core_size());
  const auto deg = net.graph.degrees();
  for (NodeId v = 0; v < net.core_size(); ++v) core_deg[v] = deg[v];
  const auto h = stats::DegreeHistogram::from_degrees(core_deg);
  const auto fitted = fit::fit_power_law_fixed_xmin(h, 8);
  EXPECT_NEAR(fitted.alpha, p.alpha, 0.35);
}

TEST(GenerateUnderlying, DmsGrowthRejectsShallowAlpha) {
  const PaluParams p = PaluParams::solve_hubs(2.0, 0.5, 0.1, 1.8, 0.8);
  Rng rng(22);
  GeneratorOptions opts;
  opts.core_kind = CoreKind::kDmsGrowth;
  EXPECT_THROW(generate_underlying(p, 50000, rng, opts), InvalidArgument);
}

TEST(GenerateUnderlying, PinnedEdgeChecksum) {
  // FNV-1a over every edge's endpoints, in order, captured while the
  // edge-swap merge of the configuration core was still an option; it
  // always runs now, as it did by default, so the network may not change.
  Rng rng(11);
  const auto net = generate_underlying(
      PaluParams::solve_hubs(6.0, 0.35, 0.2, 2.3, 1.0), 20000, rng);
  std::uint64_t checksum = 14695981039346656037ull;
  for (const auto& e : net.graph.edges()) {
    for (const std::uint64_t x : {std::uint64_t{e.u}, std::uint64_t{e.v}}) {
      checksum = (checksum ^ x) * 1099511628211ull;
    }
  }
  EXPECT_EQ(net.graph.num_nodes(), 19950u);
  EXPECT_EQ(net.graph.num_edges(), 20302u);
  EXPECT_EQ(checksum, 0x8743e04baab6bf42ull);
}

TEST(GenerateUnderlying, TooSmallNThrows) {
  const PaluParams p = typical_params();
  Rng rng(7);
  EXPECT_THROW(generate_underlying(p, 2, rng), InvalidArgument);
}

TEST(GenerateObserved, EdgeThinningMatchesWindow) {
  const PaluParams p = typical_params();
  Rng rng(8);
  const auto net = generate_underlying(p, 50000, rng);
  const auto observed = generate_observed(net, p, rng);
  const double kept = static_cast<double>(observed.num_edges());
  const double total = static_cast<double>(net.graph.num_edges());
  EXPECT_NEAR(kept / total, p.window,
              6.0 * std::sqrt(p.window * (1 - p.window) / total));
  EXPECT_EQ(observed.num_nodes(), net.graph.num_nodes());
}

TEST(GenerateObserved, CompositionMatchesTheory) {
  // Monte-Carlo class shares vs Section IV predictions.  The paper's core
  // visibility uses an integral approximation, so the band is loose for
  // core but tight for leaves/stars (whose forms are exact).
  const PaluParams p = typical_params();
  Rng rng(9);
  const NodeId n = 300000;
  const auto net = generate_underlying(p, n, rng);
  const auto observed = generate_observed(net, p, rng);
  const auto deg = observed.degrees();

  double visible_core = 0.0, visible_leaf = 0.0, visible_star = 0.0;
  for (NodeId v = 0; v < observed.num_nodes(); ++v) {
    if (deg[v] == 0) continue;
    if (v < net.core_end) {
      visible_core += 1.0;
    } else if (v < net.leaf_end) {
      visible_leaf += 1.0;
    } else {
      visible_star += 1.0;
    }
  }
  // Compare class *masses* (per underlying node scale N): the leaf and
  // star forms are exact, so their bands are tight; the core band uses the
  // exact thinned form (the paper's integral form is off by an O(1)
  // factor, which bench_theory_vs_sim quantifies).
  const double nd = static_cast<double>(n);
  const double mu = p.lambda * p.window;
  EXPECT_NEAR(visible_leaf / nd, p.leaves * p.window,
              0.05 * p.leaves * p.window);
  EXPECT_NEAR(visible_star / nd,
              p.hubs * (1.0 + mu - std::exp(-mu)),
              0.05 * p.hubs * (1.0 + mu - std::exp(-mu)));
  // Core: exact thinned visibility; leaf anchors add a little extra core
  // visibility, hence the slightly one-sided band.
  const double core_exact = visible_mass_exact(p) - p.leaves * p.window -
                            p.hubs * (1.0 + mu - std::exp(-mu));
  EXPECT_GT(visible_core / nd, 0.95 * core_exact);
  EXPECT_LT(visible_core / nd, 1.25 * core_exact);
}

TEST(GenerateObserved, UnattachedLinkCensusMatchesTheory) {
  const PaluParams p = typical_params();
  Rng rng(10);
  const NodeId n = 300000;
  const auto net = generate_underlying(p, n, rng);
  const auto observed = generate_observed(net, p, rng);
  const auto census = graph::classify_topology(observed);
  const auto deg = observed.degrees();
  Count visible = 0;
  for (const Degree d : deg) visible += (d > 0);
  const auto comp = observed_composition(p);
  // Star components with exactly 1 visible leaf = 2-node components.  The
  // observed census also counts core fragments that thin down to pairs, so
  // allow a one-sided slack plus a statistical band.
  const double predicted =
      comp.unattached_link_share * static_cast<double>(visible);
  EXPECT_GT(static_cast<double>(census.unattached_links),
            0.8 * predicted);
  EXPECT_LT(static_cast<double>(census.unattached_links),
            1.6 * predicted + 50.0);
}

TEST(SampleObservedDegrees, DegreeOneShareTracksTheory) {
  const PaluParams p = typical_params();
  Rng rng(11);
  const auto h = sample_observed_degrees(p, 300000, rng);
  const auto dist = stats::EmpiricalDistribution::from_histogram(h);
  // Leaves + star-leaf + hub(1) forms are exact; the core degree-1 term is
  // the paper's approximation, so use a moderate band.
  EXPECT_NEAR(dist.mass_at_one(), degree_share(p, 1), 0.15);
}

TEST(SampleObservedDegrees, ExactTheoryMatchesTightly) {
  // The binomial-thinning forms should match simulation within Monte-Carlo
  // noise for a leaf-free core + stars model.
  const PaluParams p = PaluParams::solve_hubs(3.0, 0.5, 0.0, 2.0, 0.5);
  Rng rng(12);
  GeneratorOptions opts;
  opts.core_dmax = 1u << 12;
  const auto h = sample_observed_degrees(p, 400000, rng, opts);
  const auto dist = stats::EmpiricalDistribution::from_histogram(h);
  for (Degree d = 1; d <= 8; ++d) {
    const double predicted = degree_share_exact(p, d, opts.core_dmax);
    const double measured = dist.probability_at(d);
    const double se = std::sqrt(predicted /
                                static_cast<double>(dist.sample_size()));
    EXPECT_NEAR(measured, predicted, 6.0 * se + 0.02 * predicted)
        << "d=" << d;
  }
}

TEST(WindowInvariance, LargerWindowSeesMore) {
  const PaluParams p = typical_params();
  Rng rng_a(13), rng_b(13);
  const auto net_a = generate_underlying(p.at_window(0.2), 100000, rng_a);
  const auto net_b = generate_underlying(p.at_window(0.9), 100000, rng_b);
  Rng s_a(14), s_b(14);
  const auto obs_small = generate_observed(net_a, p.at_window(0.2), s_a);
  const auto obs_large = generate_observed(net_b, p.at_window(0.9), s_b);
  const auto count_visible = [](const graph::Graph& g) {
    Count c = 0;
    for (const Degree d : g.degrees()) c += (d > 0);
    return c;
  };
  EXPECT_GT(count_visible(obs_large), 2 * count_visible(obs_small));
}

}  // namespace
}  // namespace palu::core
