// Cross-cutting traffic invariants: identities connecting the Fig-1
// quantities, Table-I aggregates, the associative-array algebra, and the
// stream machinery.
#include <gtest/gtest.h>

#include <cmath>

#include "palu/graph/generators.hpp"
#include "palu/parallel/thread_pool.hpp"
#include "palu/traffic/aggregates.hpp"
#include "palu/traffic/assoc.hpp"
#include "palu/traffic/expected_window.hpp"
#include "palu/traffic/quantities.hpp"
#include "palu/traffic/sparse_matrix.hpp"
#include "palu/traffic/stream.hpp"

namespace palu::traffic {
namespace {

SparseCountMatrix random_window(std::uint64_t seed, Count n_valid) {
  Rng gen_rng(seed);
  const auto g = graph::zeta_degree_core(gen_rng, 4000, 2.0, 400);
  SyntheticTrafficGenerator stream(g, RateModel{}, Rng(seed + 1));
  return stream.window(n_valid);
}

TEST(QuantityIdentities, HistogramTotalsMatchAggregates) {
  const auto window = random_window(1, 30000);
  const auto agg = aggregates_summation(window);
  // #source-packet observations == unique sources; same for destinations.
  EXPECT_EQ(quantity_histogram(window, Quantity::kSourcePackets).total(),
            agg.unique_sources);
  EXPECT_EQ(quantity_histogram(window, Quantity::kSourceFanOut).total(),
            agg.unique_sources);
  EXPECT_EQ(
      quantity_histogram(window, Quantity::kDestinationPackets).total(),
      agg.unique_destinations);
  EXPECT_EQ(
      quantity_histogram(window, Quantity::kDestinationFanIn).total(),
      agg.unique_destinations);
  // #link-packet observations == unique links.
  EXPECT_EQ(quantity_histogram(window, Quantity::kLinkPackets).total(),
            agg.unique_links);
}

TEST(QuantityIdentities, MassConservation) {
  const auto window = random_window(2, 20000);
  const auto agg = aggregates_summation(window);
  // Σ d·n(d) over source packets == N_V; over link packets == N_V; over
  // fan-out == unique links.
  EXPECT_EQ(
      quantity_histogram(window, Quantity::kSourcePackets)
          .weighted_total(),
      agg.valid_packets);
  EXPECT_EQ(
      quantity_histogram(window, Quantity::kDestinationPackets)
          .weighted_total(),
      agg.valid_packets);
  EXPECT_EQ(
      quantity_histogram(window, Quantity::kLinkPackets).weighted_total(),
      agg.valid_packets);
  EXPECT_EQ(
      quantity_histogram(window, Quantity::kSourceFanOut)
          .weighted_total(),
      agg.unique_links);
  EXPECT_EQ(
      quantity_histogram(window, Quantity::kDestinationFanIn)
          .weighted_total(),
      agg.unique_links);
}

TEST(QuantityIdentities, UndirectedDegreeBounds) {
  const auto window = random_window(3, 20000);
  // Undirected degree of a node is at most fan-out + fan-in mass-wise:
  // total undirected degree mass <= 2 · unique links.
  const auto und = quantity_histogram(window, Quantity::kUndirectedDegree);
  const auto agg = aggregates_summation(window);
  EXPECT_LE(und.weighted_total(), 2 * agg.unique_links);
  EXPECT_GE(und.weighted_total(), agg.unique_links);
}

TEST(AssocConsistency, MatchesSparseCountMatrix) {
  const auto window = random_window(4, 10000);
  AssocArray assoc;
  for (const auto& e : window.entries()) {
    assoc.add(e.src, e.dst, static_cast<double>(e.packets));
  }
  EXPECT_EQ(assoc.nnz(), window.nnz());
  EXPECT_DOUBLE_EQ(assoc.sum(), static_cast<double>(window.total()));
  // Row sums match source marginals.
  const auto rows = assoc.row_sums();
  for (const auto& [src, marginal] : window.source_marginals()) {
    EXPECT_DOUBLE_EQ(rows.at(src),
                     static_cast<double>(marginal.packets));
  }
  // Transpose duality: col sums of A == row sums of Aᵀ.
  const auto cols = assoc.col_sums().sorted();
  const auto t_rows = assoc.transposed().row_sums().sorted();
  EXPECT_EQ(cols, t_rows);
}

TEST(AssocConsistency, ZeroNormHadamardMask) {
  // A ∘ |A|₀ = A: masking by the own-support indicator is the identity.
  const auto window = random_window(5, 5000);
  AssocArray assoc;
  for (const auto& e : window.entries()) {
    assoc.add(e.src, e.dst, static_cast<double>(e.packets));
  }
  const AssocArray masked = assoc.hadamard(assoc.zero_norm());
  EXPECT_EQ(masked.sorted().size(), assoc.sorted().size());
  EXPECT_DOUBLE_EQ(masked.sum(), assoc.sum());
}

TEST(StreamProperties, SharedRatesMakeWindowsExchangeable) {
  Rng gen_rng(6);
  const auto g = graph::erdos_renyi(gen_rng, 1000, 0.01);
  const auto rates =
      make_edge_rates(g, RateModel{}, Rng(7));
  // Two generators over the same rates but different packet streams give
  // statistically matching windows (compare total unique links within a
  // generous band).
  SyntheticTrafficGenerator s1(g, rates, Rng(8));
  SyntheticTrafficGenerator s2(g, rates, Rng(9));
  const auto w1 = s1.window(20000);
  const auto w2 = s2.window(20000);
  const double l1 = static_cast<double>(w1.nnz());
  const double l2 = static_cast<double>(w2.nnz());
  EXPECT_NEAR(l1, l2, 6.0 * std::sqrt(l1));
}

TEST(StreamProperties, MakeEdgeRatesIsDeterministic) {
  Rng gen_rng(10);
  const auto g = graph::erdos_renyi(gen_rng, 500, 0.02);
  RateModel pareto;
  pareto.kind = RateModel::Kind::kPareto;
  const auto r1 = make_edge_rates(g, pareto, Rng(11));
  const auto r2 = make_edge_rates(g, pareto, Rng(11));
  EXPECT_EQ(r1, r2);
  const auto r3 = make_edge_rates(g, pareto, Rng(12));
  EXPECT_NE(r1, r3);
}

TEST(StreamProperties, VisibilityBoundsAndMonotonicity) {
  Rng gen_rng(13);
  const auto g = graph::erdos_renyi(gen_rng, 800, 0.01);
  SyntheticTrafficGenerator stream(g, RateModel{}, Rng(14));
  double prev = 0.0;
  for (Count nv = 1; nv <= (1u << 22); nv *= 4) {
    const double v = stream.expected_edge_visibility(nv);
    EXPECT_GE(v, prev);
    EXPECT_GE(v, 0.0);
    EXPECT_LE(v, 1.0);
    prev = v;
  }
}

TEST(StreamProperties, ExplicitRatesValidateInput) {
  Rng gen_rng(15);
  const auto g = graph::erdos_renyi(gen_rng, 100, 0.05);
  std::vector<double> wrong_size(g.num_edges() + 3, 1.0);
  EXPECT_THROW(SyntheticTrafficGenerator(g, wrong_size, Rng(16)),
               palu::InvalidArgument);
  std::vector<double> negative(g.num_edges(), 1.0);
  negative[0] = -1.0;
  EXPECT_THROW(SyntheticTrafficGenerator(g, negative, Rng(17)),
               palu::InvalidArgument);
  std::vector<double> zeros(g.num_edges(), 0.0);
  EXPECT_THROW(SyntheticTrafficGenerator(g, zeros, Rng(18)),
               palu::InvalidArgument);
}

// Expected unique directed links (the Table-I count) of an N_V-packet
// window over `stream`'s pair support, from the analytic window.
double expected_unique_links(SyntheticTrafficGenerator& stream, Count nv) {
  ThreadPool pool(1);
  ExpectedWindowEvaluator eval(stream.pair_support(), pool);
  eval.prepare(nv);
  return eval.aggregates().unique_links;
}

TEST(StreamProperties, ExpectedUniqueLinksMatchesMeasured) {
  Rng gen_rng(20);
  const auto g = graph::zeta_degree_core(gen_rng, 3000, 2.0, 300);
  traffic::RateModel rates;
  rates.kind = RateModel::Kind::kPareto;
  SyntheticTrafficGenerator stream(g, rates, Rng(21));
  SyntheticTrafficGenerator probe(g, rates, Rng(21));
  for (const Count nv : {2000u, 20000u, 200000u}) {
    const auto window = stream.window(nv);
    const double predicted = expected_unique_links(probe, nv);
    const double measured = static_cast<double>(window.nnz());
    EXPECT_NEAR(measured, predicted,
                6.0 * std::sqrt(predicted) + 0.01 * predicted)
        << "N_V=" << nv;
  }
}

TEST(StreamProperties, ExpectedUniqueLinksRespectsDirectionality) {
  // forward_prob = 1: one (src, dst) cell per active edge; at 0.5 the
  // same rates promise (up to 2×) more directed cells for big windows.
  graph::Graph g(2);
  g.add_edge(0, 1);
  const std::vector<double> rate = {1.0};
  SyntheticTrafficGenerator one_way(g, rate, Rng(22),
                                    /*forward_prob=*/1.0);
  SyntheticTrafficGenerator two_way(g, rate, Rng(23),
                                    /*forward_prob=*/0.5);
  EXPECT_NEAR(expected_unique_links(one_way, 100), 1.0, 1e-12);
  EXPECT_NEAR(expected_unique_links(two_way, 100), 2.0, 1e-12);
}

TEST(QuantityIdentities, AggregatesInvariantUnderEntryOrder) {
  // Rebuilding the matrix from its own (sorted) entries reproduces the
  // aggregates — the hash iteration order cannot leak into results.
  const auto window = random_window(19, 8000);
  SparseCountMatrix rebuilt;
  for (const auto& e : window.entries()) {
    rebuilt.add(e.src, e.dst, e.packets);
  }
  EXPECT_EQ(aggregates_summation(window), aggregates_summation(rebuilt));
  EXPECT_EQ(aggregates_matrix(window), aggregates_matrix(rebuilt));
}

}  // namespace
}  // namespace palu::traffic
