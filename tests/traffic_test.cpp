// Unit tests for palu/traffic: window matrices, Table-I aggregates in both
// notations, Fig-1 quantities, and the synthetic stream generator.
#include <gtest/gtest.h>

#include <cmath>
#include <utility>
#include <vector>

#include "palu/common/error.hpp"
#include "palu/graph/generators.hpp"
#include "palu/stats/distribution.hpp"
#include "palu/traffic/aggregates.hpp"
#include "palu/traffic/quantities.hpp"
#include "palu/traffic/sparse_matrix.hpp"
#include "palu/traffic/stream.hpp"

namespace palu::traffic {
namespace {

SparseCountMatrix small_window() {
  // Sources {1, 2}; destinations {5, 6, 7}.
  SparseCountMatrix a;
  a.add(1, 5, 3);
  a.add(1, 6, 2);
  a.add(2, 5, 1);
  a.add(2, 7, 4);
  return a;
}

TEST(SparseCountMatrix, AccumulatesPackets) {
  SparseCountMatrix a;
  a.add(1, 2);
  a.add(1, 2, 4);
  a.add(3, 4);
  EXPECT_EQ(a.at(1, 2), 5u);
  EXPECT_EQ(a.at(3, 4), 1u);
  EXPECT_EQ(a.at(9, 9), 0u);
  EXPECT_EQ(a.total(), 6u);
  EXPECT_EQ(a.nnz(), 2u);
}

TEST(SparseCountMatrix, FromPacketsSumsToNv) {
  // Σ_ij A_t(i,j) = N_V (Section II).
  const std::vector<Packet> window = {{1, 2}, {1, 2}, {2, 1}, {3, 4}};
  const auto a = SparseCountMatrix::from_packets(window);
  EXPECT_EQ(a.total(), window.size());
  EXPECT_EQ(a.at(1, 2), 2u);
  EXPECT_EQ(a.at(2, 1), 1u);
}

TEST(SparseCountMatrix, EntriesSortedDeterministically) {
  const auto a = small_window();
  const auto e = a.entries();
  ASSERT_EQ(e.size(), 4u);
  EXPECT_EQ(e[0].src, 1u);
  EXPECT_EQ(e[0].dst, 5u);
  EXPECT_EQ(e[3].src, 2u);
  EXPECT_EQ(e[3].dst, 7u);
}

TEST(SparseCountMatrix, Marginals) {
  const auto a = small_window();
  const auto rows = a.source_marginals();
  EXPECT_EQ(rows.at(1).packets, 5u);
  EXPECT_EQ(rows.at(1).fan, 2u);
  EXPECT_EQ(rows.at(2).packets, 5u);
  EXPECT_EQ(rows.at(2).fan, 2u);
  const auto cols = a.destination_marginals();
  EXPECT_EQ(cols.at(5).packets, 4u);
  EXPECT_EQ(cols.at(5).fan, 2u);
  EXPECT_EQ(cols.at(7).packets, 4u);
  EXPECT_EQ(cols.at(7).fan, 1u);
}

TEST(Aggregates, TableOneOnKnownWindow) {
  const auto a = small_window();
  const Aggregates agg = aggregates_summation(a);
  EXPECT_EQ(agg.valid_packets, 10u);
  EXPECT_EQ(agg.unique_links, 4u);
  EXPECT_EQ(agg.unique_sources, 2u);
  EXPECT_EQ(agg.unique_destinations, 3u);
  EXPECT_EQ(agg.max_link_packets, 4u);
}

TEST(Aggregates, SummationEqualsMatrixNotation) {
  // Table I's two columns must agree on any window.
  Rng rng(5);
  SparseCountMatrix a;
  for (int i = 0; i < 5000; ++i) {
    a.add(rng.uniform_index(100), rng.uniform_index(200),
          1 + rng.uniform_index(5));
  }
  EXPECT_EQ(aggregates_summation(a), aggregates_matrix(a));
}

TEST(Aggregates, EmptyWindow) {
  const SparseCountMatrix a;
  const Aggregates agg = aggregates_summation(a);
  EXPECT_EQ(agg.valid_packets, 0u);
  EXPECT_EQ(agg.unique_links, 0u);
  EXPECT_EQ(aggregates_matrix(a), agg);
}

TEST(Quantities, NamesAreStable) {
  EXPECT_EQ(quantity_name(Quantity::kSourcePackets), "source_packets");
  EXPECT_EQ(quantity_name(Quantity::kLinkPackets), "link_packets");
}

TEST(Quantities, HistogramsOnKnownWindow) {
  const auto a = small_window();
  // Source packets: both sources sent 5.
  auto h = quantity_histogram(a, Quantity::kSourcePackets);
  EXPECT_EQ(h.at(5), 2u);
  EXPECT_EQ(h.total(), 2u);
  // Source fan-out: both sources reach 2 destinations.
  h = quantity_histogram(a, Quantity::kSourceFanOut);
  EXPECT_EQ(h.at(2), 2u);
  // Link packets: counts {3, 2, 1, 4}.
  h = quantity_histogram(a, Quantity::kLinkPackets);
  EXPECT_EQ(h.total(), 4u);
  for (Count c : {1u, 2u, 3u, 4u}) EXPECT_EQ(h.at(c), 1u);
  // Destination fan-in: dst 5 has 2 sources; 6 and 7 have 1 each.
  h = quantity_histogram(a, Quantity::kDestinationFanIn);
  EXPECT_EQ(h.at(2), 1u);
  EXPECT_EQ(h.at(1), 2u);
  // Destination packets: {4, 2, 4}.
  h = quantity_histogram(a, Quantity::kDestinationPackets);
  EXPECT_EQ(h.at(4), 2u);
  EXPECT_EQ(h.at(2), 1u);
}

TEST(Quantities, UndirectedDegreeMergesDirections) {
  SparseCountMatrix a;
  a.add(1, 2, 10);
  a.add(2, 1, 3);  // same pair, both directions: one undirected edge
  a.add(1, 3, 1);
  const auto h = undirected_degree_histogram(a);
  // Node 1 talks to {2, 3}; nodes 2, 3 talk to {1}.
  EXPECT_EQ(h.at(2), 1u);
  EXPECT_EQ(h.at(1), 2u);
}

TEST(Quantities, SelfTrafficIgnoredInDegrees) {
  SparseCountMatrix a;
  a.add(7, 7, 100);
  a.add(1, 2, 1);
  const auto h = undirected_degree_histogram(a);
  EXPECT_EQ(h.total(), 2u);  // only nodes 1 and 2
}

TEST(Stream, WindowHasExactlyNvPackets) {
  Rng rng(11);
  const auto g = graph::erdos_renyi(rng, 200, 0.05);
  SyntheticTrafficGenerator gen(g, RateModel{}, Rng(13));
  const auto a = gen.window(5000);
  EXPECT_EQ(a.total(), 5000u);
}

TEST(Stream, ConsecutiveWindowsDiffer) {
  Rng rng(17);
  const auto g = graph::erdos_renyi(rng, 100, 0.1);
  SyntheticTrafficGenerator gen(g, RateModel{}, Rng(19));
  const auto w = gen.windows(1000, 2);
  ASSERT_EQ(w.size(), 2u);
  EXPECT_EQ(w[0].total(), 1000u);
  EXPECT_EQ(w[1].total(), 1000u);
  // Different windows should not aggregate identically.
  const auto to_triples = [](const SparseCountMatrix& m) {
    std::vector<std::tuple<NodeId, NodeId, Count>> t;
    for (const auto& e : m.entries()) t.emplace_back(e.src, e.dst, e.packets);
    return t;
  };
  EXPECT_NE(to_triples(w[0]), to_triples(w[1]));
}

TEST(Stream, UniformRatesCoverEdgesEvenly) {
  Rng rng(23);
  graph::Graph g(20);
  for (NodeId i = 0; i + 1 < 20; ++i) g.add_edge(i, i + 1);
  RateModel rates;
  rates.kind = RateModel::Kind::kUniform;
  SyntheticTrafficGenerator gen(g, rates, Rng(29));
  const auto a = gen.window(19000);
  // Each of the 19 edges expects 1000 packets (counting both directions).
  for (NodeId i = 0; i + 1 < 20; ++i) {
    const double both = static_cast<double>(a.at(i, i + 1) + a.at(i + 1, i));
    EXPECT_NEAR(both, 1000.0, 6.0 * std::sqrt(1000.0));
  }
}

TEST(Stream, ForwardProbabilityControlsDirection) {
  graph::Graph g(2);
  g.add_edge(0, 1);
  RateModel rates;
  rates.kind = RateModel::Kind::kUniform;
  SyntheticTrafficGenerator gen(g, rates, Rng(31), /*forward_prob=*/1.0);
  const auto a = gen.window(500);
  EXPECT_EQ(a.at(0, 1), 500u);
  EXPECT_EQ(a.at(1, 0), 0u);
}

TEST(Stream, ParetoRatesAreHeavyTailed) {
  Rng rng(37);
  const auto g = graph::erdos_renyi(rng, 300, 0.05);
  RateModel rates;
  rates.kind = RateModel::Kind::kPareto;
  rates.pareto_tail = 1.2;
  SyntheticTrafficGenerator gen(g, rates, Rng(41));
  const auto a = gen.window(200000);
  // The heaviest link should dominate the mean link weight by a wide
  // margin — the supernode signature.
  const auto agg = aggregates_summation(a);
  const double mean_link = static_cast<double>(agg.valid_packets) /
                           static_cast<double>(agg.unique_links);
  EXPECT_GT(static_cast<double>(agg.max_link_packets), 20.0 * mean_link);
}

TEST(Stream, VisibilityGrowsWithWindowSize) {
  Rng rng(43);
  const auto g = graph::erdos_renyi(rng, 500, 0.02);
  SyntheticTrafficGenerator gen(g, RateModel{}, Rng(47));
  const double v_small = gen.expected_edge_visibility(100);
  const double v_mid = gen.expected_edge_visibility(10000);
  const double v_large = gen.expected_edge_visibility(10000000);
  EXPECT_LT(v_small, v_mid);
  EXPECT_LT(v_mid, v_large);
  EXPECT_GT(v_large, 0.99);
  EXPECT_GT(v_small, 0.0);
}

TEST(Stream, RejectsEdgelessGraph) {
  const graph::Graph g(10);
  EXPECT_THROW(SyntheticTrafficGenerator(g, RateModel{}, Rng(1)),
               palu::InvalidArgument);
}

TEST(Stream, VisibilityEdgeCases) {
  // n_valid == 0: zero packets see nothing — and must not evaluate
  // 0 · log1p(−r) = 0 · (−inf) = NaN for saturated rates.
  graph::Graph g(2);
  g.add_edge(0, 1);  // single edge → its rate carries all mass (rate == 1)
  SyntheticTrafficGenerator gen(g, RateModel{}, Rng(5));
  EXPECT_EQ(gen.expected_edge_visibility(0), 0.0);
  // rate == 1.0: visibility is exactly 1 for any n ≥ 1, not NaN and not
  // merely close to 1 through expm1(n · (−inf)).
  EXPECT_EQ(gen.expected_edge_visibility(1), 1.0);
  EXPECT_EQ(gen.expected_edge_visibility(1000000), 1.0);
}

TEST(Stream, MovedFromGeneratorRejectsVisibilityQueries) {
  // A moved-from generator holds no tables, so the query must throw a
  // typed error instead of dereferencing them.
  graph::Graph g(3);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  SyntheticTrafficGenerator gen(g, RateModel{}, Rng(7));
  SyntheticTrafficGenerator sink = std::move(gen);
  EXPECT_THROW(gen.expected_edge_visibility(100), palu::InvalidArgument);
  // The move target still answers.
  EXPECT_GT(sink.expected_edge_visibility(100), 0.0);
}

TEST(Stream, CopiesShareTheTablesTheirSourceBuilt) {
  Rng rng(53);
  const auto g = graph::erdos_renyi(rng, 300, 0.03);
  SyntheticTrafficGenerator gen(g, RateModel{}, Rng(59));
  SyntheticTrafficGenerator early = gen;  // copied before the pair support
  const PairSupport& support = gen.pair_support();
  SyntheticTrafficGenerator late = gen;
  // A copy made after pair_support() shares the source's table...
  EXPECT_EQ(&late.pair_support(), &support);
  // ...while an earlier copy builds its own, identical one on demand.
  const PairSupport& own = early.pair_support();
  EXPECT_NE(&own, &support);
  EXPECT_EQ(own.u, support.u);
  EXPECT_EQ(own.v, support.v);
  EXPECT_EQ(own.weight, support.weight);
  EXPECT_EQ(own.forward_prob, support.forward_prob);
  // The rates table is shared from construction on.
  EXPECT_EQ(&early.rates(), &gen.rates());
  // make_pair_support merges the same rates into the same table.
  const PairSupport made =
      make_pair_support(g, make_edge_rates(g, RateModel{}, Rng(59)));
  EXPECT_EQ(made.u, support.u);
  EXPECT_EQ(made.v, support.v);
  EXPECT_EQ(made.weight, support.weight);
  EXPECT_EQ(made.forward_prob, support.forward_prob);
}

TEST(Stream, ReseededCopyMatchesFreshGenerator) {
  Rng rng(61);
  const auto g = graph::erdos_renyi(rng, 300, 0.03);
  const auto rates = make_edge_rates(g, RateModel{}, Rng(67));
  SyntheticTrafficGenerator source(g, rates, Rng(1));
  std::vector<EdgePacketCounts> scratch;
  source.next_window_counts(5000, scratch);  // builds the counts tables
  SyntheticTrafficGenerator copy = source;
  for (const std::uint64_t seed : {71u, 73u}) {
    copy.reseed(Rng(seed));
    SyntheticTrafficGenerator fresh(g, rates, Rng(seed));
    std::vector<Packet> got(3000), want(3000);
    copy.next_batch(got);
    fresh.next_batch(want);
    EXPECT_TRUE(got == want) << "seed " << seed;
    std::vector<EdgePacketCounts> got_counts, want_counts;
    copy.next_window_counts(20000, got_counts);
    fresh.next_window_counts(20000, want_counts);
    EXPECT_TRUE(got_counts == want_counts) << "seed " << seed;
  }
}

TEST(Stream, DegreeProductRatesFavorHubs) {
  // Star: hub 0 with 50 leaves; hub participates in every conversation.
  graph::Graph g(51);
  for (NodeId leaf = 1; leaf <= 50; ++leaf) g.add_edge(0, leaf);
  RateModel rates;
  rates.kind = RateModel::Kind::kDegreeProduct;
  SyntheticTrafficGenerator gen(g, rates, Rng(53));
  const auto a = gen.window(10000);
  const auto rows = a.source_marginals();
  const auto cols = a.destination_marginals();
  Count hub_packets = 0;
  if (rows.contains(0)) hub_packets += rows.at(0).packets;
  if (cols.contains(0)) hub_packets += cols.at(0).packets;
  EXPECT_EQ(hub_packets, 10000u);  // hub on every packet (star topology)
}

}  // namespace
}  // namespace palu::traffic
