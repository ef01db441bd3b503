// Table I — Aggregate network properties.
//
// Regenerates the table's four aggregates (valid packets, unique links,
// unique sources, unique destinations) from synthetic traffic windows of
// several N_V, evaluating both the summation-notation and matrix-notation
// formulas and cross-checking that they agree, then times both paths.
#include <benchmark/benchmark.h>

#include <cstdio>

#include "palu/palu.hpp"

namespace {

using namespace palu;

traffic::SparseCountMatrix make_window(Count n_valid) {
  Rng gen_rng(1);
  static const graph::Graph g =
      graph::zeta_degree_core(gen_rng, 50000, 2.0, 5000);
  traffic::RateModel rates;
  rates.kind = traffic::RateModel::Kind::kPareto;
  rates.pareto_tail = 1.5;
  traffic::SyntheticTrafficGenerator stream(g, rates, Rng(2));
  return stream.window(n_valid);
}

void print_table1() {
  std::printf("=== Table I: aggregate network properties ===\n");
  std::printf("%-10s %-15s %-13s %-13s %-15s %-15s %-8s\n", "N_V",
              "valid_packets", "unique_links", "links_pred",
              "unique_sources", "unique_dests", "agree");
  // The analytic window over the same rates predicts the unique-link
  // scaling law Σ_cells (1 − (1 − q_cell)^{N_V}) over directed cells.
  Rng gen_rng(1);
  const graph::Graph g =
      graph::zeta_degree_core(gen_rng, 50000, 2.0, 5000);
  traffic::RateModel rates;
  rates.kind = traffic::RateModel::Kind::kPareto;
  rates.pareto_tail = 1.5;
  traffic::ExpectedWindowEvaluator probe(
      traffic::make_pair_support(g, traffic::make_edge_rates(g, rates,
                                                             Rng(2))));
  for (const Count nv : {10000ull, 100000ull, 1000000ull}) {
    probe.prepare(nv);
    const auto a = make_window(nv);
    const auto s = traffic::aggregates_summation(a);
    const auto m = traffic::aggregates_matrix(a);
    std::printf("%-10llu %-15llu %-13llu %-13.0f %-15llu %-15llu %-8s\n",
                static_cast<unsigned long long>(nv),
                static_cast<unsigned long long>(s.valid_packets),
                static_cast<unsigned long long>(s.unique_links),
                probe.aggregates().unique_links,
                static_cast<unsigned long long>(s.unique_sources),
                static_cast<unsigned long long>(s.unique_destinations),
                s == m ? "yes" : "NO");
  }
  std::printf("\n");
}

void BM_AggregatesSummation(benchmark::State& state) {
  const auto a = make_window(static_cast<Count>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(traffic::aggregates_summation(a));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(a.nnz()));
}
BENCHMARK(BM_AggregatesSummation)->Arg(10000)->Arg(100000)->Arg(1000000);

void BM_AggregatesMatrix(benchmark::State& state) {
  const auto a = make_window(static_cast<Count>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(traffic::aggregates_matrix(a));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(a.nnz()));
}
BENCHMARK(BM_AggregatesMatrix)->Arg(10000)->Arg(100000)->Arg(1000000);

void BM_WindowAggregation(benchmark::State& state) {
  const auto nv = static_cast<Count>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(make_window(nv));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(nv));
}
BENCHMARK(BM_WindowAggregation)->Arg(10000)->Arg(100000);

}  // namespace

int main(int argc, char** argv) {
  print_table1();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
