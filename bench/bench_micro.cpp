// Substrate microbenchmarks: special functions, samplers, generators,
// fitting, and thread-pool scaling.
#include <benchmark/benchmark.h>

#include <filesystem>
#include <optional>
#include <string>
#include <vector>

#include "palu/palu.hpp"

namespace {

using namespace palu;

void BM_RiemannZeta(benchmark::State& state) {
  double s = 1.5;
  for (auto _ : state) {
    benchmark::DoNotOptimize(math::riemann_zeta(s));
    s = s < 3.0 ? s + 1e-6 : 1.5;  // defeat memoization-by-compiler
  }
}
BENCHMARK(BM_RiemannZeta);

void BM_ShiftedTruncatedZeta(benchmark::State& state) {
  const auto dmax = static_cast<std::uint64_t>(state.range(0));
  double delta = 0.5;
  for (auto _ : state) {
    benchmark::DoNotOptimize(math::shifted_truncated_zeta(2.1, delta, dmax));
    delta += 1e-6;
  }
}
BENCHMARK(BM_ShiftedTruncatedZeta)->Arg(1 << 10)->Arg(1 << 20)->Arg(1 << 30);

void BM_LambdaInverse(benchmark::State& state) {
  double r = 2.5;
  for (auto _ : state) {
    benchmark::DoNotOptimize(math::invert_lambda_moment_ratio(r));
    r = r < 20.0 ? r + 1e-5 : 2.5;
  }
}
BENCHMARK(BM_LambdaInverse);

void BM_PoissonSampler(benchmark::State& state) {
  const double lambda = static_cast<double>(state.range(0));
  Rng rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng::sample_poisson(rng, lambda));
  }
}
BENCHMARK(BM_PoissonSampler)->Arg(2)->Arg(20)->Arg(200);

void BM_BoundedZipfSampler(benchmark::State& state) {
  rng::BoundedZipfSampler zipf(2.0, 1u << 20);
  Rng rng(2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(zipf(rng));
  }
}
BENCHMARK(BM_BoundedZipfSampler);

void BM_ZetaDegreeCore(benchmark::State& state) {
  const auto n = static_cast<NodeId>(state.range(0));
  Rng rng(3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(graph::zeta_degree_core(rng, n, 2.2, n - 1));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_ZetaDegreeCore)->Arg(10000)->Arg(100000);

void BM_GenerateObservedPalu(benchmark::State& state) {
  const auto n = static_cast<NodeId>(state.range(0));
  const auto params =
      core::PaluParams::solve_hubs(3.0, 0.4, 0.2, 2.2, 0.5);
  Rng rng(4);
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::sample_observed_degrees(params, n, rng));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_GenerateObservedPalu)->Arg(10000)->Arg(100000);

void BM_StreamWindow(benchmark::State& state) {
  const auto nv = static_cast<Count>(state.range(0));
  Rng gen_rng(5);
  const auto g = graph::zeta_degree_core(gen_rng, 20000, 2.0, 2000);
  traffic::SyntheticTrafficGenerator stream(g, traffic::RateModel{},
                                            Rng(6));
  for (auto _ : state) {
    benchmark::DoNotOptimize(stream.window(nv));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(nv));
}
BENCHMARK(BM_StreamWindow)->Arg(10000)->Arg(100000);

// The bench law: solve_hubs(6, 0.35, 0.2, 2.3, 1) on 150k nodes, the
// network of bench_sweep, perfbench and the bench trace.
const traffic::SyntheticTrafficGenerator& bench_law_generator() {
  static const core::UnderlyingNetwork net = [] {
    Rng rng(17);
    return core::generate_underlying(
        core::PaluParams::solve_hubs(6.0, 0.35, 0.2, 2.3, 1.0), 150000, rng);
  }();
  static const traffic::SyntheticTrafficGenerator gen(
      net.graph, traffic::RateModel{}, Rng(18));
  return gen;
}

// One window through the accumulator and its histogram: arg 0 and 1 add a
// 20000-packet window packet by packet (serve's N_V) and bin undirected
// degree or source packets; arg 2 ingests a 1e6-packet count-space window
// (the sweep's) and bins undirected degree.
void BM_WindowHistogram(benchmark::State& state) {
  traffic::SyntheticTrafficGenerator gen = bench_law_generator();
  traffic::WindowAccumulator acc;
  if (state.range(0) == 2) {
    std::vector<traffic::EdgePacketCounts> pairs;
    gen.next_window_counts(1000000, pairs);
    for (auto _ : state) {
      acc.begin_window();
      acc.ingest_counts(pairs);
      benchmark::DoNotOptimize(
          acc.histogram(traffic::Quantity::kUndirectedDegree));
    }
    return;
  }
  std::vector<traffic::Packet> window(20000);
  gen.next_batch(window);
  const auto q = state.range(0) == 0 ? traffic::Quantity::kUndirectedDegree
                                     : traffic::Quantity::kSourcePackets;
  for (auto _ : state) {
    acc.begin_window();
    acc.add_packets(window);
    benchmark::DoNotOptimize(acc.histogram(q));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(window.size()));
}
BENCHMARK(BM_WindowHistogram)
    ->Arg(0)
    ->Arg(1)
    ->Arg(2)
    ->Unit(benchmark::kMicrosecond);

// WindowStoreWriter::append of one window's export_counts: a 100000-packet
// window is capture --trace's block in perfbench's trace-archive (about
// 54.5k records), a 20000-packet one is what serve --record writes.  The
// writer is reopened outside the timed region every 64 blocks, so the
// store file stays bounded.
void BM_StoreAppend(benchmark::State& state) {
  traffic::SyntheticTrafficGenerator gen = bench_law_generator();
  std::vector<traffic::Packet> window(
      static_cast<std::size_t>(state.range(0)));
  gen.next_batch(window);
  traffic::WindowAccumulator acc;
  acc.begin_window();
  acc.add_packets(window);
  std::vector<traffic::EdgePacketCounts> records;
  acc.export_counts(records);
  const std::string dir =
      (std::filesystem::temp_directory_path() / "palu_bm_store_append")
          .string();
  std::optional<store::WindowStoreWriter> writer;
  std::size_t t = 0;
  for (auto _ : state) {
    if (t % 64 == 0) {
      state.PauseTiming();
      writer.emplace(dir, store::WriterOptions{.node_domain = 1});
      state.ResumeTiming();
    }
    writer->append(t++, window.size(), records);
  }
  writer.reset();
  std::filesystem::remove_all(dir);
  state.counters["records"] = static_cast<double>(records.size());
}
BENCHMARK(BM_StoreAppend)
    ->Arg(100000)
    ->Arg(20000)
    ->Unit(benchmark::kMicrosecond);

// Pooled least-squares ZM fit; d_max 320 is a serve window's regime.
void BM_ZmFit(benchmark::State& state) {
  const auto dmax = static_cast<Degree>(state.range(0));
  const fit::ZipfMandelbrot truth(2.1, 0.8, dmax);
  const auto target = truth.pooled();
  for (auto _ : state) {
    benchmark::DoNotOptimize(fit::fit_zipf_mandelbrot(target, dmax));
  }
}
BENCHMARK(BM_ZmFit)->Arg(320)->Arg(1 << 14);

// TraceTailReader over 64 KiB chunks of "src dst" text, ids below the
// argument: 150000 (the bench network's ids, up to 6 digits) or 2^32
// (IPv4 addresses as integers, mostly 10 digits).
void BM_TraceTailFeed(benchmark::State& state) {
  const auto bound = static_cast<std::uint64_t>(state.range(0));
  Rng rng(11);
  std::string text;
  constexpr std::size_t kLines = 200000;
  for (std::size_t i = 0; i < kLines; ++i) {
    text += std::to_string(rng.uniform_index(bound)) + ' ' +
            std::to_string(rng.uniform_index(bound)) + '\n';
  }
  constexpr std::size_t kChunk = std::size_t{1} << 16;
  std::vector<io::TailRecord> records;
  records.reserve(kLines);
  for (auto _ : state) {
    io::TraceTailReader reader;
    records.clear();
    for (std::size_t at = 0; at < text.size(); at += kChunk) {
      reader.feed(std::string_view(text).substr(at, kChunk), records);
    }
    benchmark::DoNotOptimize(records.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(kLines));
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(text.size()));
}
BENCHMARK(BM_TraceTailFeed)->Arg(150000)->Arg(std::int64_t{1} << 32);

void BM_PaluFit(benchmark::State& state) {
  const auto params =
      core::PaluParams::solve_hubs(4.0, 0.35, 0.25, 2.2, 0.7);
  Rng rng(7);
  const auto h = core::sample_observed_degrees(params, 200000, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::fit_palu(h));
  }
}
BENCHMARK(BM_PaluFit);

void BM_TopologyCensus(benchmark::State& state) {
  const auto params =
      core::PaluParams::solve_hubs(3.0, 0.3, 0.2, 2.1, 0.6);
  Rng rng(8);
  const auto net = core::generate_underlying(params, 200000, rng);
  const auto observed = core::generate_observed(net, params, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(graph::classify_topology(observed));
  }
  state.SetItemsProcessed(
      state.iterations() *
      static_cast<std::int64_t>(observed.num_nodes()));
}
BENCHMARK(BM_TopologyCensus);

void BM_ParallelHistogramMerge(benchmark::State& state) {
  // Per-window histograms built in parallel then merged — the scaling path
  // used by the Fig-3 bench.
  const auto threads = static_cast<std::size_t>(state.range(0));
  ThreadPool pool(threads);
  Rng gen_rng(9);
  const auto g = graph::zeta_degree_core(gen_rng, 30000, 2.0, 3000);
  for (auto _ : state) {
    constexpr std::size_t kWindows = 8;
    std::vector<stats::DegreeHistogram> partial(kWindows);
    parallel_for(pool, 0, kWindows, 1, [&](IndexRange r) {
      for (std::size_t w = r.begin; w < r.end; ++w) {
        traffic::SyntheticTrafficGenerator stream(
            g, traffic::RateModel{}, Rng(100 + w));
        partial[w] = traffic::quantity_histogram(
            stream.window(20000), traffic::Quantity::kSourceFanOut);
      }
    });
    stats::DegreeHistogram merged;
    for (const auto& h : partial) merged.merge(h);
    benchmark::DoNotOptimize(merged.total());
  }
}
BENCHMARK(BM_ParallelHistogramMerge)->Arg(1)->Arg(2)->Arg(4);

void BM_AssocZeroNormContraction(benchmark::State& state) {
  Rng rng(10);
  traffic::AssocArray a;
  for (int i = 0; i < 100000; ++i) {
    a.add(rng.uniform_index(5000), rng.uniform_index(5000), 1.0);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(a.zero_norm().sum());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(a.nnz()));
}
BENCHMARK(BM_AssocZeroNormContraction);

void BM_KsTwoSample(benchmark::State& state) {
  Rng rng(11);
  rng::BoundedZipfSampler zipf(2.0, 1u << 16);
  stats::DegreeHistogram a, b;
  for (int i = 0; i < 50000; ++i) a.add(zipf(rng));
  for (int i = 0; i < 50000; ++i) b.add(zipf(rng));
  for (auto _ : state) {
    benchmark::DoNotOptimize(fit::ks_test_two_sample(a, b));
  }
}
BENCHMARK(BM_KsTwoSample);

void BM_KCoreNumbers(benchmark::State& state) {
  Rng rng(12);
  const auto g = graph::barabasi_albert(
      rng, static_cast<NodeId>(state.range(0)), 3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(graph::k_core_numbers(g));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(g.num_edges()));
}
BENCHMARK(BM_KCoreNumbers)->Arg(10000)->Arg(100000);

void BM_BootstrapCi(benchmark::State& state) {
  Rng sample_rng(13);
  rng::BoundedZipfSampler zipf(2.2, 1u << 16);
  stats::DegreeHistogram h;
  for (int i = 0; i < 10000; ++i) h.add(zipf(sample_rng));
  ThreadPool pool(2);
  fit::BootstrapOptions opts;
  opts.replicates = 20;
  std::uint64_t seed = 1;
  for (auto _ : state) {
    Rng rng(seed++);
    benchmark::DoNotOptimize(fit::bootstrap_ci(
        h,
        [](const stats::DegreeHistogram& sample) {
          return fit::fit_power_law_fixed_xmin(sample, 1).alpha;
        },
        rng, pool, opts));
  }
}
BENCHMARK(BM_BootstrapCi);

// Four refits.  Argument 1: the tumbling lane only, on one window of the
// mixed scenario (a one-window horizon makes the sliding lane a copy, and
// the ZM companion fit is off).  Argument 4: serve's configuration, a
// four-window horizon with ZM on, over four 20000-packet windows of the
// bench law (undirected degree), so both lanes' ZM fits run on the
// global pool beside the PALU fits.
void BM_StreamingEstimatorWindow(benchmark::State& state) {
  core::StreamingOptions opts;
  opts.sliding_horizon = static_cast<std::size_t>(state.range(0));
  opts.fit_zm = opts.sliding_horizon > 1;
  std::vector<stats::DegreeHistogram> windows;
  if (opts.fit_zm) {
    traffic::SyntheticTrafficGenerator gen = bench_law_generator();
    traffic::WindowAccumulator acc;
    std::vector<traffic::Packet> packets(20000);
    for (int w = 0; w < 4; ++w) {
      gen.next_batch(packets);
      acc.begin_window();
      acc.add_packets(packets);
      windows.push_back(
          acc.histogram(traffic::Quantity::kUndirectedDegree));
    }
  } else {
    const auto params = core::scenarios::mixed().at_window(0.8);
    Rng rng(14);
    windows.assign(4, core::sample_observed_degrees(params, 50000, rng));
  }
  for (auto _ : state) {
    core::WindowedStreamingEstimator streaming(opts);
    for (const stats::DegreeHistogram& window : windows) {
      benchmark::DoNotOptimize(streaming.refit_window(window));
    }
  }
}
BENCHMARK(BM_StreamingEstimatorWindow)->Arg(1)->Arg(4)->UseRealTime();

}  // namespace

BENCHMARK_MAIN();
