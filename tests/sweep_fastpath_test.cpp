// Packet-sweep equivalence and determinism.
//
// The WindowAccumulator sweep must be a pure optimisation of the paper's
// per-window SparseCountMatrix computation: for any seed and quantity it
// has to produce byte-identical merged histograms, BinnedEnsemble moments,
// and d_max to a test-local reduce over SyntheticTrafficGenerator::window.
// Its output must not depend on the pool size, and it must honour the
// failure-budget / cancellation / timeout semantics under fault injection.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <string>
#include <vector>

#include "palu/graph/generators.hpp"
#include "palu/obs/metrics.hpp"
#include "palu/obs/names.hpp"
#include "palu/stats/log_binning.hpp"
#include "palu/store/reader.hpp"
#include "palu/store/writer.hpp"
#include "palu/testing/fault_injection.hpp"
#include "palu/traffic/quantities.hpp"
#include "palu/traffic/sparse_matrix.hpp"
#include "palu/traffic/stream.hpp"
#include "palu/traffic/window_accumulator.hpp"
#include "palu/traffic/window_pipeline.hpp"

namespace palu {
namespace {

constexpr std::array<traffic::Quantity, 6> kEveryQuantity = {
    traffic::Quantity::kSourcePackets,
    traffic::Quantity::kSourceFanOut,
    traffic::Quantity::kLinkPackets,
    traffic::Quantity::kDestinationFanIn,
    traffic::Quantity::kDestinationPackets,
    traffic::Quantity::kUndirectedDegree};

void expect_identical(const stats::DegreeHistogram& a,
                      const stats::DegreeHistogram& b,
                      const std::string& context) {
  EXPECT_EQ(a.total(), b.total()) << context;
  EXPECT_EQ(a.weighted_total(), b.weighted_total()) << context;
  EXPECT_EQ(a.sorted(), b.sorted()) << context;
}

TEST(WindowAccumulator, MatchesSparseMatrixAcrossReusedWindows) {
  Rng rng(101);
  traffic::WindowAccumulator acc;
  // Three windows through ONE accumulator: the arena-reuse reset must not
  // leak cells between windows.
  for (int window = 0; window < 3; ++window) {
    acc.begin_window();
    traffic::SparseCountMatrix reference;
    const Count packets = 4000 + static_cast<Count>(window) * 1000;
    for (Count i = 0; i < packets; ++i) {
      // Small id space forces duplicates, self-loops, and mirrored pairs.
      const NodeId src = rng.uniform_index(64);
      const NodeId dst = rng.uniform_index(64);
      acc.add(src, dst);
      reference.add(src, dst);
    }
    ASSERT_EQ(acc.total(), reference.total());
    ASSERT_EQ(acc.nnz(), reference.nnz());
    for (const auto q : kEveryQuantity) {
      expect_identical(acc.histogram(q),
                       traffic::quantity_histogram(reference, q),
                       std::string(traffic::quantity_name(q)) +
                           " window " + std::to_string(window));
    }
  }
}

TEST(WindowAccumulator, GrowsPastInitialCapacity) {
  // >> 1024 distinct cells and nodes: both open-addressing tables must
  // rehash without dropping counts.
  traffic::WindowAccumulator acc;
  acc.begin_window();
  traffic::SparseCountMatrix reference;
  for (NodeId i = 0; i < 5000; ++i) {
    acc.add(i, i + 1, 3);
    reference.add(i, i + 1, 3);
  }
  EXPECT_EQ(acc.nnz(), 5000u);
  EXPECT_EQ(acc.total(), 15000u);
  EXPECT_EQ(acc.at(4999, 5000), 3u);
  EXPECT_EQ(acc.at(5000, 4999), 0u);
  for (const auto q : kEveryQuantity) {
    expect_identical(acc.histogram(q),
                     traffic::quantity_histogram(reference, q),
                     std::string(traffic::quantity_name(q)));
  }
}

// The reference the sweep is held to: window t drawn whole as a
// SparseCountMatrix from its own generator over the shared rate draw,
// histogrammed, and reduced in window order.
traffic::WindowSweepResult reference_sweep(const graph::Graph& g,
                                           Count n_valid,
                                           std::size_t windows,
                                           traffic::Quantity q,
                                           std::uint64_t seed) {
  const auto rates =
      traffic::make_edge_rates(g, traffic::RateModel{}, Rng(seed).fork(0));
  traffic::WindowSweepResult out;
  for (std::size_t t = 0; t < windows; ++t) {
    const auto h = traffic::quantity_histogram(
        traffic::SyntheticTrafficGenerator(g, rates, Rng(seed).fork(t + 1))
            .window(n_valid),
        q);
    out.max_value = std::max(out.max_value, h.max_degree());
    out.ensemble.add(stats::LogBinned::from_histogram(h));
    out.merged.merge(h);
    ++out.windows;
  }
  return out;
}

void expect_sweep_identical(const traffic::WindowSweepResult& a,
                            const traffic::WindowSweepResult& b,
                            const std::string& context) {
  expect_identical(a.merged, b.merged, context);
  EXPECT_EQ(a.max_value, b.max_value) << context;
  EXPECT_EQ(a.windows, b.windows) << context;
  // Bit-exact, not approximately equal: both must feed the Welford
  // ensemble the same LogBinned sequence in the same order.
  EXPECT_EQ(a.ensemble.mean(), b.ensemble.mean()) << context;
  EXPECT_EQ(a.ensemble.stddev(), b.ensemble.stddev()) << context;
}

TEST(SweepFastPath, ByteIdenticalToLegacyAcrossQuantitiesAndSeeds) {
  Rng gen_rng(7);
  const auto g = graph::erdos_renyi(gen_rng, 600, 0.02);
  ThreadPool pool(2);
  for (const std::uint64_t seed : {3ull, 17ull, 91ull}) {
    for (const auto q : kEveryQuantity) {
      const auto a = traffic::sweep_windows(g, traffic::RateModel{}, 5000,
                                            6, q, seed, pool);
      expect_sweep_identical(a, reference_sweep(g, 5000, 6, q, seed),
                             std::string(traffic::quantity_name(q)) +
                                 " seed " + std::to_string(seed));
    }
  }
}

TEST(SweepFastPath, StageTimingsArePopulated) {
  Rng gen_rng(7);
  const auto g = graph::erdos_renyi(gen_rng, 400, 0.02);
  ThreadPool pool(2);
  const auto a = traffic::sweep_windows(
      g, traffic::RateModel{}, 20000, 4,
      traffic::Quantity::kUndirectedDegree, 5, pool);
  EXPECT_GT(a.timings.sampling_cpu_ns, 0u);
  EXPECT_GT(a.timings.accumulation_cpu_ns, 0u);
  EXPECT_GT(a.timings.binning_cpu_ns, 0u);
  // The straggler view is a max over per-worker sums of the same samples:
  // it must be positive and can never exceed the CPU (summed) view.
  EXPECT_GT(a.timings.sampling_max_ns, 0u);
  EXPECT_LE(a.timings.sampling_max_ns, a.timings.sampling_cpu_ns);
  EXPECT_LE(a.timings.accumulation_max_ns, a.timings.accumulation_cpu_ns);
  EXPECT_LE(a.timings.binning_max_ns, a.timings.binning_cpu_ns);
}

// Determinism under real parallelism: the same sweep on a 1-, 2- and
// 4-thread pool must give the same result and leave the same counter and
// gauge trail — apart from the pool-size gauge, which records the pool
// itself — for packet draws, counts draws, and store replay.  Stage-
// duration histograms are excluded: their values and which workers
// participate are timing-dependent.
TEST(SweepDeterminism, IdenticalAcrossPoolSizes) {
  Rng gen_rng(7);
  const auto g = graph::erdos_renyi(gen_rng, 600, 0.02);
  constexpr std::size_t kWindows = 8;
  constexpr std::uint64_t kSeed = 17;
  const std::string dir = ::testing::TempDir() + "palu_pool_size_store";
  std::filesystem::remove_all(dir);
  {
    store::WriterOptions wopts;
    wopts.node_domain = g.num_nodes();
    store::WindowStoreWriter writer(dir, wopts);
    ThreadPool pool(2);
    traffic::SweepOptions opts;
    opts.synthesis = traffic::SynthesisMode::kMultinomial;
    opts.capture = &writer;
    traffic::sweep_windows(g, traffic::RateModel{}, 5000, kWindows,
                           traffic::Quantity::kUndirectedDegree, kSeed, pool,
                           opts);
    writer.finish();
  }
  store::WindowStoreReader reader(dir);

  struct Run {
    traffic::WindowSweepResult result;
    obs::RegistrySnapshot trail;
  };
  const auto run = [&](const std::string& path, std::size_t threads,
                       traffic::Quantity q) {
    ThreadPool pool(threads);
    obs::Registry registry;
    traffic::SweepOptions opts;
    opts.metrics = &registry;
    Run r;
    if (path == "replay") {
      r.result = traffic::sweep_windows(reader, kWindows, q, pool, opts);
    } else {
      if (path == "counts") {
        opts.synthesis = traffic::SynthesisMode::kMultinomial;
      }
      r.result = traffic::sweep_windows(g, traffic::RateModel{}, 5000,
                                        kWindows, q, kSeed, pool, opts);
    }
    r.trail = registry.snapshot();
    r.trail.histograms.clear();
    std::erase_if(r.trail.gauges, [](const obs::GaugeSample& s) {
      return s.name == obs::names::kSweepPoolThreads;
    });
    return r;
  };
  for (const std::string path : {"packet", "counts", "replay"}) {
    for (const auto q : kEveryQuantity) {
      const Run one = run(path, 1, q);
      EXPECT_EQ(one.result.windows, kWindows);
      EXPECT_FALSE(one.trail.counters.empty());
      for (const std::size_t threads : {std::size_t{2}, std::size_t{4}}) {
        const Run many = run(path, threads, q);
        const std::string context =
            path + " " + std::string(traffic::quantity_name(q)) +
            " threads " + std::to_string(threads);
        expect_sweep_identical(one.result, many.result, context);
        EXPECT_EQ(one.trail.counters, many.trail.counters) << context;
        EXPECT_EQ(one.trail.gauges, many.trail.gauges) << context;
      }
    }
  }
}

TEST(SweepFastPath, StrictFailureCarriesWindowIndex) {
  Rng gen_rng(7);
  const auto g = graph::erdos_renyi(gen_rng, 500, 0.01);
  ThreadPool pool(1);  // FIFO pool: windows execute in index order
  testing::FailpointGuard guard;
  testing::force_sweep_window_failure(/*fires=*/1, /*skip=*/2);
  traffic::SweepOptions opts;
  try {
    traffic::sweep_windows(g, traffic::RateModel{}, 1000, 6,
                           traffic::Quantity::kSourceFanOut, 42, pool,
                           opts);
    FAIL() << "strict sweep must rethrow the window failure";
  } catch (const traffic::SweepWindowError& e) {
    EXPECT_EQ(e.window(), 2u);
  }
}

TEST(SweepFastPath, HonoursFailureBudget) {
  Rng gen_rng(7);
  const auto g = graph::erdos_renyi(gen_rng, 500, 0.01);
  ThreadPool pool(2);
  testing::FailpointGuard guard;
  testing::force_sweep_window_failure(/*fires=*/2, /*skip=*/0);
  traffic::SweepOptions opts;
  opts.max_failed_windows = 2;
  const auto sweep = traffic::sweep_windows(
      g, traffic::RateModel{}, 1000, 8,
      traffic::Quantity::kSourceFanOut, 42, pool, opts);
  EXPECT_EQ(sweep.failures.size(), 2u);
  EXPECT_EQ(sweep.windows, 6u);
  EXPECT_FALSE(sweep.cancelled);
}

TEST(SweepFastPath, HonoursCancellation) {
  Rng gen_rng(7);
  const auto g = graph::erdos_renyi(gen_rng, 500, 0.01);
  ThreadPool pool(2);
  std::atomic<bool> cancel{true};  // cancelled before any window starts
  traffic::SweepOptions opts;
  opts.cancel = &cancel;
  const auto sweep = traffic::sweep_windows(
      g, traffic::RateModel{}, 1000, 6,
      traffic::Quantity::kSourceFanOut, 42, pool, opts);
  EXPECT_TRUE(sweep.cancelled);
  EXPECT_EQ(sweep.windows, 0u);
  EXPECT_EQ(sweep.windows_skipped, 6u);
}

TEST(SweepFastPath, HonoursTimeout) {
  Rng gen_rng(7);
  const auto g = graph::erdos_renyi(gen_rng, 500, 0.01);
  ThreadPool pool(2);
  traffic::SweepOptions opts;
  opts.timeout = std::chrono::milliseconds(1);
  // 64 windows × 500k packets cannot finish inside 1 ms; the deadline
  // must stop new windows, leaving the rest skipped (not failed).
  const auto sweep = traffic::sweep_windows(
      g, traffic::RateModel{}, 500000, 64,
      traffic::Quantity::kSourceFanOut, 42, pool, opts);
  EXPECT_TRUE(sweep.cancelled);
  EXPECT_GE(sweep.windows_skipped, 1u);
  EXPECT_TRUE(sweep.failures.empty());
  EXPECT_EQ(sweep.windows + sweep.windows_skipped, 64u);
}

TEST(SweepFastPath, HugeTimeoutDoesNotOverflowTheDeadline) {
  // Regression: the deadline used to be computed unconditionally as
  // now() + timeout, so a duration::max()-class budget overflowed the
  // time_point (signed-overflow UB) and could wrap into the past,
  // spuriously cancelling the sweep.  Oversized budgets must behave like
  // "unlimited": every window completes.
  Rng gen_rng(7);
  const auto g = graph::erdos_renyi(gen_rng, 400, 0.02);
  ThreadPool pool(2);
  for (const auto timeout : {std::chrono::milliseconds::max(),
                             std::chrono::milliseconds::max() / 2,
                             std::chrono::duration_cast<
                                 std::chrono::milliseconds>(
                                 std::chrono::nanoseconds::max())}) {
    traffic::SweepOptions opts;
    opts.timeout = timeout;
    const auto sweep = traffic::sweep_windows(
        g, traffic::RateModel{}, 2000, 4,
        traffic::Quantity::kUndirectedDegree, 9, pool, opts);
    EXPECT_FALSE(sweep.cancelled) << timeout.count();
    EXPECT_EQ(sweep.windows, 4u) << timeout.count();
    EXPECT_EQ(sweep.windows_skipped, 0u) << timeout.count();
  }
}

}  // namespace
}  // namespace palu
