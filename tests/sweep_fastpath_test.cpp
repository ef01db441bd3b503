// Packet-sweep equivalence and determinism.
//
// The WindowAccumulator sweep must be a pure optimisation of the paper's
// per-window SparseCountMatrix computation: for any seed and quantity it
// has to produce byte-identical merged histograms, BinnedEnsemble moments,
// and d_max to a test-local reduce over SyntheticTrafficGenerator::window.
// Its output must not depend on the pool size, and it must honour the
// failure-budget semantics under fault injection.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <filesystem>
#include <limits>
#include <string>
#include <tuple>
#include <utility>
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

/// Canonical form of a record list: lower endpoint first (self-pairs keep
/// their forward count), sorted by (u, v).
std::vector<traffic::EdgePacketCounts> canonical(
    std::vector<traffic::EdgePacketCounts> records) {
  for (auto& r : records) {
    if (r.u > r.v) r = {r.v, r.u, r.backward, r.forward};
  }
  std::sort(records.begin(), records.end(), [](const auto& a, const auto& b) {
    return a.u != b.u ? a.u < b.u : a.v < b.v;
  });
  return records;
}

TEST(WindowAccumulator, PacketAndCountWindowsShareOneKernel) {
  // One window's content through add() (the pair table) and through
  // ingest_counts() (the record view) must match the SparseCountMatrix
  // reference on every quantity, total, nnz, at() in both orientations and
  // export_counts.  The id regimes walk every node-marginal path: dense
  // ids (linear sweep), ids spread over a wider range (touched list),
  // sparse ids, ids >= 2^32 and the top of the u64 range (node table).
  // Both accumulators are reused across windows and swap roles, so every
  // path must leave its scratch clean for the next window of either kind.
  constexpr NodeId kTop = std::numeric_limits<NodeId>::max();
  std::array<traffic::WindowAccumulator, 2> accs;
  for (std::uint64_t seed = 1; seed <= 15; ++seed) {
    Rng rng(seed);
    const std::uint64_t regime = seed % 5;
    const std::size_t nodes = regime == 0 ? 40 : 3000;
    std::vector<NodeId> ids;
    for (std::size_t i = 0; i < nodes; ++i) {
      switch (regime) {
        case 0: ids.push_back(i); break;
        case 1: ids.push_back(rng.uniform_index(20000)); break;
        case 2: ids.push_back(rng.uniform_index(NodeId{1} << 30)); break;
        case 3: ids.push_back((NodeId{1} << 32) + rng.uniform_index(5000));
          break;
        default: ids.push_back(kTop - rng.uniform_index(5000)); break;
      }
    }
    if (regime == 4) ids.push_back(kTop);
    // Unique unordered pairs: one-way either way, two-way, self-pairs
    // (all-forward) and zero rows.
    std::vector<traffic::EdgePacketCounts> records;
    std::vector<std::pair<NodeId, NodeId>> seen;
    const std::size_t target = regime == 0 ? 300 : 2500;
    while (records.size() < target) {
      const NodeId a = ids[rng.uniform_index(ids.size())];
      const NodeId b = ids[rng.uniform_index(ids.size())];
      const std::pair<NodeId, NodeId> key{std::min(a, b), std::max(a, b)};
      if (std::find(seen.begin(), seen.end(), key) != seen.end()) continue;
      seen.push_back(key);
      const std::uint64_t kind = rng.uniform_index(4);
      Count f = kind == 3 || kind == 1 ? 0 : 1 + rng.uniform_index(6);
      Count back = kind == 3 || kind == 0 ? 0 : 1 + rng.uniform_index(6);
      if (a == b) back = 0;
      // Counts-mode records may name the pair either way round.
      records.push_back(rng.uniform_index(2) == 0 || a == b
                            ? traffic::EdgePacketCounts{key.first, key.second,
                                                        f, back}
                            : traffic::EdgePacketCounts{key.second,
                                                        key.first, back, f});
    }
    traffic::WindowAccumulator& packets = accs[seed % 2];
    traffic::WindowAccumulator& counts = accs[1 - seed % 2];
    packets.begin_window();
    traffic::SparseCountMatrix reference;
    for (const auto& r : records) {
      // Packet windows see each link in several adds, as serve does.
      for (const auto& [src, dst, left0] : {std::tuple{r.u, r.v, r.forward},
                                            std::tuple{r.v, r.u, r.backward}}) {
        for (Count left = left0; left > 0;) {
          const Count c = 1 + rng.uniform_index(left);
          packets.add(src, dst, c);
          reference.add(src, dst, c);
          left -= c;
        }
      }
    }
    counts.begin_window();
    counts.ingest_counts(records);
    const std::string context = "seed " + std::to_string(seed);
    std::vector<traffic::EdgePacketCounts> nonzero;
    for (const auto& r : records) {
      if (r.forward + r.backward > 0) nonzero.push_back(r);
    }
    for (const traffic::WindowAccumulator* acc : {&packets, &counts}) {
      EXPECT_EQ(acc->total(), reference.total()) << context;
      EXPECT_EQ(acc->nnz(), reference.nnz()) << context;
      for (const auto& r : records) {
        EXPECT_EQ(acc->at(r.u, r.v), reference.at(r.u, r.v)) << context;
        EXPECT_EQ(acc->at(r.v, r.u), reference.at(r.v, r.u)) << context;
      }
      EXPECT_EQ(acc->at(kTop - 1, kTop - 2), 0u) << context;
      std::vector<traffic::EdgePacketCounts> exported;
      acc->export_counts(exported);
      // One record per unordered pair that saw traffic, nothing else.
      EXPECT_EQ(canonical(exported), canonical(nonzero)) << context;
    }
    for (const auto q : kEveryQuantity) {
      const auto expected = traffic::quantity_histogram(reference, q);
      const std::string what =
          context + " " + std::string(traffic::quantity_name(q));
      expect_identical(packets.histogram(q), expected, what + " add()");
      expect_identical(counts.histogram(q), expected,
                       what + " ingest_counts()");
    }
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
  obs::Registry registry;
  traffic::SweepOptions opts;
  opts.metrics = &registry;
  traffic::sweep_windows(g, traffic::RateModel{}, 20000, 4,
                         traffic::Quantity::kUndirectedDegree, 5, pool, opts);
  for (const char* stage : {"sampling", "accumulation", "binning"}) {
    const obs::Histogram& h =
        registry.histogram(obs::names::kSweepStageDurationNs,
                           {{"path", "fast"}, {"stage", stage}});
    EXPECT_EQ(h.count(), 4u) << stage;
    EXPECT_GT(h.sum(), 0u) << stage;
  }
  EXPECT_GT(registry.histogram(obs::names::kSweepDurationNs).sum(), 0u);
}

// Determinism under real parallelism: the same sweep on a 1-, 2- and
// 4-thread pool must give the same result and leave the same counter and
// gauge trail — apart from the pool-size gauge, which records the pool
// itself — for packet draws, counts draws, and store replay.  Duration
// values are timing-dependent, so the histograms are held only to their
// observation counts: one per window stage per completed window,
// whichever workers ran them, plus exactly one set-up observation per
// synthetic sweep — the network's tables are built once, before any
// window, whatever the pool size — and none for replay, which builds no
// tables.
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
    const std::uint64_t completed =
        registry.counter(obs::names::kSweepWindows, {{"outcome", "completed"}})
            .value();
    EXPECT_EQ(completed, kWindows) << path << " threads " << threads;
    std::size_t stage_series = 0;
    for (const obs::HistogramSample& h : r.trail.histograms) {
      if (h.name != obs::names::kSweepStageDurationNs) continue;
      ++stage_series;
      const std::string& stage = h.labels.back().second;
      EXPECT_EQ(h.count, stage == "setup" ? 1u : completed)
          << path << " threads " << threads << " " << stage;
    }
    EXPECT_EQ(stage_series, path == "replay" ? 3u : 4u)
        << path << " threads " << threads;
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
}

}  // namespace
}  // namespace palu
