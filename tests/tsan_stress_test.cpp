// ThreadSanitizer-targeted stress for the sweep fast path and its
// resilience machinery (DESIGN.md §5c).
//
// These tests pass on any build, but their point is the
// `-DPALU_SANITIZE=thread` tree: they drive sweep_windows with a strict
// failure racing the workers' stop flag, armed failpoints, several
// sweeps sharing the process-global failpoint registry, and concurrent
// sweeps recording into one obs::Registry — all at once —
// so TSan can observe every cross-thread edge the pipeline claims is
// synchronized.  The analytic evaluator's block passes (disjoint slices
// of shared vectors, per-block folds reduced after the join) run here on
// a 4-thread pool too, and so do generator copies drawing from one set
// of shared tables, and so does a serve daemon whose ingest thread hands
// sealed windows to a fit thread that fits the two estimator lanes on
// the global pool, and so do four read_trace calls whose reader threads
// parse a chunk ahead of their window cuts.  Assertions here are
// consistency invariants (every window accounted for exactly once), not
// timing expectations: which windows a stopped sweep skipped depends on
// the scheduler, and any split must pass.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <fstream>
#include <span>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "palu/common/failpoint.hpp"
#include "palu/graph/generators.hpp"
#include "palu/io/tail.hpp"
#include "palu/io/trace.hpp"
#include "palu/obs/metrics.hpp"
#include "palu/obs/names.hpp"
#include "palu/parallel/scratch_pool.hpp"
#include "palu/parallel/thread_pool.hpp"
#include "palu/serve/daemon.hpp"
#include "palu/traffic/expected_window.hpp"
#include "palu/traffic/stream.hpp"
#include "palu/traffic/window_accumulator.hpp"
#include "palu/traffic/window_pipeline.hpp"

namespace palu {
namespace {

graph::Graph stress_graph() {
  Rng rng(42);
  return graph::erdos_renyi(rng, 200, 0.05);
}

// windows finished and tolerated must partition the request — the core
// no-lost-no-duplicated-window invariant of a tolerant sweep.
void expect_partitioned(const traffic::WindowSweepResult& r,
                        std::size_t requested) {
  EXPECT_EQ(r.windows + r.failures.size(), requested);
}

TEST(TsanStress, StrictFailureRacesTheStopFlag) {
  // A strict sweep whose window fails mid-run: the failing worker raises
  // the stop flag while three others are still starting windows.  The
  // sweep must throw, and the window counters must still account for
  // every requested window exactly once.
  const auto g = stress_graph();
  constexpr std::size_t kWindows = 64;
  ThreadPool pool(4);
  obs::Registry registry;
  traffic::SweepOptions opts;
  opts.metrics = &registry;
  failpoints::arm("traffic.sweep_window", /*fires=*/1, /*skip=*/20);
  EXPECT_THROW(traffic::sweep_windows(g, traffic::RateModel{}, 2000,
                                      kWindows,
                                      traffic::Quantity::kSourcePackets, 3,
                                      pool, opts),
               traffic::SweepWindowError);
  failpoints::disarm_all();
  std::uint64_t accounted = 0;
  for (const char* outcome : {"completed", "failed", "skipped"}) {
    accounted += registry
                     .counter(obs::names::kSweepWindows,
                              {{"outcome", outcome}})
                     .value();
  }
  EXPECT_EQ(accounted, kWindows);
  EXPECT_EQ(registry
                .counter(obs::names::kSweepWindows, {{"outcome", "failed"}})
                .value(),
            1u);
}

TEST(TsanStress, ConcurrentSweepsShareFailpointRegistry) {
  // Two sweeps on separate pools while a third thread keeps re-arming and
  // disarming the shared failpoint site: the registry's internal
  // synchronization and the sweeps' failure accounting must both hold.
  const auto g = stress_graph();
  std::atomic<bool> stop_arming{false};
  std::thread armer([&stop_arming]() {
    while (!stop_arming.load(std::memory_order_relaxed)) {
      failpoints::arm("traffic.sweep_window", /*fires=*/2, /*skip=*/3);
      std::this_thread::yield();
      failpoints::disarm("traffic.sweep_window");
    }
  });

  auto run_sweep = [&g](std::uint64_t seed) {
    ThreadPool pool(2);
    traffic::SweepOptions opts;
    opts.max_failed_windows = 24;  // tolerate every injected failure
    const auto result = traffic::sweep_windows(
        g, traffic::RateModel{}, 1500, 24,
        traffic::Quantity::kDestinationFanIn, seed, pool, opts);
    expect_partitioned(result, 24);
  };
  std::thread a([&run_sweep]() { run_sweep(11); });
  std::thread b([&run_sweep]() { run_sweep(23); });
  a.join();
  b.join();
  stop_arming.store(true, std::memory_order_relaxed);
  armer.join();
  failpoints::disarm_all();
}

TEST(TsanStress, ConcurrentSweepsShareOneMetricsRegistry) {
  // Two sweeps recording into the SAME obs::Registry while a reader
  // thread keeps snapshotting it: registration (mutex), recording
  // (relaxed atomics), and snapshotting must all be race-free, and the
  // shared counters must end at the exact two-sweep totals.
  const auto g = stress_graph();
  obs::Registry registry;
  std::atomic<bool> stop_reading{false};
  std::thread reader([&registry, &stop_reading]() {
    while (!stop_reading.load(std::memory_order_relaxed)) {
      // snapshot() performs the racing reads TSan is here to watch; the
      // only invariant mid-flight is that the series set never shrinks.
      const auto snap = registry.snapshot();
      EXPECT_LE(snap.counters.size(), registry.num_series());
      std::this_thread::yield();
    }
  });

  auto run_sweep = [&g, &registry](std::uint64_t seed) {
    ThreadPool pool(2);
    traffic::SweepOptions opts;
    opts.metrics = &registry;
    const auto result = traffic::sweep_windows(
        g, traffic::RateModel{}, 1500, 12,
        traffic::Quantity::kUndirectedDegree, seed, pool, opts);
    expect_partitioned(result, 12);
  };
  std::thread a([&run_sweep]() { run_sweep(5); });
  std::thread b([&run_sweep]() { run_sweep(31); });
  a.join();
  b.join();
  stop_reading.store(true, std::memory_order_relaxed);
  reader.join();

  const auto snap = registry.snapshot();
  for (const auto& c : snap.counters) {
    if (c.name == obs::names::kSweepRuns) {
      EXPECT_EQ(c.value, 2u);
    }
    if (c.name == obs::names::kSweepWindows && !c.labels.empty() &&
        c.labels.front().second == "completed") {
      EXPECT_EQ(c.value, 24u);
    }
  }
}

TEST(TsanStress, ConcurrentCountsSweepsShareOneMetricsRegistry) {
  // The count-space path (PR 5) on the same contract as the packet path:
  // two counts sweeps recording into one registry while a third thread
  // snapshots, exercising the MultinomialSampler (shared per-worker via
  // ScratchPool leases), ingest_counts, and the path=counts stage
  // histograms under TSan.
  const auto g = stress_graph();
  obs::Registry registry;
  std::atomic<bool> stop_reading{false};
  std::thread reader([&registry, &stop_reading]() {
    while (!stop_reading.load(std::memory_order_relaxed)) {
      const auto snap = registry.snapshot();
      EXPECT_LE(snap.counters.size(), registry.num_series());
      std::this_thread::yield();
    }
  });

  auto run_sweep = [&g, &registry](std::uint64_t seed) {
    ThreadPool pool(2);
    traffic::SweepOptions opts;
    opts.synthesis = traffic::SynthesisMode::kMultinomial;
    opts.metrics = &registry;
    const auto result = traffic::sweep_windows(
        g, traffic::RateModel{}, 30000, 12,
        traffic::Quantity::kUndirectedDegree, seed, pool, opts);
    expect_partitioned(result, 12);
    EXPECT_EQ(result.windows, 12u);
  };
  std::thread a([&run_sweep]() { run_sweep(5); });
  std::thread b([&run_sweep]() { run_sweep(31); });
  a.join();
  b.join();
  stop_reading.store(true, std::memory_order_relaxed);
  reader.join();

  const auto snap = registry.snapshot();
  for (const auto& c : snap.counters) {
    if (c.name == obs::names::kSweepRuns) {
      EXPECT_EQ(c.value, 2u);
    }
    if (c.name == obs::names::kSweepWindows && !c.labels.empty() &&
        c.labels.front().second == "completed") {
      EXPECT_EQ(c.value, 24u);
    }
  }
}

TEST(TsanStress, CountsSweepSurvivesArmedFailpoints) {
  // The two new failpoints ("rng.multinomial", "traffic.window_counts")
  // flip concurrently with two running counts sweeps; every injected
  // failure must be tolerated by the budget and accounted exactly once.
  const auto g = stress_graph();
  std::atomic<bool> stop_arming{false};
  std::thread armer([&stop_arming]() {
    while (!stop_arming.load(std::memory_order_relaxed)) {
      failpoints::arm("traffic.window_counts", /*fires=*/2, /*skip=*/3);
      failpoints::arm("rng.multinomial", /*fires=*/1, /*skip=*/7);
      std::this_thread::yield();
      failpoints::disarm("traffic.window_counts");
      failpoints::disarm("rng.multinomial");
    }
  });

  auto run_sweep = [&g](std::uint64_t seed) {
    ThreadPool pool(2);
    traffic::SweepOptions opts;
    opts.synthesis = traffic::SynthesisMode::kMultinomial;
    opts.max_failed_windows = 24;  // tolerate every injected failure
    const auto result = traffic::sweep_windows(
        g, traffic::RateModel{}, 1500, 24,
        traffic::Quantity::kDestinationFanIn, seed, pool, opts);
    expect_partitioned(result, 24);
  };
  std::thread a([&run_sweep]() { run_sweep(11); });
  std::thread b([&run_sweep]() { run_sweep(23); });
  a.join();
  b.join();
  stop_arming.store(true, std::memory_order_relaxed);
  armer.join();
  failpoints::disarm_all();
}

TEST(TsanStress, FaultInjectedSweepIsDeterministicUnderBudget) {
  // A failpoint armed to fire exactly 3 times plus a failure budget: the
  // failure COUNT is deterministic even with 4 workers racing over which
  // windows absorb the fires, and no window may be lost or double-counted.
  const auto g = stress_graph();
  failpoints::arm("traffic.sweep_window", /*fires=*/3, /*skip=*/5);
  ThreadPool pool(4);
  traffic::SweepOptions opts;
  opts.max_failed_windows = 16;
  const auto result = traffic::sweep_windows(
      g, traffic::RateModel{}, 1000, 16,
      traffic::Quantity::kSourceFanOut, 3, pool, opts);
  failpoints::disarm_all();
  expect_partitioned(result, 16);
  EXPECT_EQ(result.failures.size(), 3u);
}

TEST(TsanStress, ScratchPoolLeaseChurnAcrossPools) {
  // Lease churn from two independent thread pools against one scratch
  // pool — the pattern sweep_windows uses, at higher contention.
  ScratchPool<std::vector<int>> scratch(
      []() { return std::make_unique<std::vector<int>>(256, 0); });
  ThreadPool pool_a(3);
  ThreadPool pool_b(3);
  std::vector<std::future<void>> futs;
  for (int i = 0; i < 48; ++i) {
    auto work = [&scratch, i]() {
      auto lease = scratch.acquire();
      (*lease)[static_cast<std::size_t>(i) % lease->size()] += 1;
    };
    futs.push_back(i % 2 == 0 ? pool_a.submit(work) : pool_b.submit(work));
  }
  for (auto& f : futs) f.get();
  EXPECT_GE(scratch.slots_created(), 1u);
  EXPECT_LE(scratch.slots_created(), 6u);  // bounded by max concurrency
}

TEST(TsanStress, GeneratorCopiesDrawFromSharedTablesConcurrently) {
  // One generator's tables (alias sampler, pair support, Multinomial
  // sampler) shared read-only by 4 copies, each made, reseeded and drawn
  // on its own thread — the sweep's scratch-slot pattern.  Every copy's
  // packet batches and counts windows must equal the same draws made
  // serially.
  const auto g = stress_graph();
  traffic::SyntheticTrafficGenerator source(
      g, traffic::make_edge_rates(g, traffic::RateModel{}, Rng(5).fork(0)),
      Rng(0));
  source.pair_support();  // build the counts tables before any copy
  constexpr std::size_t kCopies = 4;
  constexpr int kRounds = 8;
  struct Draws {
    std::vector<std::vector<traffic::Packet>> batches;
    std::vector<std::vector<traffic::EdgePacketCounts>> windows;
  };
  const auto draw = [&source](std::size_t k) {
    traffic::SyntheticTrafficGenerator copy = source;
    Draws d;
    for (int round = 0; round < kRounds; ++round) {
      copy.reseed(Rng(100 * k + static_cast<std::uint64_t>(round)));
      d.batches.emplace_back(1024);
      copy.next_batch(d.batches.back());
      d.windows.emplace_back();
      copy.next_window_counts(30000, d.windows.back());
    }
    return d;
  };
  std::vector<Draws> serial;
  for (std::size_t k = 0; k < kCopies; ++k) serial.push_back(draw(k));
  std::vector<Draws> concurrent(kCopies);
  std::vector<std::thread> threads;
  for (std::size_t k = 0; k < kCopies; ++k) {
    threads.emplace_back(
        [&concurrent, &draw, k]() { concurrent[k] = draw(k); });
  }
  for (auto& t : threads) t.join();
  for (std::size_t k = 0; k < kCopies; ++k) {
    EXPECT_TRUE(concurrent[k].batches == serial[k].batches) << "copy " << k;
    EXPECT_TRUE(concurrent[k].windows == serial[k].windows) << "copy " << k;
  }
}

TEST(TsanStress, ExpectedEvaluatorFoldsOnAFourThreadPool) {
  // Every quantity at two window sizes, twice over on one evaluator per
  // pool: prepare's visibility blocks and gathers, evaluate's folds and
  // aggregates' sums all run on 4 workers, and each result must equal the
  // 1-thread pool's.  8000 nodes span several blocks of every pass.
  Rng rng(43);
  const auto g = graph::barabasi_albert(rng, 8000, 2);
  traffic::SyntheticTrafficGenerator gen(
      g, traffic::make_edge_rates(g, traffic::RateModel{}, Rng(3).fork(0)),
      Rng(0));
  ThreadPool one(1);
  ThreadPool four(4);
  traffic::ExpectedWindowEvaluator serial(gen.pair_support(), one);
  traffic::ExpectedWindowEvaluator pooled(gen.pair_support(), four);
  for (int round = 0; round < 2; ++round) {
    for (const Count n : {Count{20000}, Count{5000000}}) {
      serial.prepare(n);
      pooled.prepare(n);
      for (const auto q : {traffic::Quantity::kSourcePackets,
                           traffic::Quantity::kSourceFanOut,
                           traffic::Quantity::kLinkPackets,
                           traffic::Quantity::kDestinationFanIn,
                           traffic::Quantity::kDestinationPackets,
                           traffic::Quantity::kUndirectedDegree}) {
        const auto want = serial.evaluate(q);
        const auto got = pooled.evaluate(q);
        EXPECT_EQ(got.bin_counts, want.bin_counts);
        EXPECT_EQ(got.visible_entities, want.visible_entities);
        EXPECT_EQ(got.max_value, want.max_value);
        EXPECT_EQ(got.aggregates.unique_links, want.aggregates.unique_links);
        EXPECT_EQ(got.aggregates.unique_sources,
                  want.aggregates.unique_sources);
        EXPECT_EQ(got.aggregates.unique_destinations,
                  want.aggregates.unique_destinations);
        EXPECT_EQ(got.aggregates.max_link_packets,
                  want.aggregates.max_link_packets);
      }
    }
  }
}

TEST(TsanStress, SubmitStormFromManyThreads) {
  // External threads hammering ThreadPool::submit while workers drain:
  // exercises the queue_/stopping_ mutex discipline end to end.
  ThreadPool pool(2);
  std::atomic<int> done{0};
  std::vector<std::thread> producers;
  producers.reserve(4);
  for (int p = 0; p < 4; ++p) {
    producers.emplace_back([&pool, &done]() {
      std::vector<std::future<void>> futs;
      for (int i = 0; i < 50; ++i) {
        futs.push_back(pool.submit([&done]() {
          done.fetch_add(1, std::memory_order_relaxed);
        }));
      }
      for (auto& f : futs) f.get();
    });
  }
  for (auto& t : producers) t.join();
  EXPECT_EQ(done.load(), 200);
}

TEST(TsanStress, ServeDaemonFitsLanesConcurrently) {
  // A horizon-4 daemon: the ingest thread cuts and histograms windows and
  // blocks on a one-window queue, while the fit thread fits the tumbling
  // lane and a global-pool worker the sliding lane of every window.
  constexpr std::uint64_t kWindow = 1500;
  constexpr std::size_t kWindows = 8;
  Rng grng(31);
  const auto g = graph::barabasi_albert(grng, 400, 2);
  traffic::SyntheticTrafficGenerator gen(g, traffic::RateModel{}, Rng(32));
  std::vector<traffic::Packet> packets(kWindow * kWindows);
  gen.next_batch(packets);
  const std::string trace =
      ::testing::TempDir() + "palu_tsan_serve_lanes.trace";
  {
    std::ofstream out(trace, std::ios::binary | std::ios::trunc);
    for (const auto& p : packets) out << p.src << ' ' << p.dst << '\n';
  }

  obs::Registry registry;
  std::ostringstream lines;
  serve::ServeOptions opts;
  opts.input_path = trace;
  opts.window_packets = kWindow;
  opts.queue_capacity = kWindow;
  opts.streaming.sliding_horizon = 4;
  opts.metrics = &registry;
  opts.out = &lines;
  opts.install_signal_handlers = false;
  serve::ServeDaemon daemon(std::move(opts));
  EXPECT_EQ(daemon.run(), 0);

  EXPECT_EQ(daemon.windows_published(), kWindows);
  EXPECT_EQ(daemon.estimator().windows_seen(), kWindows);
  std::istringstream in(lines.str());
  std::string line;
  std::size_t n = 0;
  while (std::getline(in, line)) {
    EXPECT_EQ(line.rfind("window=" + std::to_string(n) + " ", 0), 0u);
    EXPECT_NE(line.find("s_state=fresh"), std::string::npos) << line;
    ++n;
  }
  EXPECT_EQ(n, kWindows);
  std::remove(trace.c_str());
}

TEST(TsanStress, ReadTraceReadsAheadWhileSinksCut) {
  // Four read_trace calls at once, each reading its own copy of a
  // nine-chunk trace one chunk ahead of a sink that cuts it into windows,
  // all counting into one registry.  The fourth sink throws part way.
  // Every read that ran to the end sealed the same windows, and the
  // registry counts what the four readers parsed: the failed read stops
  // after the chunk it had read ahead.
  constexpr std::size_t kLines = 60000;
  constexpr Count kWindow = 7000;
  constexpr std::size_t kReads = 4;
  Rng rng(37);
  std::string text;
  for (std::size_t i = 0; i < kLines; ++i) {
    text += std::to_string(rng.uniform_index(5000)) + ' ' +
            std::to_string(rng.uniform_index(5000)) + '\n';
  }
  struct SinkFailed {};
  obs::Registry registry;
  IngestOptions opts;
  opts.metrics = &registry;
  std::vector<std::size_t> windows(kReads, 0);
  std::vector<std::size_t> sunk(kReads, 0);
  std::vector<int> failed(kReads, 0);
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kReads; ++t) {
    threads.emplace_back([&, t] {
      std::istringstream in(text);
      traffic::WindowAccumulator acc;
      try {
        io::read_trace(in, opts, [&](std::span<const io::TailRecord> batch) {
          if (t == kReads - 1 && sunk[t] > kLines / 3) throw SinkFailed{};
          sunk[t] += batch.size();
          io::cut_windows(batch, kWindow, acc, [&](std::uint64_t) {
            ++windows[t];
            return true;
          });
        });
      } catch (const SinkFailed&) {
        failed[t] = 1;
      } catch (const std::exception& e) {
        ADD_FAILURE() << "read " << t << ": " << e.what();
      }
    });
  }
  for (auto& t : threads) t.join();
  for (std::size_t t = 0; t + 1 < kReads; ++t) {
    EXPECT_EQ(failed[t], 0) << t;
    EXPECT_EQ(sunk[t], kLines) << t;
    EXPECT_EQ(windows[t], kLines / kWindow) << t;
  }
  EXPECT_EQ(failed[kReads - 1], 1);
  EXPECT_LT(sunk[kReads - 1], kLines);
  const std::uint64_t kept =
      registry
          .counter(obs::names::kIngestLines,
                   {{"reader", "read_trace"}, {"outcome", "kept"}})
          .value();
  EXPECT_GT(kept, (kReads - 1) * kLines + sunk[kReads - 1]);
  EXPECT_LT(kept, kReads * kLines);
  EXPECT_EQ(registry.counter(obs::names::kIngestReads,
                             {{"reader", "read_trace"}})
                .value(),
            kReads);
}

}  // namespace
}  // namespace palu
