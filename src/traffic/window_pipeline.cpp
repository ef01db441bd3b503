// Stage times reach the registry only through obs::TraceSpan, so this
// file never reads a clock and palu_lint's determinism rule covers it.
#include "palu/traffic/window_pipeline.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "palu/common/failpoint.hpp"
#include "palu/obs/metrics.hpp"
#include "palu/obs/names.hpp"
#include "palu/obs/span.hpp"
#include "palu/parallel/parallel_for.hpp"
#include "palu/parallel/scratch_pool.hpp"
#include "palu/traffic/window_accumulator.hpp"
#include "palu/traffic/window_source.hpp"

namespace palu::traffic {

namespace {

/// Per-worker sweep scratch: a copy of the sweep's generator (sharing its
/// tables, reseeded per window; absent on replay sweeps, which have no
/// graph), one arena-reused accumulator, and the batch buffers of the
/// producers.  Leased from a ScratchPool so whatever worker picks up a
/// chunk reuses an existing arena instead of rebuilding per window.
struct SweepScratch {
  std::optional<SyntheticTrafficGenerator> gen;
  WindowAccumulator acc;
  std::vector<Packet> buf;                   // packet-draw batch
  std::vector<EdgePacketCounts> pairs;       // counts/replay window records
  std::vector<EdgePacketCounts> export_buf;  // capture-tee staging
  std::vector<std::byte> io_buf;             // replay block bytes
};

constexpr std::size_t kPacketBatch = 8192;

/// What produces each window of a sweep.
enum class Producer { kPacketDraw, kCountsDraw, kStoreRead };

/// Immutable per-sweep description shared by every window.
struct SweepPlan {
  Producer producer;
  WindowSource* source;             // kStoreRead only
  const graph::Graph* underlying;   // draws only
  const RateModel* rates;           // draws only
  Rng base;  // rates draw from base.fork(0), window t from base.fork(t + 1)
  Count n_valid;  // draws only; a stored window carries its own
  Quantity quantity;
};

/// The `path` label of the sweep's stage histograms.
const char* path_label(Producer p) {
  switch (p) {
    case Producer::kPacketDraw:
      return "fast";
    case Producer::kCountsDraw:
      return "counts";
    case Producer::kStoreRead:
      return "replay";
  }
  return "fast";
}

/// Counter handles for one sweep call, resolved once against whichever
/// registry the options selected so the per-window hot path never touches
/// the registry's mutex.
struct SweepMetrics {
  obs::Counter& runs;
  obs::Counter& windows_completed;
  obs::Counter& windows_failed;
  obs::Counter& windows_skipped;
  obs::Counter& failpoint_trips;
  obs::Gauge& pool_threads;
  obs::Histogram& sweep_duration;
  obs::Histogram* stage_setup;  // null on replay, which builds no tables
  obs::Histogram& stage_sampling;
  obs::Histogram& stage_accumulation;
  obs::Histogram& stage_binning;

  SweepMetrics(obs::Registry& r, const char* path)
      : runs(r.counter(obs::names::kSweepRuns)),
        windows_completed(r.counter(obs::names::kSweepWindows,
                                    {{"outcome", "completed"}})),
        windows_failed(
            r.counter(obs::names::kSweepWindows, {{"outcome", "failed"}})),
        windows_skipped(
            r.counter(obs::names::kSweepWindows, {{"outcome", "skipped"}})),
        failpoint_trips(r.counter(obs::names::kSweepFailpointTrips)),
        pool_threads(r.gauge(obs::names::kSweepPoolThreads)),
        sweep_duration(r.histogram(obs::names::kSweepDurationNs)),
        stage_setup(std::string_view(path) == "replay"
                        ? nullptr
                        : &stage_histogram(r, path, "setup")),
        stage_sampling(stage_histogram(r, path, "sampling")),
        stage_accumulation(stage_histogram(r, path, "accumulation")),
        stage_binning(stage_histogram(r, path, "binning")) {}

  static obs::Histogram& stage_histogram(obs::Registry& r, const char* path,
                                         const char* stage) {
    return r.histogram(obs::names::kSweepStageDurationNs,
                       {{"path", path}, {"stage", stage}});
  }

  /// Records one completed window: one observation per stage.
  void observe_window(std::uint64_t sampling_ns, std::uint64_t accumulation_ns,
                      std::uint64_t binning_ns) noexcept {
    stage_sampling.observe(sampling_ns);
    stage_accumulation.observe(accumulation_ns);
    stage_binning.observe(binning_ns);
  }
};

/// Tees window t into the capture sink before the reduce.  A counts draw
/// archives its staged records directly (full support; the writer drops
/// zero rows, which is content-neutral); a packet window exports
/// canonical records from the accumulator.
void capture_window(const SweepPlan& plan, std::size_t t, SweepScratch& s,
                    WindowCaptureSink& sink) {
  std::span<const EdgePacketCounts> records(s.pairs);
  if (plan.producer == Producer::kPacketDraw) {
    s.export_buf.clear();
    s.acc.export_counts(s.export_buf);
    records = s.export_buf;
  }
  sink.append(t, plan.n_valid, records);
}

// ---------------------------------------------------------------------
// Stage graph (DESIGN.md §5g).  Every window flows through
//
//   produce → accumulate → bin  [→ capture]   (inside one pool worker)
//                           └→ reduce          (serial, caller's thread)
//
// run_window is the per-window half.  A packet draw is accumulated batch
// by batch; a counts draw or a store read stages the window's pair
// records, which the accumulator ingests whole.
// ---------------------------------------------------------------------

/// Runs window t through its stages and, once it has completed, records
/// one observation per stage (capture I/O counts as binning, an output
/// stage).  Packet batches add into window-local totals, so the registry
/// is touched once per window, and a window that throws records nothing.
stats::DegreeHistogram run_window(const SweepPlan& plan, std::size_t t,
                                  SweepScratch& s, WindowCaptureSink* capture,
                                  SweepMetrics& metrics) {
  std::uint64_t sampling_ns = 0, accumulation_ns = 0, binning_ns = 0;
  if (plan.producer != Producer::kStoreRead) {
    s.gen->reseed(plan.base.fork(t + 1));
  }
  s.acc.begin_window();
  if (plan.producer == Producer::kPacketDraw) {
    if (s.buf.size() < kPacketBatch) s.buf.resize(kPacketBatch);
    for (Count left = plan.n_valid; left > 0;) {
      const std::size_t n = static_cast<std::size_t>(
          std::min<Count>(left, kPacketBatch));
      obs::TraceSpan produce(sampling_ns);
      s.gen->next_batch(std::span<Packet>(s.buf.data(), n));
      produce.stop();
      obs::TraceSpan accumulate(accumulation_ns);
      for (std::size_t i = 0; i < n; ++i) {
        s.acc.add(s.buf[i].src, s.buf[i].dst);
      }
      left -= n;
    }
  } else {
    obs::TraceSpan produce(sampling_ns);
    if (plan.producer == Producer::kStoreRead) {
      plan.source->read_window(t, s.io_buf, s.pairs);
    } else {
      s.gen->next_window_counts(plan.n_valid, s.pairs);
    }
    produce.stop();
    obs::TraceSpan accumulate(accumulation_ns);
    s.acc.ingest_counts(s.pairs);
  }
  obs::TraceSpan bin(binning_ns);
  stats::DegreeHistogram h = s.acc.histogram(plan.quantity);
  if (capture != nullptr) capture_window(plan, t, s, *capture);
  bin.stop();
  metrics.observe_window(sampling_ns, accumulation_ns, binning_ns);
  return h;
}

/// Shared sweep core: builds the network's tables once (draws only, as
/// the sweep's one setup observation), runs windows [0, num_windows) of
/// `plan` on `pool` and reduces them in index order.
WindowSweepResult sweep_impl(const SweepPlan& plan, std::size_t num_windows,
                             ThreadPool& pool, const SweepOptions& opts) {
  obs::Registry& registry =
      opts.metrics != nullptr ? *opts.metrics : obs::default_registry();
  SweepMetrics metrics(registry, path_label(plan.producer));
  metrics.runs.inc();
  metrics.pool_threads.set(static_cast<std::int64_t>(pool.size()));
  obs::TraceSpan sweep_span(metrics.sweep_duration);

  // One shared traffic matrix: every window sees the same long-term
  // per-edge rates; only the packet draws differ between windows.  The
  // generator's tables (and, for counts draws, the pair support and its
  // Multinomial sampler) are built here, before any window, and every
  // scratch slot's copy shares them read-only.
  std::optional<SyntheticTrafficGenerator> network;
  if (plan.producer != Producer::kStoreRead) {
    obs::TraceSpan setup(*metrics.stage_setup);
    network.emplace(*plan.underlying,
                    make_edge_rates(*plan.underlying, *plan.rates,
                                    plan.base.fork(0)),
                    Rng(0));
    if (plan.producer == Producer::kCountsDraw) network->pair_support();
  }

  // Per-window slots: at most one of histogram / error is set afterwards
  // (with the error, the exception that caused it); neither set means the
  // window was skipped after a strict-mode failure.
  //
  // Thread-safety invariant (checked by tsan_stress_test): each worker
  // writes only the slots for its own window indices, and the reduce loop
  // below reads them only after parallel_for has joined every chunk's
  // future, which establishes the necessary happens-before.  These vectors
  // therefore need no mutex; all cross-window signalling goes through the
  // atomics beneath them.
  std::vector<std::optional<stats::DegreeHistogram>> histograms(
      num_windows);
  std::vector<std::optional<std::string>> errors(num_windows);
  std::vector<std::exception_ptr> causes(num_windows);
  std::atomic<bool> stop_new_windows{false};
  std::atomic<std::uint64_t> failpoint_trips{0};

  // Per-worker scratch slots: each holds a copy of the generator,
  // reseeded per window.  Replay slots hold only the accumulator arenas
  // and byte/record buffers.
  ScratchPool<SweepScratch> scratch([&network]() {
    auto s = std::make_unique<SweepScratch>();
    if (network) s->gen.emplace(*network);
    return s;
  });

  parallel_for(pool, 0, num_windows, /*grain=*/1, [&](IndexRange range) {
    auto lease = scratch.acquire();
    for (std::size_t t = range.begin; t < range.end; ++t) {
      // Leave the remaining slots unset once a strict sweep is lost.
      if (stop_new_windows.load(std::memory_order_relaxed)) break;
      try {
        PALU_FAILPOINT("traffic.sweep_window");
        histograms[t] = run_window(plan, t, *lease, opts.capture, metrics);
      } catch (const std::exception& e) {
        if (failpoints::is_failpoint_error(e)) {
          failpoint_trips.fetch_add(1, std::memory_order_relaxed);
        }
        errors[t] = e.what();
        causes[t] = std::current_exception();
        if (opts.max_failed_windows == 0) {
          // Strict mode: no point producing more windows for a sweep
          // that is already lost.
          stop_new_windows.store(true, std::memory_order_relaxed);
        }
      }
    }
  });

  // Record window dispositions before the strict/budget throws below, so
  // metrics describe failed sweeps too.
  std::size_t n_failed = 0, n_completed = 0;
  for (std::size_t t = 0; t < num_windows; ++t) {
    if (errors[t]) {
      ++n_failed;
    } else if (histograms[t]) {
      ++n_completed;
    }
  }
  metrics.windows_completed.inc(n_completed);
  metrics.windows_failed.inc(n_failed);
  metrics.windows_skipped.inc(num_windows - n_failed - n_completed);
  metrics.failpoint_trips.inc(
      failpoint_trips.load(std::memory_order_relaxed));

  WindowSweepResult out;
  for (std::size_t t = 0; t < num_windows; ++t) {
    if (errors[t]) {
      if (opts.max_failed_windows == 0) {
        // The cause rides along nested, so a caller can tell bad data (a
        // corrupt store block) from a fault.
        try {
          std::rethrow_exception(causes[t]);
        } catch (...) {
          std::throw_with_nested(SweepWindowError(t, *errors[t]));
        }
      }
      out.failures.push_back(WindowFailure{t, std::move(*errors[t])});
      continue;
    }
    if (!histograms[t]) continue;  // skipped; the strict failure throws
    const stats::DegreeHistogram& h = *histograms[t];
    out.max_value = std::max(out.max_value, h.max_degree());
    out.ensemble.add(stats::LogBinned::from_histogram(h));
    out.merged.merge(h);
    ++out.windows;
  }
  if (out.failures.size() > opts.max_failed_windows) {
    const WindowFailure& first = out.failures.front();
    throw SweepWindowError(
        first.window,
        first.error + " (" + std::to_string(out.failures.size()) +
            " windows failed, budget " +
            std::to_string(opts.max_failed_windows) + ")");
  }
  return out;
}

}  // namespace

WindowSweepResult sweep_windows(const graph::Graph& underlying,
                                const RateModel& rates, Count n_valid,
                                std::size_t num_windows, Quantity quantity,
                                std::uint64_t seed, ThreadPool& pool,
                                const SweepOptions& opts) {
  PALU_CHECK(n_valid >= 1, "sweep_windows: need at least one packet");
  PALU_CHECK(num_windows >= 1, "sweep_windows: need at least one window");
  const Producer producer = opts.synthesis == SynthesisMode::kMultinomial
                                ? Producer::kCountsDraw
                                : Producer::kPacketDraw;
  const SweepPlan plan{producer, nullptr, &underlying, &rates,
                       Rng(seed), n_valid, quantity};
  return sweep_impl(plan, num_windows, pool, opts);
}

WindowSweepResult sweep_windows(const graph::Graph& underlying,
                                const RateModel& rates, Count n_valid,
                                std::size_t num_windows, Quantity quantity,
                                std::uint64_t seed, ThreadPool& pool) {
  return sweep_windows(underlying, rates, n_valid, num_windows, quantity,
                       seed, pool, SweepOptions{});
}

WindowSweepResult sweep_windows(WindowSource& source,
                                std::size_t num_windows, Quantity quantity,
                                ThreadPool& pool, const SweepOptions& opts) {
  PALU_CHECK(opts.capture == nullptr,
             "sweep_windows: capture does not compose with replay (the "
             "windows are already stored)");
  PALU_CHECK(num_windows >= 1, "sweep_windows: need at least one window");
  PALU_CHECK(num_windows <= source.num_windows(),
             "sweep_windows: replay source holds fewer windows than "
             "requested");
  const SweepPlan plan{Producer::kStoreRead, &source, nullptr, nullptr,
                       Rng(0), /*n_valid=*/0, quantity};
  return sweep_impl(plan, num_windows, pool, opts);
}

ExpectedWindow evaluate_expected_window(const graph::Graph& underlying,
                                        const RateModel& rates,
                                        Count n_valid, Quantity quantity,
                                        std::uint64_t seed, ThreadPool& pool,
                                        obs::Registry* metrics) {
  PALU_CHECK(n_valid >= 1,
             "evaluate_expected_window: need at least one packet");
  SweepMetrics m(metrics != nullptr ? *metrics : obs::default_registry(),
                 "expected");
  m.runs.inc();
  obs::TraceSpan span(m.sweep_duration);
  try {
    // Set-up: the rate draw, the merged pair support (the merge the
    // generator uses; no generator and no sampler) and the evaluator's
    // link tables.  Stage accounting then maps onto the sampled paths'
    // graph: the visibility pass (prepare) is the "sampling" analogue
    // and the marginal folding (evaluate) is "accumulation".  The
    // evaluator emits the binned mass itself, so the analytic window has
    // no binning stage and records 0.
    obs::TraceSpan setup(*m.stage_setup);
    ExpectedWindowEvaluator eval(
        make_pair_support(underlying, make_edge_rates(underlying, rates,
                                                      Rng(seed).fork(0))),
        pool);
    setup.stop();
    std::uint64_t prepare_ns = 0, evaluate_ns = 0;
    obs::TraceSpan prepare(prepare_ns);
    eval.prepare(n_valid);
    prepare.stop();
    obs::TraceSpan evaluate(evaluate_ns);
    ExpectedWindow win = eval.evaluate(quantity);
    evaluate.stop();
    m.observe_window(prepare_ns, evaluate_ns, 0);
    m.windows_completed.inc(1);
    return win;
  } catch (const std::exception& e) {
    if (failpoints::is_failpoint_error(e)) m.failpoint_trips.inc(1);
    m.windows_failed.inc(1);
    throw;
  }
}

}  // namespace palu::traffic
