// Timing TU: steady_clock reads here feed the SweepStageTimings
// diagnostics, the obs duration histograms, and the wall-clock timeout;
// no analysis result (histograms, ensembles, d_max) ever depends on the
// clock.  Listed in tools/timing_files.txt for palu_lint's determinism
// rule.
#include "palu/traffic/window_pipeline.hpp"

#include <algorithm>
#include <chrono>
#include <map>
#include <mutex>
#include <optional>
#include <thread>
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

using Clock = std::chrono::steady_clock;

std::uint64_t ns_between(Clock::time_point from, Clock::time_point to) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(to - from)
          .count());
}

/// Per-worker sweep scratch: one generator (edges + alias tables built
/// once, reseeded per window; absent on replay sweeps, which have no
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
  WindowSource* source;  // kStoreRead only
  Rng base;              // window t draws from base.fork(t + 1)
  Count n_valid;         // draws only; a stored window carries its own
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

/// Plain per-stage nanosecond totals, accumulated worker-locally in the
/// hot loop and folded into both SweepStageTimings views afterwards.
struct StageNs {
  std::uint64_t sampling = 0;
  std::uint64_t accumulation = 0;
  std::uint64_t binning = 0;

  void add(const StageNs& o) noexcept {
    sampling += o.sampling;
    accumulation += o.accumulation;
    binning += o.binning;
  }
};

/// Counter handles for one sweep call, resolved once against whichever
/// registry the options selected so the per-window hot path never touches
/// the registry's mutex.
struct SweepMetrics {
  obs::Counter& runs;
  obs::Counter& windows_completed;
  obs::Counter& windows_failed;
  obs::Counter& windows_skipped;
  obs::Counter& cancelled;
  obs::Counter& deadline_expired;
  obs::Counter& failpoint_trips;
  obs::Gauge& pool_threads;
  obs::Histogram& sweep_duration;
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
        cancelled(r.counter(obs::names::kSweepCancelled)),
        deadline_expired(r.counter(obs::names::kSweepDeadlineExpired)),
        failpoint_trips(r.counter(obs::names::kSweepFailpointTrips)),
        pool_threads(r.gauge(obs::names::kSweepPoolThreads)),
        sweep_duration(r.histogram(obs::names::kSweepDurationNs)),
        stage_sampling(stage_histogram(r, path, "sampling")),
        stage_accumulation(stage_histogram(r, path, "accumulation")),
        stage_binning(stage_histogram(r, path, "binning")) {}

  static obs::Histogram& stage_histogram(obs::Registry& r, const char* path,
                                         const char* stage) {
    return r.histogram(obs::names::kSweepStageDurationNs,
                       {{"path", path}, {"stage", stage}});
  }
};

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

stats::DegreeHistogram run_window(const SweepPlan& plan, std::size_t t,
                                  SweepScratch& s, StageNs& ns) {
  if (plan.producer != Producer::kStoreRead) {
    s.gen->reseed(plan.base.fork(t + 1));
  }
  s.acc.begin_window();
  if (plan.producer == Producer::kPacketDraw) {
    if (s.buf.size() < kPacketBatch) s.buf.resize(kPacketBatch);
    for (Count left = plan.n_valid; left > 0;) {
      const std::size_t n = static_cast<std::size_t>(
          std::min<Count>(left, kPacketBatch));
      const auto t0 = Clock::now();
      s.gen->next_batch(std::span<Packet>(s.buf.data(), n));
      const auto t1 = Clock::now();
      for (std::size_t i = 0; i < n; ++i) {
        s.acc.add(s.buf[i].src, s.buf[i].dst);
      }
      ns.sampling += ns_between(t0, t1);
      ns.accumulation += ns_between(t1, Clock::now());
      left -= n;
    }
  } else {
    const auto t0 = Clock::now();
    if (plan.producer == Producer::kStoreRead) {
      plan.source->read_window(t, s.io_buf, s.pairs);
    } else {
      s.gen->next_window_counts(plan.n_valid, s.pairs);
    }
    const auto t1 = Clock::now();
    s.acc.ingest_counts(s.pairs);
    ns.sampling += ns_between(t0, t1);
    ns.accumulation += ns_between(t1, Clock::now());
  }
  const auto t0 = Clock::now();
  stats::DegreeHistogram h = s.acc.histogram(plan.quantity);
  ns.binning += ns_between(t0, Clock::now());
  return h;
}

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

/// Shared sweep core: runs windows [0, num_windows) of `plan` on `pool`
/// and reduces them in index order.  `underlying`/`shared_rates` build
/// each worker's generator and are unused when the plan reads a store.
WindowSweepResult sweep_impl(const SweepPlan& plan,
                             const graph::Graph* underlying,
                             const std::vector<double>& shared_rates,
                             std::size_t num_windows, ThreadPool& pool,
                             const SweepOptions& opts) {
  obs::Registry& registry =
      opts.metrics != nullptr ? *opts.metrics : obs::default_registry();
  SweepMetrics metrics(registry, path_label(plan.producer));
  metrics.runs.inc();
  metrics.pool_threads.set(static_cast<std::int64_t>(pool.size()));
  obs::TraceSpan sweep_span(metrics.sweep_duration);

  // Per-window slots: exactly one of histogram / error is set afterwards;
  // neither set means the window was skipped (cancellation or timeout).
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
  std::atomic<bool> stop_new_windows{false};
  std::atomic<bool> cancel_seen{false};
  std::atomic<bool> deadline_seen{false};
  std::atomic<std::uint64_t> failpoint_trips{0};

  const bool has_deadline = opts.timeout.count() > 0;
  // Computed only when a deadline is set: unconditionally adding a
  // duration::max()-class timeout to now() overflows the time_point
  // (signed-overflow UB).  Oversized budgets clamp to the clock's
  // horizon, which is indistinguishable from unlimited.
  Clock::time_point deadline{};
  if (has_deadline) {
    const auto now = Clock::now();
    const auto headroom =
        std::chrono::duration_cast<std::chrono::milliseconds>(
            Clock::time_point::max() - now);
    deadline = opts.timeout >= headroom ? Clock::time_point::max()
                                        : now + opts.timeout;
  }
  const auto should_stop = [&]() {
    if (stop_new_windows.load(std::memory_order_relaxed)) return true;
    if (opts.cancel != nullptr &&
        opts.cancel->load(std::memory_order_relaxed)) {
      cancel_seen.store(true, std::memory_order_relaxed);
      return true;
    }
    if (has_deadline && std::chrono::steady_clock::now() >= deadline) {
      deadline_seen.store(true, std::memory_order_relaxed);
      return true;
    }
    return false;
  };

  // Per-worker scratch slots: each slot pays the edge copy and alias-table
  // build once (the counts support adds itself lazily on a slot's first
  // counts window) and is reseeded per window.  Replay slots hold only the
  // accumulator arenas and byte/record buffers.
  ScratchPool<SweepScratch> scratch([underlying, &shared_rates]() {
    auto s = std::make_unique<SweepScratch>();
    if (underlying != nullptr) {
      s->gen.emplace(*underlying, shared_rates, Rng(0));
    }
    return s;
  });

  // Per-worker stage totals, flushed once per chunk (a worker can run
  // several chunks; map lookup + mutex per chunk is noise next to the
  // windows inside it).  Keeping totals per worker is what makes the
  // straggler view (`*_max_ns`) computable after the join.
  std::mutex worker_ns_mutex;
  std::map<std::thread::id, StageNs> worker_ns;

  parallel_for(pool, 0, num_windows, /*grain=*/1, [&](IndexRange range) {
    StageNs local;
    auto lease = scratch.acquire();
    for (std::size_t t = range.begin; t < range.end; ++t) {
      if (should_stop()) break;  // leave the remaining slots unset
      try {
        PALU_FAILPOINT("traffic.sweep_window");
        histograms[t] = run_window(plan, t, *lease, local);
        if (opts.capture != nullptr) {
          // Capture I/O is charged to binning — it is an output stage.
          const auto c0 = Clock::now();
          capture_window(plan, t, *lease, *opts.capture);
          local.binning += ns_between(c0, Clock::now());
        }
      } catch (const std::exception& e) {
        if (failpoints::is_failpoint_error(e)) {
          failpoint_trips.fetch_add(1, std::memory_order_relaxed);
        }
        errors[t] = e.what();
        if (opts.max_failed_windows == 0) {
          // Strict mode: no point producing more windows for a sweep
          // that is already lost.
          stop_new_windows.store(true, std::memory_order_relaxed);
        }
      }
    }
    std::lock_guard<std::mutex> lock(worker_ns_mutex);
    worker_ns[std::this_thread::get_id()].add(local);
  });

  // Fold per-worker totals into both timing views and the registry's
  // stage histograms (one observation per participating worker).
  WindowSweepResult out;
  for (const auto& [id, ns] : worker_ns) {
    (void)id;
    out.timings.sampling_cpu_ns += ns.sampling;
    out.timings.accumulation_cpu_ns += ns.accumulation;
    out.timings.binning_cpu_ns += ns.binning;
    out.timings.sampling_max_ns =
        std::max(out.timings.sampling_max_ns, ns.sampling);
    out.timings.accumulation_max_ns =
        std::max(out.timings.accumulation_max_ns, ns.accumulation);
    out.timings.binning_max_ns =
        std::max(out.timings.binning_max_ns, ns.binning);
    metrics.stage_sampling.observe(ns.sampling);
    metrics.stage_accumulation.observe(ns.accumulation);
    metrics.stage_binning.observe(ns.binning);
  }

  // Record window dispositions and stop causes before the strict/budget
  // throws below, so metrics describe failed sweeps too.
  std::size_t n_failed = 0, n_skipped = 0, n_completed = 0;
  for (std::size_t t = 0; t < num_windows; ++t) {
    if (errors[t]) {
      ++n_failed;
    } else if (!histograms[t]) {
      ++n_skipped;
    } else {
      ++n_completed;
    }
  }
  metrics.windows_completed.inc(n_completed);
  metrics.windows_failed.inc(n_failed);
  metrics.windows_skipped.inc(n_skipped);
  metrics.failpoint_trips.inc(
      failpoint_trips.load(std::memory_order_relaxed));
  if (cancel_seen.load(std::memory_order_relaxed)) metrics.cancelled.inc();
  if (deadline_seen.load(std::memory_order_relaxed)) {
    metrics.deadline_expired.inc();
  }

  const auto reduce_start = Clock::now();
  for (std::size_t t = 0; t < num_windows; ++t) {
    if (errors[t]) {
      if (opts.max_failed_windows == 0) {
        throw SweepWindowError(t, *errors[t]);
      }
      out.failures.push_back(WindowFailure{t, std::move(*errors[t])});
      continue;
    }
    if (!histograms[t]) {
      ++out.windows_skipped;
      continue;
    }
    const stats::DegreeHistogram& h = *histograms[t];
    out.max_value = std::max(out.max_value, h.max_degree());
    out.ensemble.add(stats::LogBinned::from_histogram(h));
    out.merged.merge(h);
    ++out.windows;
  }
  out.cancelled = out.windows_skipped > 0;
  if (out.failures.size() > opts.max_failed_windows) {
    const WindowFailure& first = out.failures.front();
    throw SweepWindowError(
        first.window,
        first.error + " (" + std::to_string(out.failures.size()) +
            " windows failed, budget " +
            std::to_string(opts.max_failed_windows) + ")");
  }
  // The serial window-order reduce runs on this (single) thread, so its
  // cost goes into both the CPU and straggler views of binning.
  const std::uint64_t reduce_ns = ns_between(reduce_start, Clock::now());
  out.timings.binning_cpu_ns += reduce_ns;
  out.timings.binning_max_ns += reduce_ns;
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
  const Rng base(seed);
  // One shared traffic matrix: every window sees the same long-term
  // per-edge rates; only the packet draws differ between windows.
  const std::vector<double> shared_rates =
      make_edge_rates(underlying, rates, base.fork(0));
  const Producer producer = opts.synthesis == SynthesisMode::kMultinomial
                                ? Producer::kCountsDraw
                                : Producer::kPacketDraw;
  const SweepPlan plan{producer, nullptr, base, n_valid, quantity};
  return sweep_impl(plan, &underlying, shared_rates, num_windows, pool,
                    opts);
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
  const SweepPlan plan{Producer::kStoreRead, &source, Rng(0),
                       /*n_valid=*/0, quantity};
  return sweep_impl(plan, nullptr, {}, num_windows, pool, opts);
}

ExpectedWindow evaluate_expected_window(const graph::Graph& underlying,
                                        const RateModel& rates,
                                        Count n_valid, Quantity quantity,
                                        std::uint64_t seed,
                                        obs::Registry* metrics) {
  PALU_CHECK(n_valid >= 1,
             "evaluate_expected_window: need at least one packet");
  SweepMetrics m(metrics != nullptr ? *metrics : obs::default_registry(),
                 "expected");
  m.runs.inc();
  obs::TraceSpan span(m.sweep_duration);
  try {
    SyntheticTrafficGenerator gen(
        underlying, make_edge_rates(underlying, rates, Rng(seed).fork(0)),
        Rng(0));
    // Stage accounting maps onto the sampled paths' graph: the visibility
    // pass (prepare) is the "sampling" analogue, the marginal folding
    // (evaluate) is "accumulation", and the hand-off of the result is
    // "binning".
    const auto t0 = Clock::now();
    ExpectedWindowEvaluator eval(gen.pair_support());
    eval.prepare(n_valid);
    const auto t1 = Clock::now();
    ExpectedWindow win = eval.evaluate(quantity);
    const auto t2 = Clock::now();
    m.stage_sampling.observe(ns_between(t0, t1));
    m.stage_accumulation.observe(ns_between(t1, t2));
    m.stage_binning.observe(ns_between(t2, Clock::now()));
    m.windows_completed.inc(1);
    return win;
  } catch (const std::exception& e) {
    if (failpoints::is_failpoint_error(e)) m.failpoint_trips.inc(1);
    m.windows_failed.inc(1);
    throw;
  }
}

}  // namespace palu::traffic
