// Parallel multi-window analysis.
//
// The Section II methodology aggregates many consecutive windows of N_V
// valid packets and studies the per-bin mean and σ across them.  Windows
// of the synthetic stream are exchangeable (the generator is stationary),
// so they can be produced and histogrammed in parallel, one deterministic
// RNG stream per window — the library's main multi-core path for the
// Fig-3-style sweeps.
//
// Sweeps are hardened for long production runs: a worker exception carries
// its window index back to the caller (SweepWindowError), a failure budget
// lets a sweep tolerate a bounded number of bad windows without losing the
// rest, and a cancellation flag / wall-clock timeout stops a stuck sweep
// cleanly between windows.
//
// Every sweep runs one stage graph (DESIGN.md §5g): a pool worker
// produces window t — a packet draw, a count-space draw, or a store read
// — into its leased WindowAccumulator, then bins it; the calling thread
// reduces the windows in index order.  An optional capture sink tees each
// accumulated window into a store.  Workers lease arena-reused scratch
// (one cached generator reseeded per window, one accumulator, batch
// buffers) from a ScratchPool, so no window rebuilds tables.
//
// Count-space synthesis (SweepOptions::synthesis = kMultinomial) draws
// each window whole as per-pair packet counts (Multinomial over edge
// rates + one direction Binomial per active pair), so per-window cost is
// O(num_edges) instead of O(n_valid).  Same law, different RNG
// consumption — counts sweeps are distributionally equivalent to packet
// sweeps, not byte-identical (see DESIGN.md §5e).
//
// The analytic window (evaluate_expected_window) drops the RNG entirely:
// one deterministic ExpectedWindowEvaluator pass produces the expected
// pooled histogram and Table-I aggregates in closed form — O(num_edges)
// once per window size, independent of N_V (DESIGN.md §5i).
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "palu/common/error.hpp"
#include "palu/common/types.hpp"
#include "palu/graph/graph.hpp"
#include "palu/parallel/thread_pool.hpp"
#include "palu/stats/histogram.hpp"
#include "palu/stats/log_binning.hpp"
#include "palu/traffic/expected_window.hpp"
#include "palu/traffic/quantities.hpp"
#include "palu/traffic/stream.hpp"

namespace palu::obs {
class Registry;
}

namespace palu::traffic {

class WindowSource;       // traffic/window_source.hpp
class WindowCaptureSink;  // traffic/window_source.hpp

/// Thrown when a sweep worker fails and the failure budget is zero; names
/// the window so operators can bisect a bad capture region.
class SweepWindowError : public Error {
 public:
  SweepWindowError(std::size_t window, const std::string& what)
      : Error("sweep_windows: window " + std::to_string(window) +
              " failed: " + what),
        window_(window) {}

  std::size_t window() const noexcept { return window_; }

 private:
  std::size_t window_;
};

/// One failed window of a tolerant sweep.
struct WindowFailure {
  std::size_t window = 0;
  std::string error;
};

/// How a sweep turns the traffic law into per-window histograms.
enum class SynthesisMode {
  /// Draw n_valid individual packets per window (default; the reference
  /// path).
  kPacket,
  /// Draw each window whole as per-pair counts via one Multinomial over
  /// the edge rates; O(num_edges) per window.  Distributionally
  /// equivalent to kPacket, not byte-identical.
  kMultinomial,
};

/// Resilience knobs and sinks for sweep_windows.
struct SweepOptions {
  /// Windows allowed to fail before the sweep itself fails.  0 preserves
  /// the strict behaviour: the first failure is rethrown as
  /// SweepWindowError with the window index attached.
  std::size_t max_failed_windows = 0;
  /// Window synthesis strategy of the graph overloads; kPacket keeps the
  /// packet-exact reference behaviour, kMultinomial switches to
  /// O(num_edges) count-space draws.
  SynthesisMode synthesis = SynthesisMode::kPacket;
  /// Cooperative cancellation: checked between windows; a cancelled sweep
  /// returns the windows finished so far with `cancelled` set.
  const std::atomic<bool>* cancel = nullptr;
  /// Wall-clock budget for the whole sweep; zero means unlimited.  Checked
  /// between windows (a worker stuck inside one window cannot be
  /// preempted, but no new window starts past the deadline).
  std::chrono::milliseconds timeout{0};
  /// Optional capture tee: every successfully accumulated window is
  /// appended (canonical per-pair counts) before the sweep reduces it.
  /// Not owned; must be thread-safe (workers append concurrently) and
  /// outlive the sweep call.  An append failure is charged to the
  /// window like any other per-window fault.
  WindowCaptureSink* capture = nullptr;
  /// Metrics sink for sweep counters and stage-duration histograms
  /// (palu_sweep_* families, see palu/obs/names.hpp).  nullptr routes to
  /// obs::default_registry(); point it at a caller-owned registry for
  /// per-run isolation (bench_sweep, the equivalence tests).
  obs::Registry* metrics = nullptr;
};

/// CPU nanoseconds per sweep stage, in two views.  `*_cpu_ns` is the sum
/// over all workers — total compute burned, which on a multi-worker pool
/// exceeds elapsed wall time.  `*_max_ns` is the largest single worker's
/// total for the stage — the straggler bound, i.e. the best lower bound
/// on the stage's wall-clock contribution this accounting can give
/// without per-stage barriers.  (An earlier revision reported the summed
/// values under a "wall-clock" label; both views exist so neither gets
/// misread again.)  Sampling covers producing the window (packet draws,
/// the Multinomial + direction-split draws, or the store read and
/// decode), accumulation the packet adds or the ingest of the pair
/// records.  The serial window-order reduce runs on the calling thread
/// and is added to both binning views.
struct SweepStageTimings {
  // Summed across workers (total CPU time per stage).
  std::uint64_t sampling_cpu_ns = 0;      // draws or store read + decode
  std::uint64_t accumulation_cpu_ns = 0;  // packets / records → counts
  std::uint64_t binning_cpu_ns = 0;       // histogramming + reduce

  // Slowest single worker per stage (straggler view).
  std::uint64_t sampling_max_ns = 0;
  std::uint64_t accumulation_max_ns = 0;
  std::uint64_t binning_max_ns = 0;
};

struct WindowSweepResult {
  stats::BinnedEnsemble ensemble;   // pooled D(d_i) mean/σ across windows
  stats::DegreeHistogram merged;    // all windows' quantity merged
  Degree max_value = 0;             // d_max over all windows (Eq. 1)
  std::size_t windows = 0;          // windows merged into the result
  std::vector<WindowFailure> failures;  // tolerated per-window failures
  std::size_t windows_skipped = 0;  // not attempted (cancel / timeout)
  bool cancelled = false;           // cancel flag or timeout fired
  SweepStageTimings timings;        // per-stage CPU sum + straggler max
};

/// Draws `num_windows` windows of `n_valid` packets each over
/// `underlying`, histograms `quantity` per window, and reduces in window
/// order (deterministic given `seed`).  Windows are processed in parallel
/// on `pool`; window t uses the RNG stream fork(seed, t).  Successful
/// windows are merged in index order regardless of which windows failed,
/// so the result for a given seed is reproducible under fault injection.
WindowSweepResult sweep_windows(const graph::Graph& underlying,
                                const RateModel& rates, Count n_valid,
                                std::size_t num_windows, Quantity quantity,
                                std::uint64_t seed, ThreadPool& pool,
                                const SweepOptions& opts);

/// Strict overload (empty SweepOptions): first window failure throws.
WindowSweepResult sweep_windows(const graph::Graph& underlying,
                                const RateModel& rates, Count n_valid,
                                std::size_t num_windows, Quantity quantity,
                                std::uint64_t seed, ThreadPool& pool);

/// Replay overload: drives the same stage graph from stored windows —
/// no graph, no rate model, no RNG (opts.synthesis does not apply).
/// Windows [0, num_windows) of `source` are decoded in parallel on `pool`
/// (num_windows must not exceed source.num_windows()), accumulated and
/// reduced in window order, so the result is byte-identical to the
/// capturing sweep for every quantity.  opts.capture must be null (the
/// windows are already stored); a per-window DataError from the source
/// (corrupt block) is charged against opts.max_failed_windows exactly
/// like a synthesis failure.
WindowSweepResult sweep_windows(WindowSource& source,
                                std::size_t num_windows, Quantity quantity,
                                ThreadPool& pool, const SweepOptions& opts);

/// The analytic window (DESIGN.md §5i): the expected pooled mass, per-bin
/// expected entity counts, Table-I aggregates, and median-of-max d_max of
/// one N_V-packet window of `quantity`, evaluated in closed form over the
/// rate draw a sweep with the same `seed` would use (Rng(seed).fork(0)).
/// No window RNG and no window count: the result is what an infinite
/// sampled ensemble converges to.  Records palu_sweep_* counters and the
/// {path="expected"} stage histograms (prepare → sampling, evaluate →
/// accumulation, result assembly → binning) into `metrics` (nullptr =
/// obs::default_registry()).  Throws on failure, including an armed
/// `theory.expected_window` failpoint.
ExpectedWindow evaluate_expected_window(const graph::Graph& underlying,
                                        const RateModel& rates,
                                        Count n_valid, Quantity quantity,
                                        std::uint64_t seed,
                                        obs::Registry* metrics = nullptr);

}  // namespace palu::traffic
