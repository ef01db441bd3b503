// Streaming PALU estimation (the `palu_tool serve` engine).
//
// The paper's data arrive as an endless sequence of fixed-N_V windows;
// an operator wants running parameter estimates, not a one-shot batch
// fit.  WindowedStreamingEstimator fits each window on its own (tumbling
// lane) and as part of a bounded sliding horizon of recent windows
// (sliding lane) with robust_fit_palu_warm: the profile-likelihood fit,
// with the previous window's parameters as one more candidate start, and
// the moment fit when it fails.  Both lanes keep bounded state, so an
// unbounded stream cannot grow the estimator, and the tumbling lane
// follows a regime change within one window (the grid runs on every
// window).  A window neither estimator can fit — or one force-degraded
// by the caller (fit deadline, injected fault) — keeps the previous
// parameters tagged kStale instead of failing, so the service degrades
// rather than dies.
// The complete estimator state (lanes + horizon) is exposed for
// checkpointing: restoring a StreamingState and replaying the same
// windows reproduces the exact fits of an uninterrupted run.
//
// The two lanes share no state: each warm-starts only from its own
// previous fit.  refit_window therefore fits the sliding lane as a task
// on ThreadPool::global() while the calling thread fits the tumbling
// lane, and the results are the bits a serial refit gives.  It blocks
// until that task is done, so it must never run inside a task on the
// global pool: once every worker waited that way the pool would
// deadlock.
#pragma once

#include <deque>
#include <string>
#include <string_view>
#include <vector>

#include "palu/core/estimate.hpp"
#include "palu/fit/robust.hpp"
#include "palu/fit/zipf_mandelbrot.hpp"
#include "palu/stats/histogram.hpp"

namespace palu::core {

/// Knobs for the windowed estimator.
struct StreamingOptions {
  PaluFitOptions fit;
  fit::RobustFitOptions robust;
  /// Degrees above this form the profile fit's pooled tail cell.
  Degree refine_max = 256;
  /// Windows merged into the sliding lane (>= 1).  The horizon is a
  /// bounded deque: window t's sliding fit sees windows
  /// [t − horizon + 1, t].
  std::size_t sliding_horizon = 4;
  /// Offer the previous window's parameters as a candidate start.
  bool warm_start = true;
  /// Also fit the modified Zipf–Mandelbrot model per window.
  bool fit_zm = true;
};

/// Provenance of the parameters a lane currently serves.
enum class FitFreshness {
  kNone,   ///< no window has ever produced parameters on this lane
  kFresh,  ///< parameters come from the most recent window
  kStale,  ///< most recent window degraded; serving an older window's fit
};

std::string_view to_string(FitFreshness f) noexcept;

/// One lane's serveable state: the PALU parameters (and optionally the ZM
/// companion fit) plus how trustworthy they are right now.
struct StreamingFitSnapshot {
  PaluFit fit;
  fit::RobustStage stage = fit::RobustStage::kFailed;
  FitFreshness freshness = FitFreshness::kNone;
  fit::ZmFitResult zm;
  bool zm_valid = false;
  /// Why the most recent window degraded this lane (empty when fresh).
  std::string error;

  bool has_fit() const noexcept {
    return freshness != FitFreshness::kNone;
  }
};

/// Outcome of one refit_window call: both lanes after folding the window.
struct StreamingRefit {
  std::size_t window_index = 0;  ///< 0-based index of the window just fed
  StreamingFitSnapshot window;   ///< tumbling lane (this window alone)
  StreamingFitSnapshot sliding;  ///< sliding lane (horizon merge)
  /// True when the tumbling lane got fresh parameters from this window.
  bool fresh = false;
};

/// The complete serializable estimator state.  restore()ing this and
/// replaying the same subsequent windows yields byte-identical fits to an
/// uninterrupted run — the contract the serve checkpoint relies on.
struct StreamingState {
  std::size_t windows = 0;        ///< windows folded so far
  std::size_t stale_windows = 0;  ///< refits that left the tumbling lane stale
  /// Consecutive refits (ending at the last window) that left the
  /// tumbling lane stale.  Part of the serializable state: the serve
  /// staleness gauge is derived from it, so a restore that dropped it
  /// would break the byte-identical-resume contract for metrics.
  std::size_t consecutive_stale = 0;
  StreamingFitSnapshot window_lane;
  StreamingFitSnapshot sliding_lane;
  /// Sliding horizon, oldest first (at most sliding_horizon entries).
  std::vector<stats::DegreeHistogram> horizon;
};

class WindowedStreamingEstimator {
 public:
  explicit WindowedStreamingEstimator(StreamingOptions opts = {});

  /// Folds one window histogram and refits both lanes, the sliding lane
  /// on ThreadPool::global() (see the file comment).  When
  /// `forced_error` is non-empty the window is treated as un-fittable
  /// (deadline overrun, injected fault): the histogram still enters the
  /// horizon — so a later restore replay stays consistent — but both
  /// lanes keep their previous parameters tagged kStale.  Never throws
  /// for bad data; a window neither estimator can fit degrades the same
  /// way.
  StreamingRefit refit_window(const stats::DegreeHistogram& window,
                              std::string_view forced_error = {});

  std::size_t windows_seen() const noexcept { return state_.windows; }
  std::size_t stale_windows() const noexcept {
    return state_.stale_windows;
  }
  /// Consecutive refits (ending now) that left the tumbling lane stale.
  /// Lives in StreamingState, so it survives checkpoint restore.
  std::size_t consecutive_stale() const noexcept {
    return state_.consecutive_stale;
  }

  const StreamingFitSnapshot& window_fit() const noexcept {
    return state_.window_lane;
  }
  const StreamingFitSnapshot& sliding_fit() const noexcept {
    return state_.sliding_lane;
  }

  const StreamingOptions& options() const noexcept { return opts_; }

  /// Snapshot of the complete state for checkpointing.
  StreamingState state() const;

  /// Replaces the estimator state (checkpoint restore).  Horizon entries
  /// beyond sliding_horizon are dropped oldest-first.
  void restore(StreamingState state);

 private:
  StreamingFitSnapshot fit_lane(const stats::DegreeHistogram& h,
                                const StreamingFitSnapshot& previous) const;
  static StreamingFitSnapshot degrade(const StreamingFitSnapshot& previous,
                                      std::string_view why);

  StreamingOptions opts_;
  StreamingState state_;
  std::deque<stats::DegreeHistogram> horizon_;
};

}  // namespace palu::core
