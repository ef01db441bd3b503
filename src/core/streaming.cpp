#include "palu/core/streaming.hpp"

#include <cmath>
#include <future>
#include <utility>

#include "palu/common/error.hpp"
#include "palu/parallel/thread_pool.hpp"
#include "palu/stats/log_binning.hpp"

namespace palu::core {

namespace {

// Starts a lane's ZM companion fit on the global pool, warm-started from
// the lane's previous ZM parameters when `warm`.  `h` must outlive the
// task.
std::future<fit::ZmFitResult> submit_zm(const stats::DegreeHistogram& h,
                                        const StreamingFitSnapshot& previous,
                                        bool warm) {
  fit::ZmFitOptions zopts;
  if (warm && previous.zm_valid && std::isfinite(previous.zm.alpha) &&
      previous.zm.alpha > 0.0 && previous.zm.delta > -1.0) {
    zopts.alpha_init = previous.zm.alpha;
    zopts.delta_init = previous.zm.delta;
  }
  return ThreadPool::global().submit([&h, zopts] {
    return fit::fit_zipf_mandelbrot(stats::LogBinned::from_histogram(h),
                                    h.max_degree(), zopts);
  });
}

// Waits for a lane's ZM fit, if one was started, and folds it into the
// lane's fresh PALU fit.
StreamingFitSnapshot join_zm(StreamingFitSnapshot lane,
                             const StreamingFitSnapshot& previous,
                             std::future<fit::ZmFitResult>& zm) {
  if (!zm.valid()) return lane;
  if (lane.freshness != FitFreshness::kFresh) {
    // The PALU fit failed: the lane keeps its previous snapshot whole,
    // so the ZM outcome is dropped, an exception included.
    zm.wait();
    return lane;
  }
  // The ZM companion rides along best-effort: a window whose pooled
  // distribution cannot be fitted keeps the previous ZM parameters.
  try {
    lane.zm = zm.get();
    lane.zm_valid = true;
  } catch (const Error&) {
    lane.zm = previous.zm;
    lane.zm_valid = previous.zm_valid;
  }
  return lane;
}

}  // namespace

std::string_view to_string(FitFreshness f) noexcept {
  switch (f) {
    case FitFreshness::kNone:
      return "none";
    case FitFreshness::kFresh:
      return "fresh";
    case FitFreshness::kStale:
      return "stale";
  }
  return "none";
}

WindowedStreamingEstimator::WindowedStreamingEstimator(
    StreamingOptions opts)
    : opts_(std::move(opts)) {
  if (opts_.sliding_horizon == 0) {
    throw InvalidArgument(
        "WindowedStreamingEstimator: sliding_horizon must be >= 1");
  }
}

StreamingFitSnapshot WindowedStreamingEstimator::degrade(
    const StreamingFitSnapshot& previous, std::string_view why) {
  StreamingFitSnapshot out = previous;
  if (out.freshness == FitFreshness::kFresh) {
    out.freshness = FitFreshness::kStale;
  }
  out.error = std::string(why);
  return out;
}

StreamingFitSnapshot WindowedStreamingEstimator::fit_palu_lane(
    const stats::DegreeHistogram& h,
    const StreamingFitSnapshot& previous) const {
  const bool warm = opts_.warm_start && previous.has_fit();
  const RobustPaluFit robust =
      warm ? robust_fit_palu_warm(h, previous.fit, opts_.fit, opts_.robust,
                                  opts_.refine_max)
           : robust_fit_palu(h, opts_.fit, opts_.robust, opts_.refine_max);
  if (!robust.ok()) {
    return degrade(previous, robust.error.empty()
                                 ? "fit failed on every stage"
                                 : robust.error);
  }
  StreamingFitSnapshot out;
  out.fit = robust.fit;
  out.stage = robust.stage;
  out.freshness = FitFreshness::kFresh;
  return out;
}

StreamingRefit WindowedStreamingEstimator::refit_window(
    const stats::DegreeHistogram& window, std::string_view forced_error) {
  // The window enters the horizon unconditionally — even when this refit
  // is force-degraded — so a checkpoint restore that replays the same
  // windows reconstructs the same horizon regardless of which refits
  // degraded along the way.
  horizon_.push_back(window);
  while (horizon_.size() > opts_.sliding_horizon) horizon_.pop_front();

  StreamingRefit out;
  out.window_index = state_.windows;
  ++state_.windows;

  if (!forced_error.empty()) {
    state_.window_lane = degrade(state_.window_lane, forced_error);
    state_.sliding_lane = degrade(state_.sliding_lane, forced_error);
    ++state_.stale_windows;
    ++state_.consecutive_stale;
    out.window = state_.window_lane;
    out.sliding = state_.sliding_lane;
    out.fresh = false;
    return out;
  }

  // Each fit reads only its own lane's previous state, so the fits can
  // run in any order and still give the bits of a serial refit.  The two
  // ZM companion fits, the longest, run as pool tasks while this thread
  // merges the horizon and fits both PALU lanes: the refit takes
  // max(2 x PALU, ZM) rather than PALU + ZM.  The tasks read `window` and
  // `merged`, so they are joined on every path, and no lane is assigned
  // until all fits are done.  One window in the horizon: the sliding lane
  // is the tumbling lane, and only its ZM fit is submitted.
  const bool own_sliding = horizon_.size() > 1;
  stats::DegreeHistogram merged;
  std::future<fit::ZmFitResult> window_zm;
  std::future<fit::ZmFitResult> sliding_zm;
  StreamingFitSnapshot window_lane;
  StreamingFitSnapshot sliding_lane;
  try {
    if (opts_.fit_zm) {
      window_zm = submit_zm(window, state_.window_lane,
                            opts_.warm_start && state_.window_lane.has_fit());
    }
    if (own_sliding) {
      for (const auto& h : horizon_) merged.merge(h);
      if (opts_.fit_zm) {
        sliding_zm =
            submit_zm(merged, state_.sliding_lane,
                      opts_.warm_start && state_.sliding_lane.has_fit());
      }
    }
    window_lane = fit_palu_lane(window, state_.window_lane);
    if (own_sliding) {
      sliding_lane = fit_palu_lane(merged, state_.sliding_lane);
    }
    window_lane = join_zm(std::move(window_lane), state_.window_lane,
                          window_zm);
    sliding_lane = own_sliding
                       ? join_zm(std::move(sliding_lane),
                                 state_.sliding_lane, sliding_zm)
                       : window_lane;
  } catch (...) {
    if (window_zm.valid()) window_zm.wait();
    if (sliding_zm.valid()) sliding_zm.wait();
    throw;
  }
  state_.window_lane = std::move(window_lane);
  state_.sliding_lane = std::move(sliding_lane);

  out.fresh = state_.window_lane.freshness == FitFreshness::kFresh;
  if (out.fresh) {
    state_.consecutive_stale = 0;
  } else {
    ++state_.stale_windows;
    ++state_.consecutive_stale;
  }
  out.window = state_.window_lane;
  out.sliding = state_.sliding_lane;
  return out;
}

StreamingState WindowedStreamingEstimator::state() const {
  StreamingState out = state_;
  out.horizon.assign(horizon_.begin(), horizon_.end());
  return out;
}

void WindowedStreamingEstimator::restore(StreamingState state) {
  horizon_.assign(state.horizon.begin(), state.horizon.end());
  while (horizon_.size() > opts_.sliding_horizon) horizon_.pop_front();
  state.horizon.clear();
  // consecutive_stale rides along inside the state: an earlier revision
  // zeroed it here, which made a --restore'd daemon's staleness gauge
  // diverge from an uninterrupted run.
  state_ = std::move(state);
}

}  // namespace palu::core
