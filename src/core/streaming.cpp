#include "palu/core/streaming.hpp"

#include <cmath>
#include <future>
#include <utility>

#include "palu/common/error.hpp"
#include "palu/parallel/thread_pool.hpp"
#include "palu/stats/log_binning.hpp"

namespace palu::core {

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

StreamingFitSnapshot WindowedStreamingEstimator::fit_lane(
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
  if (opts_.fit_zm) {
    // The ZM companion rides along best-effort: a window whose pooled
    // distribution cannot be fitted keeps the previous ZM parameters.
    try {
      fit::ZmFitOptions zopts;
      if (warm && previous.zm_valid && std::isfinite(previous.zm.alpha) &&
          previous.zm.alpha > 0.0 && previous.zm.delta > -1.0) {
        zopts.alpha_init = previous.zm.alpha;
        zopts.delta_init = previous.zm.delta;
      }
      out.zm = fit::fit_zipf_mandelbrot(
          stats::LogBinned::from_histogram(h), h.max_degree(), zopts);
      out.zm_valid = true;
    } catch (const Error&) {
      out.zm = previous.zm;
      out.zm_valid = previous.zm_valid;
    }
  }
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

  // The lanes share no state (each warm-starts from its own previous
  // fit), so the sliding lane is fitted on the pool while this thread
  // fits the tumbling lane.  Neither lane is assigned until both fits
  // are done, and the task is joined on every path: it reads horizon_
  // and the previous sliding lane.  One window in the horizon: the
  // sliding lane is the tumbling lane, and no task is submitted.
  std::future<StreamingFitSnapshot> sliding;
  if (horizon_.size() > 1) {
    sliding = ThreadPool::global().submit([this] {
      stats::DegreeHistogram merged;
      for (const auto& h : horizon_) merged.merge(h);
      return fit_lane(merged, state_.sliding_lane);
    });
  }
  StreamingFitSnapshot window_lane;
  try {
    window_lane = fit_lane(window, state_.window_lane);
  } catch (...) {
    if (sliding.valid()) sliding.wait();
    throw;
  }
  StreamingFitSnapshot sliding_lane =
      sliding.valid() ? sliding.get() : window_lane;
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
