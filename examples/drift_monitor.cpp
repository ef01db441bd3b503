// Drift monitoring: the operational loop the paper's framing implies.
//
// A stream of traffic windows is watched by (a) the streaming PALU
// estimator's tumbling lane, whose per-window μ tracks the star density
// (bot activity), and (b) a two-sample KS test between each window and a
// calm baseline.
// Midway through, the underlying network shifts from a calm profile to a
// bot-heavy one; both monitors must flag it.
//
//   build/examples/drift_monitor [windows_per_phase]
#include <cstdio>
#include <cstdlib>

#include "palu/palu.hpp"

int main(int argc, char** argv) {
  using namespace palu;
  const int per_phase = argc > 1 ? std::atoi(argv[1]) : 5;

  const auto calm =
      core::PaluParams::solve_hubs(1.0, 0.45, 0.2, 2.2, 1.0);
  const auto botty =
      core::PaluParams::solve_hubs(8.0, 0.2, 0.2, 2.2, 1.0);

  Rng rng(2027);
  core::WindowedStreamingEstimator monitor;
  core::WindowAnomalyDetector detector;

  std::printf("%6s %8s %10s %10s %12s %10s %8s\n", "window", "phase",
              "alpha_hat", "mu_hat", "ks_vs_base", "ks_p", "D(1)");
  for (int w = 0; w < 2 * per_phase; ++w) {
    const bool bot_phase = w >= per_phase;
    const auto& params = bot_phase ? botty : calm;
    Rng wrng = rng.fork(w + 1);
    const auto h = core::sample_observed_degrees(params, 80000, wrng);
    // A window the estimator cannot fit keeps the previous parameters,
    // tagged stale; a window the detector cannot digest is logged and
    // dropped.  Either way the monitor keeps running.
    monitor.refit_window(h);
    const core::StreamingFitSnapshot& lane = monitor.window_fit();
    if (lane.freshness == core::FitFreshness::kStale) {
      std::printf("%6d  estimator kept stale parameters: %s\n", w,
                  lane.error.c_str());
    }

    double ks = 0.0, p = 1.0, d1 = 0.0;
    bool flagged = false;
    if (detector.has_baseline()) {
      try {
        const auto score = detector.score(h);
        ks = score.ks_statistic;
        p = score.ks_p_value;
        d1 = score.d1_window;
        flagged = score.flagged;
      } catch (const Error& e) {
        std::printf("%6d  detector skipped window: %s\n", w, e.what());
      }
    }
    if (w < per_phase) detector.add_baseline(h);

    const bool fitted = lane.has_fit();
    std::printf("%6d %8s %10.3f %10.3f %12.4f %10.2e %8.4f%s\n", w,
                bot_phase ? "BOT" : "calm", fitted ? lane.fit.alpha : 0.0,
                fitted ? lane.fit.mu : 0.0, ks, p, d1,
                flagged ? "  <-- drift flagged" : "");
  }

  std::printf("\nisolated-node extrapolation at the end of the run:\n");
  try {
    if (!monitor.window_fit().has_fit()) {
      throw DataError("no window has been fitted");
    }
    const auto est =
        core::estimate_isolated(monitor.window_fit().fit, /*window=*/1.0);
    std::printf("  implied lambda=%.2f; invisible hubs per visible node="
                "%.5f\n",
                est.implied_lambda, est.invisible_hubs_per_visible);
  } catch (const Error& e) {
    std::printf("  (not identifiable: %s)\n", e.what());
  }
  return 0;
}
