// Section IV-B — parameter-recovery study for the PALU estimators.
//
// First compares the staged moment pipeline (fit_palu) with the served
// profile-likelihood fit (robust_fit_palu) on iid draws from the
// simplified law, where the truth is known exactly: RMSE as a percent of
// the truth for each constant, and milliseconds per fit.  Then runs
// fit_palu on generated networks across replicates and reports
// per-parameter bias and spread against the paper-form constants.  Then
// times both estimators.
#include <benchmark/benchmark.h>

#include <chrono>
#include <cmath>
#include <cstdio>
#include <mutex>
#include <vector>

#include "palu/palu.hpp"

namespace {

using namespace palu;

struct Stats {
  double mean = 0.0;
  double sd = 0.0;
};

Stats summarize(const std::vector<double>& xs) {
  Stats s;
  for (const double x : xs) s.mean += x;
  s.mean /= static_cast<double>(xs.size());
  for (const double x : xs) s.sd += (x - s.mean) * (x - s.mean);
  s.sd = std::sqrt(s.sd / static_cast<double>(xs.size() - 1));
  return s;
}

void recovery_study(const core::PaluParams& params, NodeId n,
                    int replicates) {
  const auto k = core::simplified_constants(params);
  std::vector<double> alphas, cs, mus, us, ls;
  ThreadPool pool;
  std::mutex mu_lock;
  parallel_for(pool, 0, static_cast<std::size_t>(replicates), 1,
               [&](IndexRange range) {
                 for (std::size_t rep = range.begin; rep < range.end;
                      ++rep) {
                   Rng rng(5000 + rep * 7919);
                   const auto h =
                       core::sample_observed_degrees(params, n, rng);
                   const auto fit = core::fit_palu(h);
                   std::lock_guard<std::mutex> g(mu_lock);
                   alphas.push_back(fit.alpha);
                   cs.push_back(fit.c);
                   mus.push_back(fit.mu);
                   us.push_back(fit.u);
                   ls.push_back(fit.l);
                 }
               });
  const auto row = [](const char* name, double truth,
                      const std::vector<double>& xs) {
    const Stats s = summarize(xs);
    std::printf("%-8s %10.5f %10.5f %10.5f %9.1f%%\n", name, truth, s.mean,
                s.sd, truth != 0.0 ? 100.0 * (s.mean - truth) / truth
                                   : 0.0);
  };
  std::printf("%-8s %10s %10s %10s %9s\n", "param", "truth", "est.mean",
              "est.sd", "bias");
  row("alpha", params.alpha, alphas);
  row("c", k.c, cs);
  row("mu", k.mu, mus);
  row("u", k.u, us);
  row("l", k.l, ls);
}

// Samples directly from the simplified law (2)-(4) — no generator, no
// approximation gap — so any residual error belongs to the estimator.
// Prints one row per estimator: RMSE as % of the truth for α, μ, c, u
// and l, and the mean milliseconds per fit.
void compare_on_exact_law(double mu, Count draws, int replicates) {
  const double c = 0.30, l = 0.25, u = 0.04, alpha = 2.2;
  const Degree dmax = 1u << 14;
  std::vector<double> weights;
  weights.reserve(dmax);
  weights.push_back(c + l + u * mu * (std::exp(mu) + 1.0));
  for (Degree d = 2; d <= dmax; ++d) {
    weights.push_back(
        c * std::pow(static_cast<double>(d), -alpha) +
        u * std::exp(static_cast<double>(d) * std::log(mu) -
                     math::log_factorial(d)));
  }
  double total = 0.0;
  for (const double w : weights) total += w;
  const rng::AliasSampler sampler(weights, /*offset=*/1);
  const double truth[5] = {alpha, mu, c / total, u / total, l / total};

  struct Row {
    double sq[5] = {0, 0, 0, 0, 0};
    double ms = 0.0;
    int fits = 0;
  };
  Row rows[2];
  int flagged = 0;
  const auto add = [&](Row& row, const core::PaluFit& f, double ms) {
    const double est[5] = {f.alpha, f.mu, f.c, f.u, f.l};
    for (int k = 0; k < 5; ++k) {
      row.sq[k] += (est[k] - truth[k]) * (est[k] - truth[k]);
    }
    row.ms += ms;
    ++row.fits;
  };
  using Clock = std::chrono::steady_clock;
  const auto ms_since = [](Clock::time_point t0) {
    return std::chrono::duration<double, std::milli>(Clock::now() - t0)
        .count();
  };
  for (int rep = 0; rep < replicates; ++rep) {
    Rng rng(9000 + static_cast<std::uint64_t>(rep) * 6151);
    stats::DegreeHistogram h;
    for (Count i = 0; i < draws; ++i) h.add(sampler(rng));
    auto t0 = Clock::now();
    try {
      const core::PaluFit moments = core::fit_palu(h);
      add(rows[0], moments, ms_since(t0));
    } catch (const Error&) {
      // A failed moment fit leaves the cell one replicate short.
    }
    t0 = Clock::now();
    const auto served = core::robust_fit_palu(h);
    const double ms = ms_since(t0);
    if (served.stage == fit::RobustStage::kMle) {
      add(rows[1], served.fit, ms);
      if (!served.fit.mu_identifiable) ++flagged;
    }
  }
  const char* names[2] = {"moments", "profile MLE"};
  for (int e = 0; e < 2; ++e) {
    const Row& row = rows[e];
    std::printf("%5.1f %9.0e  %-12s", mu, static_cast<double>(draws),
                names[e]);
    for (int k = 0; k < 5; ++k) {
      std::printf(" %8.1f",
                  row.fits > 0 ? 100.0 *
                                     std::sqrt(row.sq[k] / row.fits) /
                                     truth[k]
                               : 0.0);
    }
    std::printf(" %8.2f  %d/%d fits", row.fits > 0 ? row.ms / row.fits : 0.0,
                row.fits, replicates);
    if (e == 1) std::printf(", %d with mu unidentified", flagged);
    std::printf("\n");
  }
}

void print_recovery() {
  std::printf("=== Section IV-B estimator recovery ===\n\n");
  std::printf("--- moments vs profile MLE: iid draws from the simplified "
              "law (c .30, l .25, u .04, alpha 2.2;\n    20 replicates), "
              "RMSE as %% of the truth ---\n");
  std::printf("%5s %9s  %-12s %8s %8s %8s %8s %8s %8s\n", "mu", "draws",
              "estimator", "alpha", "mu", "c", "u", "l", "ms/fit");
  for (const double mu : {0.5, 2.5, 6.0}) {
    for (const Count draws : {Count{20'000}, Count{200'000},
                              Count{1'000'000}}) {
      compare_on_exact_law(mu, draws, 20);
    }
  }
  std::printf("\nBelow, \"truth\" is the PAPER-FORM constant "
              "(Cp^a/zeta(a)V etc.); the c and l gaps there\nmix estimator "
              "error with the paper's own approximations (integral-vs-sum "
              "V, Bin(D,p)=Dp,\nleaf anchors inflating core degrees) — "
              "bench_theory_vs_sim quantifies those separately.\n");
  std::printf("\n(generative recovery: 24 replicates, 200k nodes each)\n");
  std::printf("--- moderate stars: lambda=4, p=0.8, alpha=2.2 ---\n");
  recovery_study(core::PaluParams::solve_hubs(4.0, 0.35, 0.25, 2.2, 0.8),
                 200000, 24);
  std::printf("\n--- star-dominated: lambda=8, p=0.9, alpha=2.5 ---\n");
  recovery_study(core::PaluParams::solve_hubs(8.0, 0.25, 0.15, 2.5, 0.9),
                 200000, 24);
  std::printf("\n--- thin window: lambda=6, p=0.3, alpha=2.0 ---\n");
  recovery_study(core::PaluParams::solve_hubs(6.0, 0.4, 0.2, 2.0, 0.3),
                 200000, 24);
  std::printf("\n");
}

void BM_FitPaluPipeline(benchmark::State& state) {
  const auto params =
      core::PaluParams::solve_hubs(4.0, 0.35, 0.25, 2.2, 0.8);
  Rng rng(1);
  const auto h = core::sample_observed_degrees(
      params, static_cast<NodeId>(state.range(0)), rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::fit_palu(h));
  }
}
BENCHMARK(BM_FitPaluPipeline)->Arg(50000)->Arg(200000);

void BM_RobustFitPalu(benchmark::State& state) {
  const auto params =
      core::PaluParams::solve_hubs(4.0, 0.35, 0.25, 2.2, 0.8);
  Rng rng(1);
  const auto h = core::sample_observed_degrees(
      params, static_cast<NodeId>(state.range(0)), rng);
  fit::RobustFitOptions opts;
  obs::Registry registry;  // keep the default registry out of the loop
  opts.metrics = &registry;
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::robust_fit_palu(h, {}, opts));
  }
}
BENCHMARK(BM_RobustFitPalu)->Arg(50000)->Arg(200000);

void BM_SampleObservedDegrees(benchmark::State& state) {
  const auto params =
      core::PaluParams::solve_hubs(4.0, 0.35, 0.25, 2.2, 0.8);
  Rng rng(2);
  const auto n = static_cast<NodeId>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::sample_observed_degrees(params, n, rng));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_SampleObservedDegrees)->Arg(50000)->Arg(200000);

}  // namespace

int main(int argc, char** argv) {
  print_recovery();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
