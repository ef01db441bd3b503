#include "palu/core/estimate.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>
#include <vector>

#include "palu/common/error.hpp"
#include "palu/fit/levmar.hpp"
#include "palu/fit/linreg.hpp"
#include "palu/fit/powerlaw_mle.hpp"
#include "palu/math/gamma.hpp"
#include "palu/math/zeta.hpp"
#include "palu/math/lambda_ratio.hpp"
#include "palu/math/stable.hpp"
#include "palu/obs/metrics.hpp"
#include "palu/obs/names.hpp"

namespace palu::core {
namespace {

// Poisson-shaped bump μ^d/d! evaluated in log space.
double poisson_bump(double mu, Degree d) {
  if (mu <= 0.0) return 0.0;
  return std::exp(static_cast<double>(d) * std::log(mu) -
                  math::log_factorial(d));
}

}  // namespace

double PaluFit::lambda_cap() const { return std::numbers::e * mu; }

double PaluFit::predicted_star_degree_one() const {
  // u·μ·(e^μ + 1): visible star leaves (u·μ·e^μ) plus one-leaf hubs
  // (u·μ).  Folding e^μ into the excess-mass identity keeps this stable:
  // u·e^μ = excess_mass / (1 − (1+μ)e^{−μ}).
  if (mu <= 0.0) return 0.0;
  return u * mu * (std::exp(mu) + 1.0);
}

double PaluFit::predicted_share(Degree d) const {
  PALU_CHECK(d >= 1, "PaluFit::predicted_share: requires d >= 1");
  if (d == 1) {
    return c + l + predicted_star_degree_one();
  }
  return c * std::pow(static_cast<double>(d), -alpha) +
         u * poisson_bump(mu, d);
}

namespace {
PaluFit fit_palu_single_pass(const stats::EmpiricalDistribution& dist,
                             const PaluFitOptions& opts);
}  // namespace

PaluFit fit_palu(const stats::EmpiricalDistribution& dist,
                 const PaluFitOptions& opts) {
  PaluFitOptions pass_opts = opts;
  PaluFit fit = fit_palu_single_pass(dist, pass_opts);
  if (!opts.adaptive_tail) return fit;
  // If the bump reaches past the tail start, (c, α) were fit on
  // contaminated data; push the tail start beyond the bump and refit
  // (at most twice — the bump estimate stabilizes quickly).
  for (int pass = 0; pass < 2; ++pass) {
    if (!fit.mu_identifiable) break;
    const auto needed = static_cast<Degree>(
        std::ceil(fit.mu + 4.0 * std::sqrt(fit.mu) + 1.0));
    if (needed <= pass_opts.tail_min) break;
    pass_opts.tail_min = std::min<Degree>(needed, 512);
    try {
      fit = fit_palu_single_pass(dist, pass_opts);
    } catch (const DataError&) {
      break;  // pushed tail has too few points: keep the previous pass
    }
  }
  return fit;
}

namespace {
PaluFit fit_palu_single_pass(const stats::EmpiricalDistribution& dist,
                             const PaluFitOptions& opts) {
  PALU_CHECK(opts.tail_min >= 2, "fit_palu: tail_min must be >= 2");
  const auto& support = dist.support();
  const auto& pmf = dist.pmf();

  // --- (a) fit (c, α) to the tail d >= tail_min.
  std::vector<double> x, y, w;
  double tail_mass = 0.0;
  stats::DegreeHistogram tail_hist;
  for (std::size_t i = 0; i < support.size(); ++i) {
    if (support[i] < opts.tail_min) continue;
    const double count =
        pmf[i] * static_cast<double>(dist.sample_size());
    x.push_back(std::log(static_cast<double>(support[i])));
    y.push_back(std::log(pmf[i]));
    w.push_back(opts.weight_by_count ? count : 1.0);
    tail_mass += pmf[i];
    tail_hist.add(support[i],
                  std::max<Count>(1, static_cast<Count>(
                                         std::llround(count))));
  }
  if (x.size() < 3) {
    throw DataError(
        "fit_palu: fewer than 3 support points at/above tail_min");
  }
  // Regression runs either way: it supplies the r² diagnostic, and the
  // paper-fidelity mode uses its coefficients directly.
  const fit::LinearFit tail = fit::weighted_linear_regression(x, y, w);

  PaluFit out;
  if (opts.tail_method == TailMethod::kRegression) {
    out.alpha = -tail.slope;
    out.c = std::exp(tail.intercept);
  } else {
    const fit::PowerLawFit mle =
        fit::fit_power_law_fixed_xmin(tail_hist, opts.tail_min);
    out.alpha = mle.alpha;
    // c·ζ(α, tail_min) must equal the empirical tail mass.
    out.c = tail_mass /
            math::hurwitz_zeta(out.alpha,
                               static_cast<double>(opts.tail_min));
  }
  out.tail_r_squared = tail.r_squared;
  out.tail_points = x.size();

  // --- (b) excess moments over 2 <= d <= excess_max.
  const Degree excess_cap =
      opts.excess_max > 0 ? opts.excess_max : ~Degree{0};
  double mass = 0.0;       // Σ e(d)
  double first_moment = 0.0;  // Σ d·e(d)
  for (std::size_t i = 0; i < support.size(); ++i) {
    const Degree d = support[i];
    if (d < 2 || d > excess_cap) continue;
    double excess =
        pmf[i] - out.c * std::pow(static_cast<double>(d), -out.alpha);
    if (excess < 0.0) {
      if (opts.clip_negative_excess) continue;
    }
    mass += excess;
    first_moment += static_cast<double>(d) * excess;
  }
  out.excess_mass = mass;
  out.mu_identifiable = mass >= opts.min_excess_mass && first_moment > 0.0;
  if (out.mu_identifiable) {
    out.moment_ratio = first_moment / mass;
    if (out.moment_ratio > 2.0) {
      out.mu = math::invert_lambda_moment_ratio(out.moment_ratio);
      if (out.mu > opts.mu_cap) {
        out.mu = 0.0;
        out.mu_identifiable = false;
      }
    } else {
      // g(μ) >= 2 always; R <= 2 means the bump is consistent with μ = 0.
      out.mu = 0.0;
      out.mu_identifiable = false;
    }
  }

  // --- (c) amplitudes: u from the excess mass, l from the degree-1 mass.
  if (out.mu > 0.0) {
    out.u = mass / math::expm1_minus_x(out.mu);
  } else {
    out.u = 0.0;
  }
  const double p1 = dist.mass_at_one();
  out.l = std::max(0.0, p1 - out.c - out.predicted_star_degree_one());
  return out;
}
}  // namespace

PaluFit fit_palu(const stats::DegreeHistogram& h,
                 const PaluFitOptions& opts) {
  return fit_palu(stats::EmpiricalDistribution::from_histogram(h), opts);
}

PaluFitCi bootstrap_palu_fit(const stats::DegreeHistogram& h, Rng& rng,
                             ThreadPool& pool,
                             const fit::BootstrapOptions& boot_opts,
                             const PaluFitOptions& fit_opts) {
  const auto statistic = [&fit_opts](const stats::DegreeHistogram& sample) {
    const PaluFit f = fit_palu(sample, fit_opts);
    return std::vector<double>{f.alpha, f.c, f.mu, f.u, f.l};
  };
  const auto results =
      fit::bootstrap_ci_multi(h, statistic, rng, pool, boot_opts);
  PaluFitCi out;
  out.alpha = results[0];
  out.c = results[1];
  out.mu = results[2];
  out.u = results[3];
  out.l = results[4];
  return out;
}

namespace {

// The joint-polish least-squares problem shared by refine_palu_fit and
// robust_fit_palu.  Parameters: log α, log c, log μ, log u, log(l + ε) —
// all constants are positive (l can be 0: the ε floor keeps the log
// finite).
struct RefineProblem {
  std::vector<Degree> ds;
  std::vector<double> ps, ws;
  std::vector<double> x0;
  PaluFit base;
  bool viable = false;  // enough support points to polish

  PaluFit unpack(const std::vector<double>& x) const {
    PaluFit f = base;
    f.alpha = std::exp(x[0]);
    f.c = std::exp(x[1]);
    f.mu = std::exp(x[2]);
    f.u = std::exp(x[3]);
    f.l = std::exp(x[4]);
    return f;
  }

  std::vector<double> residuals(const std::vector<double>& x) const {
    const PaluFit f = unpack(x);
    if (f.alpha > 30.0 || f.mu > 40.0) {
      throw InvalidArgument("refine_palu_fit: off-domain step");
    }
    std::vector<double> r(ds.size());
    for (std::size_t i = 0; i < ds.size(); ++i) {
      r[i] = ws[i] * (f.predicted_share(ds[i]) - ps[i]);
    }
    return r;
  }

  double objective(const PaluFit& f) const {
    double acc = 0.0;
    for (std::size_t i = 0; i < ds.size(); ++i) {
      const double r = ws[i] * (f.predicted_share(ds[i]) - ps[i]);
      acc += r * r;
    }
    return acc;
  }
};

RefineProblem make_refine_problem(const stats::EmpiricalDistribution& dist,
                                  const PaluFit& initial,
                                  Degree refine_max) {
  RefineProblem p;
  p.base = initial;
  const auto& support = dist.support();
  const auto& pmf = dist.pmf();
  for (std::size_t i = 0; i < support.size(); ++i) {
    if (support[i] > refine_max) break;
    p.ds.push_back(support[i]);
    p.ps.push_back(pmf[i]);
    p.ws.push_back(std::sqrt(pmf[i] *
                             static_cast<double>(dist.sample_size())));
  }
  p.viable = p.ds.size() >= 6;
  constexpr double kFloor = 1e-12;
  p.x0 = {std::log(std::max(initial.alpha, 1.05)),
          std::log(std::max(initial.c, kFloor)),
          std::log(std::max(initial.mu, 1e-3)),
          std::log(std::max(initial.u, kFloor)),
          std::log(std::max(initial.l, kFloor))};
  return p;
}

}  // namespace

PaluFit refine_palu_fit(const stats::EmpiricalDistribution& dist,
                        const PaluFit& initial, Degree refine_max) {
  PALU_CHECK(refine_max >= 8, "refine_palu_fit: refine_max too small");
  const RefineProblem problem =
      make_refine_problem(dist, initial, refine_max);
  if (!problem.viable) return initial;  // not enough points to polish

  const auto residuals = [&problem](const std::vector<double>& x) {
    return problem.residuals(x);
  };
  fit::LevMarOptions opts;
  opts.max_iterations = 120;
  const auto solution = fit::levenberg_marquardt(residuals, problem.x0,
                                                 opts);
  // Accept only if the polish actually reduced the residual.
  if (solution.chi_squared >= problem.objective(initial)) return initial;
  PaluFit refined = problem.unpack(solution.x);
  refined.mu_identifiable = initial.mu_identifiable;
  return refined;
}

namespace {

// Shared driver behind robust_fit_palu and robust_fit_palu_warm.  `warm`,
// when non-null, (a) seeds the optimizer ladder's x0 with the previous
// window's parameters and (b) stands in as the base fit when the staged
// pipeline fails on every relaxed tail start.
RobustPaluFit robust_fit_palu_impl(const stats::EmpiricalDistribution& dist,
                                   const PaluFitOptions& fit_opts,
                                   const fit::RobustFitOptions& robust_opts,
                                   Degree refine_max, const PaluFit* warm) {
  RobustPaluFit out;
  obs::Registry& registry = robust_opts.metrics != nullptr
                                ? *robust_opts.metrics
                                : obs::default_registry();
  const auto record_result = [&registry](fit::RobustStage stage) {
    registry
        .counter(obs::names::kFitResults,
                 {{"stage", std::string(fit::to_string(stage))}})
        .inc();
  };

  // Base fit from the staged moment pipeline, retrying with relaxed tail
  // starts when the tail is too thin to regress (degenerate windows).
  PaluFit base;
  bool have_base = false;
  std::vector<Degree> tails = {fit_opts.tail_min};
  for (const Degree relaxed : {Degree{6}, Degree{4}, Degree{2}}) {
    if (relaxed < fit_opts.tail_min) tails.push_back(relaxed);
  }
  bool first_base_attempt = true;
  obs::Counter& base_retries =
      registry.counter(obs::names::kFitBaseRetries);
  for (const Degree tail : tails) {
    PaluFitOptions attempt = fit_opts;
    attempt.tail_min = tail;
    if (!first_base_attempt) {
      base_retries.inc();
    }
    first_base_attempt = false;
    try {
      base = fit_palu(dist, attempt);
      have_base = true;
      break;
    } catch (const Error& e) {
      out.error = e.what();
    }
  }
  if (!have_base && warm != nullptr) {
    // Degraded base: the previous window's parameters.  Lower provenance
    // than a same-window moment fit, but they keep a pathological window
    // from producing nothing at all.
    base = *warm;
    have_base = true;
    out.warm_base = true;
  }
  if (!have_base) {
    record_result(fit::RobustStage::kFailed);
    return out;  // stage == kFailed, error set
  }
  out.error.clear();

  RefineProblem problem =
      make_refine_problem(dist, base, std::max<Degree>(refine_max, 8));
  if (warm != nullptr) {
    // Warm start: the ladder descends from the previous window's
    // parameters (consecutive windows are near-identical problems, so LM
    // typically converges in a handful of iterations).  A warm point that
    // fits this window over ten times worse than the window's own moment
    // fit says they are not: a regime shift (mu 1 -> 8 gave a ratio of
    // ~300) or a previous fit that ran off to a degenerate point (alpha
    // -> 0, or the alpha = 30 bound).  A ladder started there settles in
    // that basin and stays in it window after window, so the window
    // starts cold.  Between healthy fits of a stationary stream of
    // 20000-packet windows the ratio stayed below 2.2.
    constexpr double kFloor = 1e-12;
    constexpr double kChangedProblem = 10.0;
    const std::vector<double> warm_x0 = {
        std::log(std::max(warm->alpha, 1.05)),
        std::log(std::max(warm->c, kFloor)),
        std::log(std::max(warm->mu, 1e-3)),
        std::log(std::max(warm->u, kFloor)),
        std::log(std::max(warm->l, kFloor))};
    if (problem.objective(problem.unpack(warm_x0)) <=
        kChangedProblem * problem.objective(base)) {
      problem.x0 = warm_x0;
    }
  }
  if (!problem.viable) {
    // Too little support to polish: the staged pipeline result stands.
    out.fit = base;
    out.stage = fit::RobustStage::kMoments;
    record_result(out.stage);
    return out;
  }

  const auto residuals = [&problem](const std::vector<double>& x) {
    return problem.residuals(x);
  };
  const auto fallback = [&problem]() { return problem.x0; };
  const fit::RobustFitResult rr =
      fit::robust_least_squares(residuals, problem.x0, fallback,
                                robust_opts);
  out.diagnostics = rr.diagnostics;
  // The optimizer result is only an upgrade if it actually beats the
  // closed-form base fit; otherwise the moment estimators stand.
  if (!rr.ok() || rr.stage == fit::RobustStage::kMoments ||
      rr.objective >= problem.objective(base)) {
    out.fit = base;
    out.stage = fit::RobustStage::kMoments;
    record_result(out.stage);
    return out;
  }
  out.fit = problem.unpack(rr.x);
  out.fit.mu_identifiable = base.mu_identifiable;
  out.stage = rr.stage;
  record_result(out.stage);
  return out;
}

// Histogram front door shared by the cold and warm drivers: converts, and
// treats a degenerate histogram as bad data (kFailed), not as a throw.
RobustPaluFit robust_fit_palu_from_histogram(
    const stats::DegreeHistogram& h, const PaluFitOptions& fit_opts,
    const fit::RobustFitOptions& robust_opts, Degree refine_max,
    const PaluFit* warm) {
  try {
    return robust_fit_palu_impl(
        stats::EmpiricalDistribution::from_histogram(h), fit_opts,
        robust_opts, refine_max, warm);
  } catch (const Error& e) {
    // The inner driver never ran, so this failure is recorded here.
    obs::Registry& registry = robust_opts.metrics != nullptr
                                  ? *robust_opts.metrics
                                  : obs::default_registry();
    registry
        .counter(obs::names::kFitResults,
                 {{"stage",
                   std::string(fit::to_string(fit::RobustStage::kFailed))}})
        .inc();
    RobustPaluFit out;
    out.error = e.what();
    return out;
  }
}

}  // namespace

RobustPaluFit robust_fit_palu(const stats::EmpiricalDistribution& dist,
                              const PaluFitOptions& fit_opts,
                              const fit::RobustFitOptions& robust_opts,
                              Degree refine_max) {
  return robust_fit_palu_impl(dist, fit_opts, robust_opts, refine_max,
                              nullptr);
}

RobustPaluFit robust_fit_palu(const stats::DegreeHistogram& h,
                              const PaluFitOptions& fit_opts,
                              const fit::RobustFitOptions& robust_opts,
                              Degree refine_max) {
  return robust_fit_palu_from_histogram(h, fit_opts, robust_opts,
                                        refine_max, nullptr);
}

RobustPaluFit robust_fit_palu_warm(const stats::EmpiricalDistribution& dist,
                                   const PaluFit& warm,
                                   const PaluFitOptions& fit_opts,
                                   const fit::RobustFitOptions& robust_opts,
                                   Degree refine_max) {
  return robust_fit_palu_impl(dist, fit_opts, robust_opts, refine_max,
                              &warm);
}

RobustPaluFit robust_fit_palu_warm(const stats::DegreeHistogram& h,
                                   const PaluFit& warm,
                                   const PaluFitOptions& fit_opts,
                                   const fit::RobustFitOptions& robust_opts,
                                   Degree refine_max) {
  return robust_fit_palu_from_histogram(h, fit_opts, robust_opts,
                                        refine_max, &warm);
}

double estimate_mu_pointwise(const stats::EmpiricalDistribution& dist,
                             double c, double alpha,
                             const PaluFitOptions& opts) {
  const auto& support = dist.support();
  const auto& pmf = dist.pmf();
  const Degree excess_cap =
      opts.excess_max > 0 ? opts.excess_max : ~Degree{0};
  // Point-wise estimates from consecutive excess ratios:
  //   e(d+1)/e(d) = μ/(d+1)  =>  μ̂_d = (d+1)·e(d+1)/e(d).
  std::vector<std::pair<double, double>> estimates;  // (μ̂, weight)
  for (std::size_t i = 0; i + 1 < support.size(); ++i) {
    const Degree d = support[i];
    if (d < 2 || support[i + 1] != d + 1 || d + 1 > excess_cap) continue;
    const double e0 =
        pmf[i] - c * std::pow(static_cast<double>(d), -alpha);
    const double e1 =
        pmf[i + 1] - c * std::pow(static_cast<double>(d + 1), -alpha);
    if (e0 <= 0.0 || e1 <= 0.0) continue;
    const double mu_hat = static_cast<double>(d + 1) * e1 / e0;
    estimates.emplace_back(
        mu_hat, pmf[i] * static_cast<double>(dist.sample_size()));
  }
  if (estimates.empty()) return 0.0;
  std::sort(estimates.begin(), estimates.end());
  double total = 0.0;
  for (const auto& [m, wt] : estimates) total += wt;
  double acc = 0.0;
  for (const auto& [m, wt] : estimates) {
    acc += wt;
    if (acc >= 0.5 * total) return m;
  }
  return estimates.back().first;
}

}  // namespace palu::core
