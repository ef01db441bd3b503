#include "palu/core/estimate.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numbers>
#include <optional>
#include <vector>

#include "palu/common/error.hpp"
#include "palu/common/failpoint.hpp"
#include "palu/fit/brent.hpp"
#include "palu/fit/linreg.hpp"
#include "palu/fit/nelder_mead.hpp"
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

// Step (b)'s upper degree bound (see the header comment).
constexpr Degree kExcessMax = 64;
// Below this excess mass the bump is treated as absent (μ, u = 0).
constexpr double kMinExcessMass = 1e-5;

// One pass of (a)–(c) from a fixed tail start.
PaluFit fit_palu_single_pass(const stats::EmpiricalDistribution& dist,
                             Degree tail_min) {
  PALU_CHECK(tail_min >= 2, "fit_palu: tail_min must be >= 2");
  const auto& support = dist.support();
  const auto& pmf = dist.pmf();

  // --- (a) fit (c, α) to the tail d >= tail_min.
  std::vector<double> x, y, w;
  double tail_mass = 0.0;
  stats::DegreeHistogram tail_hist;
  for (std::size_t i = 0; i < support.size(); ++i) {
    if (support[i] < tail_min) continue;
    const double count =
        pmf[i] * static_cast<double>(dist.sample_size());
    x.push_back(std::log(static_cast<double>(support[i])));
    y.push_back(std::log(pmf[i]));
    w.push_back(count);
    tail_mass += pmf[i];
    tail_hist.add(support[i],
                  std::max<Count>(1, static_cast<Count>(
                                         std::llround(count))));
  }
  if (x.size() < 3) {
    throw DataError(
        "fit_palu: fewer than 3 support points at/above tail_min");
  }
  // The paper's regression supplies only the r² diagnostic.
  const fit::LinearFit tail = fit::weighted_linear_regression(x, y, w);

  PaluFit out;
  const fit::PowerLawFit mle =
      fit::fit_power_law_fixed_xmin(tail_hist, tail_min);
  out.alpha = mle.alpha;
  // c·ζ(α, tail_min) must equal the empirical tail mass.
  out.c = tail_mass /
          math::hurwitz_zeta(out.alpha, static_cast<double>(tail_min));
  out.tail_r_squared = tail.r_squared;
  out.tail_points = x.size();

  // --- (b) excess moments over 2 <= d <= kExcessMax.
  double mass = 0.0;       // Σ e(d)
  double first_moment = 0.0;  // Σ d·e(d)
  for (std::size_t i = 0; i < support.size(); ++i) {
    const Degree d = support[i];
    if (d < 2 || d > kExcessMax) continue;
    const double excess =
        pmf[i] - out.c * std::pow(static_cast<double>(d), -out.alpha);
    if (excess < 0.0) continue;
    mass += excess;
    first_moment += static_cast<double>(d) * excess;
  }
  out.excess_mass = mass;
  out.mu_identifiable = mass >= kMinExcessMass && first_moment > 0.0;
  if (out.mu_identifiable) {
    out.moment_ratio = first_moment / mass;
    if (out.moment_ratio > 2.0) {
      out.mu = math::invert_lambda_moment_ratio(out.moment_ratio);
      if (out.mu > kMuCap) {
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

// The staged pipeline with its adaptive tail start.
PaluFit fit_moments(const stats::EmpiricalDistribution& dist,
                    Degree tail_min) {
  PaluFit fit = fit_palu_single_pass(dist, tail_min);
  // If the bump reaches past the tail start, (c, α) were fit on
  // contaminated data; push the tail start beyond the bump and refit
  // (at most twice — the bump estimate stabilizes quickly).
  for (int pass = 0; pass < 2; ++pass) {
    if (!fit.mu_identifiable) break;
    const auto needed = static_cast<Degree>(
        std::ceil(fit.mu + 4.0 * std::sqrt(fit.mu) + 1.0));
    if (needed <= tail_min) break;
    tail_min = std::min<Degree>(needed, 512);
    try {
      fit = fit_palu_single_pass(dist, tail_min);
    } catch (const DataError&) {
      break;  // pushed tail has too few points: keep the previous pass
    }
  }
  return fit;
}

}  // namespace

PaluFit fit_palu(const stats::DegreeHistogram& h,
                 const PaluFitOptions& opts) {
  return fit_moments(stats::EmpiricalDistribution::from_histogram(h),
                     opts.tail_min);
}

namespace {

// --- profile-likelihood fit (THEORY.md, "Profile likelihood").
//
// For fixed (α, μ) the d = 1 cell is absorbed by l, and d >= 2 is the
// mixture w·z(d) + (1 − w)·p(d) of the zeta core z(d) = d^{−α}/(ζ(α)−1)
// and the zero-truncated star bump p(d) = (μ^d/d!)/(e^μ−1−μ).  Its
// log-likelihood is concave in w, so the weight is a 1-D root; (α, μ)
// come from a coarse grid and a short Nelder–Mead polish.

constexpr double kNegInf = -std::numeric_limits<double>::infinity();
constexpr double kAlphaMin = 1.01;  // ζ(α) diverges at 1
constexpr double kAlphaMax = 30.0;
// μ's lower search bound: e^μ − 1 − μ ≈ μ²/2 stays >= 1.25e-3, so u stays
// finite however little of the bump the data pin down.
constexpr double kMuFloor = 0.05;
// The coarse grid: 13 log-spaced α in [1.1, 6] by 15 log-spaced μ in
// [kMuFloor, kMuCap].
constexpr int kGridAlpha = 13;
constexpr int kGridMu = 15;
constexpr double kGridAlphaLo = 1.1;
constexpr double kGridAlphaHi = 6.0;
// Fewest occupied d >= 2 cells (the pooled tail counts as one) the
// profile fit accepts: three free parameters need more than three cells.
constexpr std::size_t kMinCells = 5;
// Relative distance from a μ bound inside which μ̂ counts as on it.
constexpr double kOnBound = 1e-3;
// μ columns of the grid whose best α is refined before the polish.
constexpr std::size_t kRefined = 3;

// One mixture component evaluated on the cells.
struct Component {
  std::vector<double> pmf;  // per cell, conditional on d >= 2
  double one_ratio = 0.0;   // its d = 1 mass per unit of its d >= 2 mass
};

struct WeightFit {
  double log_lik = kNegInf;
  double w = 1.0;  // weight of the zeta core
};

// The d >= 2 cells of one window, reduced once per fit: counts, ln d and
// ln d! for 2 <= d <= refine_max, then one pooled cell for the degrees
// above refine_max.
class ProfileLikelihood {
 public:
  ProfileLikelihood(const stats::EmpiricalDistribution& dist, Degree refine_max)
      : tail_start_(std::max<Degree>(refine_max, 8) + 1) {
    const auto& support = dist.support();
    const auto& pmf = dist.pmf();
    const auto n = static_cast<double>(dist.sample_size());
    double tail = 0.0;
    for (std::size_t i = 0; i < support.size(); ++i) {
      const Degree d = support[i];
      if (d == 1) p1_ = pmf[i];
      if (d < 2) continue;
      p2_ += pmf[i];
      if (d >= tail_start_) {
        tail += pmf[i] * n;
        continue;
      }
      count_.push_back(pmf[i] * n);
      degree_.push_back(static_cast<double>(d));
      log_d_.push_back(std::log(static_cast<double>(d)));
      log_fact_.push_back(math::log_factorial(d));
    }
    if (tail > 0.0) count_.push_back(tail);
    has_tail_ = tail > 0.0;
    for (const double c : count_) n2_ += c;
  }

  std::size_t cells() const noexcept { return count_.size(); }
  double observations() const noexcept { return n2_; }
  double p1() const noexcept { return p1_; }
  double p2() const noexcept { return p2_; }
  int evaluations() const noexcept { return evaluations_; }

  Component zeta(double alpha) const {
    Component out;
    const double norm = math::hurwitz_zeta(alpha, 2.0);  // ζ(α) − 1
    const double log_norm = std::log(norm);
    out.pmf.resize(count_.size());
    for (std::size_t i = 0; i < log_d_.size(); ++i) {
      out.pmf[i] = std::exp(-alpha * log_d_[i] - log_norm);
    }
    if (has_tail_) {
      const double tail_start = static_cast<double>(tail_start_);
      out.pmf.back() = math::hurwitz_zeta(alpha, tail_start) / norm;
    }
    out.one_ratio = 1.0 / norm;
    return out;
  }

  Component star(double mu) const {
    Component out;
    const double norm = math::expm1_minus_x(mu);
    const double log_norm = std::log(norm);
    const double log_mu = std::log(mu);
    out.pmf.resize(count_.size());
    for (std::size_t i = 0; i < log_d_.size(); ++i) {
      const double e = degree_[i] * log_mu - log_fact_[i] - log_norm;
      out.pmf[i] = e < -745.0 ? 0.0 : std::exp(e);  // exp underflows anyway
    }
    if (has_tail_) {
      // Σ_{d >= tail_start} μ^d/d!, summed up from its first term.
      double d = static_cast<double>(tail_start_);
      double term = std::exp(d * log_mu - math::log_factorial(tail_start_) -
                             log_norm);
      double sum = 0.0;
      for (int k = 0; k < 10000 && (d <= mu || term > 1e-17 * sum); ++k) {
        sum += term;
        d += 1.0;
        term *= mu / d;
      }
      out.pmf.back() = sum;
    }
    out.one_ratio = mu * (std::exp(mu) + 1.0) / norm;
    return out;
  }

  // Maximizes the d >= 2 log-likelihood over the core weight w.  l >= 0
  // confines w to an interval: the model's d = 1 mass c + u·μ·(e^μ + 1)
  // may not exceed the observed share P1, i.e.
  //     P≥2·(w·a + (1 − w)·b) <= P1
  // with a, b the components' one_ratio.  The log-likelihood is concave
  // in w, so the constrained maximum is its unconstrained one clamped to
  // that interval: test the score at both ends, then safeguarded Newton.
  WeightFit weight(const Component& zeta, const Component& star) const {
    ++evaluations_;
    WeightFit out;
    const double r = p1_ / p2_;
    double lo = 0.0;
    double hi = 1.0;
    const double a = zeta.one_ratio;
    const double b = star.one_ratio;
    if (a > b) {
      hi = std::min(1.0, (r - b) / (a - b));
    } else if (a < b) {
      lo = std::max(0.0, (b - r) / (b - a));
    } else if (b > r) {
      return out;  // no weight keeps l >= 0
    }
    if (!(lo <= hi)) return out;

    const std::vector<double>& z = zeta.pmf;
    const std::vector<double>& p = star.pmf;
    // Score Σ n·(z − p)/m at w, with m = p + w·(z − p), and its
    // derivative; +inf when some occupied cell has m = 0 (only p = 0 at
    // w = 0, where z > 0 pulls w up).
    const auto score = [&](double w, double& slope) {
      double s = 0.0;
      double c = 0.0;
      for (std::size_t i = 0; i < count_.size(); ++i) {
        const double delta = z[i] - p[i];
        const double m = p[i] + w * delta;
        if (m <= 0.0) return std::numeric_limits<double>::infinity();
        const double q = count_[i] * delta / m;
        s += q;
        c += q * delta / m;
      }
      slope = -c;
      return s;
    };
    double slope = 0.0;
    double w = 0.0;
    if (score(hi, slope) >= 0.0) {
      w = hi;
    } else if (score(lo, slope) <= 0.0) {
      w = lo;
    } else {
      w = 0.5 * (lo + hi);
      for (int it = 0; it < 100; ++it) {
        const double s = score(w, slope);
        if (s > 0.0) {
          lo = w;
        } else {
          hi = w;
        }
        double next = w - s / slope;
        if (!(next > lo && next < hi)) next = 0.5 * (lo + hi);
        const bool done = std::abs(next - w) <= 1e-14;
        w = next;
        if (done || hi - lo <= 1e-15) break;
      }
    }
    double ll = 0.0;
    for (std::size_t i = 0; i < count_.size(); ++i) {
      ll += count_[i] * std::log(p[i] + w * (z[i] - p[i]));
    }
    out.log_lik = std::isnan(ll) ? kNegInf : ll;
    out.w = w;
    return out;
  }

  // The zeta core alone (w = 1): the μ = 0 end of the profile.
  WeightFit zeta_only(double alpha) const {
    ++evaluations_;
    WeightFit out;
    const Component z = zeta(alpha);
    if (p2_ * z.one_ratio > p1_) return out;  // l would be negative
    double ll = 0.0;
    for (std::size_t i = 0; i < count_.size(); ++i) {
      ll += count_[i] * std::log(z.pmf[i]);
    }
    out.log_lik = ll;
    return out;
  }

  WeightFit at(double alpha, double mu) const {
    return weight(zeta(alpha), star(mu));
  }

 private:
  Degree tail_start_;
  std::vector<double> count_;  // regular cells, then the pooled tail
  std::vector<double> degree_;
  std::vector<double> log_d_;
  std::vector<double> log_fact_;
  bool has_tail_ = false;
  double n2_ = 0.0;  // observations at d >= 2
  double p1_ = 0.0;  // observed share at d = 1
  double p2_ = 0.0;  // observed share at d >= 2
  mutable int evaluations_ = 0;
};

double log_spaced(double lo, double hi, int k, int points) {
  return std::exp(std::log(lo) + (std::log(hi) - std::log(lo)) *
                                     static_cast<double>(k) /
                                     static_cast<double>(points - 1));
}

struct ProfileFit {
  PaluFit fit;
  int evaluations = 0;
};

// The profile-likelihood MLE.  `starts` are extra candidate (α, μ) for
// the polish (the moment fit, the warm start); the grid optimum is always
// one.  Throws palu::DataError when the window cannot be fitted.
ProfileFit fit_profile(const stats::EmpiricalDistribution& dist,
                       Degree refine_max,
                       const std::vector<const PaluFit*>& starts) {
  PALU_FAILPOINT("fit.palu_mle");
  const ProfileLikelihood profile(dist, refine_max);
  ProfileFit out;
  if (profile.cells() < kMinCells) {
    throw DataError("profile fit: fewer than 5 occupied cells at d >= 2");
  }
  if (profile.p1() <= 0.0) {
    throw DataError("profile fit: no degree-1 mass for l to absorb");
  }

  // Coarse grid in (ln α, ln μ); each component is evaluated once per
  // row or column.
  std::vector<double> log_alpha(kGridAlpha);
  std::vector<double> log_mu(kGridMu);
  std::vector<Component> cores;
  std::vector<Component> stars;
  for (int i = 0; i < kGridAlpha; ++i) {
    const double alpha = log_spaced(kGridAlphaLo, kGridAlphaHi, i, kGridAlpha);
    log_alpha[static_cast<std::size_t>(i)] = std::log(alpha);
    cores.push_back(profile.zeta(alpha));
  }
  for (int j = 0; j < kGridMu; ++j) {
    const double mu = log_spaced(kMuFloor, kMuCap, j, kGridMu);
    log_mu[static_cast<std::size_t>(j)] = std::log(mu);
    stars.push_back(profile.star(mu));
  }
  std::vector<double> grid(cores.size() * stars.size());
  for (std::size_t i = 0; i < cores.size(); ++i) {
    for (std::size_t j = 0; j < stars.size(); ++j) {
      grid[i * stars.size() + j] = profile.weight(cores[i], stars[j]).log_lik;
    }
  }

  // With thousands of observations the likelihood is much sharper in α
  // than the grid spacing, so grid nodes favour the μ column whose best α
  // happens to sit nearest a node.  Rank the columns by the parabola
  // through each column's best node and its neighbours, then maximize
  // over α (Brent, bracketed by those neighbours) in the top kRefined.
  struct Column {
    double vertex = kNegInf;
    std::size_t node = 0;  // best α node
    std::size_t j = 0;
  };
  std::vector<Column> columns(stars.size());
  for (std::size_t j = 0; j < stars.size(); ++j) {
    Column& col = columns[j];
    col.j = j;
    const auto at = [&](std::size_t i) { return grid[i * stars.size() + j]; };
    for (std::size_t i = 1; i < cores.size(); ++i) {
      if (at(i) > at(col.node)) col.node = i;
    }
    col.vertex = at(col.node);
    if (col.node > 0 && col.node + 1 < cores.size()) {
      const double lo = at(col.node - 1);
      const double hi = at(col.node + 1);
      const double curv = lo - 2.0 * col.vertex + hi;
      if (std::isfinite(lo) && std::isfinite(hi) && curv < 0.0) {
        col.vertex -= (lo - hi) * (lo - hi) / (8.0 * curv);
      }
    }
  }
  const auto by_vertex = [](const Column& x, const Column& y) {
    return x.vertex > y.vertex;
  };
  std::stable_sort(columns.begin(), columns.end(), by_vertex);
  const double spacing = log_alpha[1] - log_alpha[0];
  double best = kNegInf;
  std::vector<double> x0 = {log_alpha[0], log_mu[0]};
  for (std::size_t k = 0; k < std::min(kRefined, columns.size()); ++k) {
    const Column& col = columns[k];
    if (!std::isfinite(col.vertex)) break;
    double lo = std::log(kAlphaMin);
    double hi = std::min(std::log(kAlphaMax), log_alpha.back() + spacing);
    if (col.node > 0) lo = log_alpha[col.node - 1];
    if (col.node + 1 < cores.size()) hi = log_alpha[col.node + 1];
    double col_best = grid[col.node * stars.size() + col.j];
    double col_x = log_alpha[col.node];
    const auto nll = [&](double x) {
      const Component core = profile.zeta(std::exp(x));
      const double ll = profile.weight(core, stars[col.j]).log_lik;
      if (ll > col_best) {
        col_best = ll;
        col_x = x;
      }
      return std::isfinite(ll) ? -ll : std::numeric_limits<double>::max();
    };
    fit::BrentOptions brent;
    brent.tolerance = 1e-3;
    fit::brent_minimize(nll, lo, hi, brent);
    if (col_best > best) {
      best = col_best;
      x0 = {col_x, log_mu[col.j]};
    }
  }
  for (const PaluFit* start : starts) {
    if (!std::isfinite(start->alpha) || !std::isfinite(start->mu)) continue;
    const double alpha = std::clamp(start->alpha, kAlphaMin, kAlphaMax);
    const double mu = std::clamp(start->mu, kMuFloor, kMuCap);
    const double ll = profile.at(alpha, mu).log_lik;
    if (ll > best) {
      best = ll;
      x0 = {std::log(alpha), std::log(mu)};
    }
  }
  if (!std::isfinite(best)) {
    throw DataError("profile fit: no (alpha, mu) keeps l >= 0");
  }

  // Polish in (ln α, ln μ) on the mean negative log-likelihood per
  // observation, so the tolerance does not scale with the window.  The
  // box is checked in log space, where the starts were clamped.
  const double n2 = profile.observations();
  const double box[4] = {std::log(kAlphaMin), std::log(kAlphaMax),
                         std::log(kMuFloor), std::log(kMuCap)};
  const auto objective = [&](const std::vector<double>& x) {
    if (!(x[0] >= box[0] && x[0] <= box[1] && x[1] >= box[2] &&
          x[1] <= box[3])) {
      return std::numeric_limits<double>::infinity();
    }
    return -profile.at(std::exp(x[0]), std::exp(x[1])).log_lik / n2;
  };
  fit::NelderMeadOptions nm;
  nm.initial_step = 0.1;
  nm.f_tolerance = 1e-7;
  nm.x_tolerance = 1e-6;
  nm.max_iterations = 200;
  nm.restarts = 0;
  // Nelder–Mead returns the best point it saw, x0 included.
  const std::vector<double> x = fit::nelder_mead(objective, x0, nm).x;

  PaluFit& f = out.fit;
  f.alpha = std::exp(x[0]);
  f.mu = std::exp(x[1]);
  const Component core = profile.zeta(f.alpha);
  double w = profile.weight(core, profile.star(f.mu)).w;
  if (n2 * (1.0 - w) < 1.0) {
    // The star component explains less than one observation: no bump.
    w = 1.0;
    f.mu = 0.0;
    f.u = 0.0;
    f.mu_identifiable = false;
  } else {
    f.u = profile.p2() * (1.0 - w) / math::expm1_minus_x(f.mu);
    f.mu_identifiable = f.mu > kMuFloor * (1.0 + kOnBound) &&
                        f.mu < kMuCap * (1.0 - kOnBound);
  }
  f.c = profile.p2() * w * core.one_ratio;
  // The weight interval keeps this >= 0 up to rounding; only the no-bump
  // rule above (which moves w by < 1/n2) or a core whose own d = 1 mass
  // exceeds P1 can push it below, and then l is 0 and the model's d = 1
  // mass overshoots the observed share by the difference.
  f.l = std::max(0.0, profile.p1() - f.c - f.predicted_star_degree_one());
  out.evaluations = profile.evaluations();
  return out;
}

// Shared implementation of robust_fit_palu and robust_fit_palu_warm.
RobustPaluFit robust_fit(const stats::DegreeHistogram& h,
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
  // A degenerate histogram is bad data (kFailed), not a throw.
  std::optional<stats::EmpiricalDistribution> converted;
  try {
    converted.emplace(stats::EmpiricalDistribution::from_histogram(h));
  } catch (const Error& e) {
    out.error = e.what();
    record_result(out.stage);
    return out;
  }
  const stats::EmpiricalDistribution& dist = *converted;

  // The staged moment pipeline, retried with relaxed tail starts when the
  // tail is too thin to fit (degenerate windows).
  PaluFit moments;
  bool have_moments = false;
  std::string moments_error;
  std::vector<Degree> tails = {fit_opts.tail_min};
  for (const Degree relaxed : {Degree{6}, Degree{4}, Degree{2}}) {
    if (relaxed < fit_opts.tail_min) tails.push_back(relaxed);
  }
  obs::Counter& base_retries = registry.counter(obs::names::kFitBaseRetries);
  for (std::size_t k = 0; k < tails.size() && !have_moments; ++k) {
    if (k > 0) base_retries.inc();
    try {
      moments = fit_moments(dist, tails[k]);
      have_moments = true;
    } catch (const Error& e) {
      moments_error = e.what();
    }
  }

  std::vector<const PaluFit*> starts;
  if (have_moments) starts.push_back(&moments);
  if (warm != nullptr) starts.push_back(warm);
  const obs::Labels mle_labels = {
      {"stage", std::string(fit::to_string(fit::RobustStage::kMle))}};
  registry.counter(obs::names::kFitStageAttempts, mle_labels).inc();
  std::string mle_error;
  int evaluations = 0;
  try {
    ProfileFit pf = fit_profile(dist, refine_max, starts);
    evaluations = pf.evaluations;
    if (have_moments) {
      // Keep the staged pipeline's diagnostics (see PaluFit).
      pf.fit.tail_r_squared = moments.tail_r_squared;
      pf.fit.excess_mass = moments.excess_mass;
      pf.fit.moment_ratio = moments.moment_ratio;
      pf.fit.tail_points = moments.tail_points;
    }
    out.fit = pf.fit;
    out.stage = fit::RobustStage::kMle;
    registry.counter(obs::names::kFitStageSuccess, mle_labels).inc();
  } catch (const Error& e) {
    mle_error = e.what();
  }
  registry.histogram(obs::names::kFitStageIterations, mle_labels)
      .observe(static_cast<std::uint64_t>(evaluations));
  if (out.stage != fit::RobustStage::kMle) {
    if (have_moments) {
      out.fit = moments;
      out.stage = fit::RobustStage::kMoments;
    } else {
      out.error = mle_error + "; moments: " + moments_error;
    }
  }
  record_result(out.stage);
  return out;
}

}  // namespace

RobustPaluFit robust_fit_palu(const stats::DegreeHistogram& h,
                              const PaluFitOptions& fit_opts,
                              const fit::RobustFitOptions& robust_opts,
                              Degree refine_max) {
  return robust_fit(h, fit_opts, robust_opts, refine_max, nullptr);
}

RobustPaluFit robust_fit_palu_warm(const stats::DegreeHistogram& h,
                                   const PaluFit& warm,
                                   const PaluFitOptions& fit_opts,
                                   const fit::RobustFitOptions& robust_opts,
                                   Degree refine_max) {
  return robust_fit(h, fit_opts, robust_opts, refine_max, &warm);
}

double palu_profile_log_likelihood(const stats::EmpiricalDistribution& dist,
                                   double alpha, double mu, Degree refine_max) {
  PALU_CHECK(alpha > 1.0, "palu_profile_log_likelihood: requires alpha > 1");
  PALU_CHECK(mu >= 0.0, "palu_profile_log_likelihood: requires mu >= 0");
  const ProfileLikelihood profile(dist, refine_max);
  return mu > 0.0 ? profile.at(alpha, mu).log_lik
                  : profile.zeta_only(alpha).log_lik;
}

double estimate_mu_pointwise(const stats::EmpiricalDistribution& dist,
                             double c, double alpha) {
  const auto& support = dist.support();
  const auto& pmf = dist.pmf();
  // Point-wise estimates from consecutive excess ratios:
  //   e(d+1)/e(d) = μ/(d+1)  =>  μ̂_d = (d+1)·e(d+1)/e(d).
  std::vector<std::pair<double, double>> estimates;  // (μ̂, weight)
  for (std::size_t i = 0; i + 1 < support.size(); ++i) {
    const Degree d = support[i];
    if (d < 2 || support[i + 1] != d + 1 || d + 1 > kExcessMax) continue;
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
