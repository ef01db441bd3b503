#include "palu/fit/model_zoo.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
#include <numbers>
#include <tuple>

#include "palu/common/error.hpp"
#include "palu/fit/brent.hpp"
#include "palu/fit/nelder_mead.hpp"
#include "palu/math/gamma.hpp"
#include "palu/math/zeta.hpp"

namespace palu::fit {
namespace {

Degree resolve_dmax(const stats::DegreeHistogram& h, Degree dmax) {
  if (h.empty() || h.max_degree() == 0) {
    throw DataError("model zoo: empty histogram");
  }
  const Degree measured = h.max_degree();
  if (dmax == 0) return measured;
  PALU_CHECK(dmax >= measured,
             "model zoo: dmax smaller than the observed maximum");
  return dmax;
}

// Σ_{d=1}^{dmax} d^{−α}·e^{−βd}, exact head + log-substituted Simpson tail.
double cutoff_normalizer(double alpha, double beta, Degree dmax) {
  constexpr Degree kHead = 4096;
  double acc = 0.0;
  const Degree head_end = std::min<Degree>(dmax, kHead);
  for (Degree d = 1; d <= head_end; ++d) {
    acc += std::exp(-alpha * std::log(static_cast<double>(d)) -
                    beta * static_cast<double>(d));
  }
  if (dmax <= kHead) return acc;
  if (beta * static_cast<double>(kHead) > 45.0) return acc;  // dead tail
  // ∫ x^{−α} e^{−βx} dx over [kHead + 0.5, dmax + 0.5], t = ln x.
  const double t_lo = std::log(static_cast<double>(kHead) + 0.5);
  const double t_hi = std::log(static_cast<double>(dmax) + 0.5);
  constexpr int kPanels = 512;  // even
  const double step = (t_hi - t_lo) / kPanels;
  const auto f = [&](double t) {
    const double x = std::exp(t);
    return std::exp(t * (1.0 - alpha) - beta * x);
  };
  double integral = f(t_lo) + f(t_hi);
  for (int i = 1; i < kPanels; ++i) {
    integral += f(t_lo + step * i) * (i % 2 == 1 ? 4.0 : 2.0);
  }
  integral *= step / 3.0;
  return acc + integral;
}

// Σ_{d=1}^{dmax} exp(−(ln d − m)² / 2s²)/d, exact head + Gaussian tail.
double lognormal_normalizer(double m, double s, Degree dmax) {
  constexpr Degree kHead = 4096;
  double acc = 0.0;
  const Degree head_end = std::min<Degree>(dmax, kHead);
  for (Degree d = 1; d <= head_end; ++d) {
    const double z = (std::log(static_cast<double>(d)) - m) / s;
    acc += std::exp(-0.5 * z * z) / static_cast<double>(d);
  }
  if (dmax <= kHead) return acc;
  // ∫ exp(−(ln x − m)²/2s²)/x dx = s·√(2π)·[Φ(z_hi) − Φ(z_lo)].
  const double z_lo =
      (std::log(static_cast<double>(kHead) + 0.5) - m) / s;
  const double z_hi =
      (std::log(static_cast<double>(dmax) + 0.5) - m) / s;
  const double phi_diff =
      0.5 * (std::erfc(z_lo / std::numbers::sqrt2) -
             std::erfc(z_hi / std::numbers::sqrt2));
  return acc + s * std::sqrt(2.0 * std::numbers::pi) * phi_diff;
}

// ------------------------------------------------------------- families

class ZetaModel final : public DiscreteModel {
 public:
  ZetaModel(double alpha, Degree dmax)
      : alpha_(alpha),
        dmax_(dmax),
        log_z_(std::log(math::truncated_zeta(alpha, dmax))) {}

  std::string_view family() const override { return "zeta"; }
  std::size_t num_parameters() const override { return 1; }
  std::vector<std::pair<std::string, double>> parameters() const override {
    return {{"alpha", alpha_}};
  }
  double log_pmf(Degree d) const override {
    PALU_CHECK(d >= 1 && d <= dmax_, "zeta: d out of range");
    return -alpha_ * std::log(static_cast<double>(d)) - log_z_;
  }

 private:
  double alpha_;
  Degree dmax_;
  double log_z_;
};

class ZipfMandelbrotModel final : public DiscreteModel {
 public:
  ZipfMandelbrotModel(double alpha, double delta, Degree dmax)
      : alpha_(alpha),
        delta_(delta),
        dmax_(dmax),
        log_z_(std::log(
            math::shifted_truncated_zeta(alpha, delta, dmax))) {}

  std::string_view family() const override { return "zipf-mandelbrot"; }
  std::size_t num_parameters() const override { return 2; }
  std::vector<std::pair<std::string, double>> parameters() const override {
    return {{"alpha", alpha_}, {"delta", delta_}};
  }
  double log_pmf(Degree d) const override {
    PALU_CHECK(d >= 1 && d <= dmax_, "zipf-mandelbrot: d out of range");
    return -alpha_ * std::log(static_cast<double>(d) + delta_) - log_z_;
  }

 private:
  double alpha_;
  double delta_;
  Degree dmax_;
  double log_z_;
};

class PowerLawCutoffModel final : public DiscreteModel {
 public:
  PowerLawCutoffModel(double alpha, double beta, Degree dmax)
      : alpha_(alpha),
        beta_(beta),
        dmax_(dmax),
        log_z_(std::log(cutoff_normalizer(alpha, beta, dmax))) {}

  std::string_view family() const override { return "powerlaw-cutoff"; }
  std::size_t num_parameters() const override { return 2; }
  std::vector<std::pair<std::string, double>> parameters() const override {
    return {{"alpha", alpha_}, {"beta", beta_}};
  }
  double log_pmf(Degree d) const override {
    PALU_CHECK(d >= 1 && d <= dmax_, "powerlaw-cutoff: d out of range");
    return -alpha_ * std::log(static_cast<double>(d)) -
           beta_ * static_cast<double>(d) - log_z_;
  }

 private:
  double alpha_;
  double beta_;
  Degree dmax_;
  double log_z_;
};

class LognormalModel final : public DiscreteModel {
 public:
  LognormalModel(double m, double s, Degree dmax)
      : m_(m),
        s_(s),
        dmax_(dmax),
        log_z_(std::log(lognormal_normalizer(m, s, dmax))) {}

  std::string_view family() const override { return "lognormal"; }
  std::size_t num_parameters() const override { return 2; }
  std::vector<std::pair<std::string, double>> parameters() const override {
    return {{"mu", m_}, {"sigma", s_}};
  }
  double log_pmf(Degree d) const override {
    PALU_CHECK(d >= 1 && d <= dmax_, "lognormal: d out of range");
    const double ld = std::log(static_cast<double>(d));
    const double z = (ld - m_) / s_;
    return -0.5 * z * z - ld - log_z_;
  }

 private:
  double m_;
  double s_;
  Degree dmax_;
  double log_z_;
};

class GeometricModel final : public DiscreteModel {
 public:
  GeometricModel(double q, Degree dmax)
      : q_(q),
        dmax_(dmax),
        // Σ_{d=1}^{dmax} (1−q)^{d−1} = (1 − (1−q)^{dmax}) / q.
        log_z_(std::log(-std::expm1(static_cast<double>(dmax) *
                                    std::log1p(-q))) -
               std::log(q)) {}

  std::string_view family() const override { return "geometric"; }
  std::size_t num_parameters() const override { return 1; }
  std::vector<std::pair<std::string, double>> parameters() const override {
    return {{"q", q_}};
  }
  double log_pmf(Degree d) const override {
    PALU_CHECK(d >= 1 && d <= dmax_, "geometric: d out of range");
    return static_cast<double>(d - 1) * std::log1p(-q_) - log_z_;
  }

 private:
  double q_;
  Degree dmax_;
  double log_z_;
};

class PaluMixtureModel final : public DiscreteModel {
 public:
  /// Weights must lie on the simplex; α > 0; μ > 0.
  PaluMixtureModel(double w_atom, double w_zeta, double w_poisson,
                   double alpha, double mu, Degree dmax)
      : w_atom_(w_atom),
        w_zeta_(w_zeta),
        w_poisson_(w_poisson),
        alpha_(alpha),
        mu_(mu),
        dmax_(dmax),
        zeta_norm_(math::truncated_zeta(alpha, dmax)) {
    // Poisson conditioned on 2 <= d <= dmax.
    double mass = 0.0;
    for (Degree d = 2; d <= dmax; ++d) {
      const double term = math::poisson_pmf(d, mu);
      mass += term;
      if (static_cast<double>(d) > mu && term < 1e-18) break;
    }
    poisson_norm_ = mass;
  }

  std::string_view family() const override { return "palu-mixture"; }
  std::size_t num_parameters() const override { return 4; }
  std::vector<std::pair<std::string, double>> parameters() const override {
    return {{"w_atom", w_atom_},
            {"w_zeta", w_zeta_},
            {"w_poisson", w_poisson_},
            {"alpha", alpha_},
            {"mu", mu_}};
  }
  double log_pmf(Degree d) const override {
    PALU_CHECK(d >= 1 && d <= dmax_, "palu-mixture: d out of range");
    double p = w_zeta_ * std::pow(static_cast<double>(d), -alpha_) /
               zeta_norm_;
    if (d == 1) {
      p += w_atom_;
    } else if (poisson_norm_ > 0.0) {
      p += w_poisson_ * math::poisson_pmf(d, mu_) / poisson_norm_;
    }
    return std::log(p);
  }

 private:
  double w_atom_;
  double w_zeta_;
  double w_poisson_;
  double alpha_;
  double mu_;
  Degree dmax_;
  double zeta_norm_;
  double poisson_norm_;
};

// Negative log-likelihood of a candidate model-builder over the histogram.
template <typename Build>
double nll_of(const stats::DegreeHistogram& h, Build&& build) {
  double acc = 0.0;
  std::unique_ptr<DiscreteModel> model;
  try {
    model = build();
  } catch (const Error&) {
    return std::numeric_limits<double>::infinity();
  }
  for (const auto& [d, count] : h.sorted()) {
    if (d == 0) continue;
    const double lp = model->log_pmf(d);
    if (!std::isfinite(lp)) {
      return std::numeric_limits<double>::infinity();
    }
    acc -= static_cast<double>(count) * lp;
  }
  return acc;
}

}  // namespace

double DiscreteModel::pmf(Degree d) const { return std::exp(log_pmf(d)); }

double DiscreteModel::log_likelihood(
    const stats::DegreeHistogram& h) const {
  double acc = 0.0;
  for (const auto& [d, count] : h.sorted()) {
    if (d == 0) continue;
    acc += static_cast<double>(count) * log_pmf(d);
  }
  return acc;
}

double DiscreteModel::aic(const stats::DegreeHistogram& h) const {
  return 2.0 * static_cast<double>(num_parameters()) -
         2.0 * log_likelihood(h);
}

double DiscreteModel::bic(const stats::DegreeHistogram& h) const {
  PALU_CHECK(h.total() > 0, "DiscreteModel::bic: empty histogram");
  return static_cast<double>(num_parameters()) *
             std::log(static_cast<double>(h.total())) -
         2.0 * log_likelihood(h);
}

std::unique_ptr<DiscreteModel> fit_zeta_model(
    const stats::DegreeHistogram& h, Degree dmax) {
  const Degree top = resolve_dmax(h, dmax);
  const auto nll = [&](double alpha) {
    return nll_of(h,
                  [&]() { return std::make_unique<ZetaModel>(alpha, top); });
  };
  const double alpha = brent_minimize(nll, 0.05, 30.0);
  return std::make_unique<ZetaModel>(alpha, top);
}

std::unique_ptr<DiscreteModel> fit_zipf_mandelbrot_model(
    const stats::DegreeHistogram& h, Degree dmax) {
  const Degree top = resolve_dmax(h, dmax);
  const auto objective = [&](const std::vector<double>& theta) {
    const double alpha = std::exp(theta[0]);
    const double delta = std::expm1(theta[1]);
    if (alpha < 0.05 || alpha > 40.0 || delta <= -1.0 + 1e-12 ||
        delta > 1e6) {
      return std::numeric_limits<double>::infinity();
    }
    return nll_of(h, [&]() {
      return std::make_unique<ZipfMandelbrotModel>(alpha, delta, top);
    });
  };
  const auto sol =
      nelder_mead(objective, {std::log(2.0), std::log1p(0.5)});
  return std::make_unique<ZipfMandelbrotModel>(
      std::exp(sol.x[0]), std::expm1(sol.x[1]), top);
}

std::unique_ptr<DiscreteModel> fit_powerlaw_cutoff_model(
    const stats::DegreeHistogram& h, Degree dmax) {
  const Degree top = resolve_dmax(h, dmax);
  const auto objective = [&](const std::vector<double>& theta) {
    const double alpha = theta[0];
    const double beta = std::exp(theta[1]);
    if (std::abs(alpha) > 30.0 || beta > 10.0 || beta < 1e-12) {
      return std::numeric_limits<double>::infinity();
    }
    return nll_of(h, [&]() {
      return std::make_unique<PowerLawCutoffModel>(alpha, beta, top);
    });
  };
  const auto sol = nelder_mead(objective, {2.0, std::log(1e-3)});
  return std::make_unique<PowerLawCutoffModel>(
      sol.x[0], std::exp(sol.x[1]), top);
}

std::unique_ptr<DiscreteModel> fit_lognormal_model(
    const stats::DegreeHistogram& h, Degree dmax) {
  const Degree top = resolve_dmax(h, dmax);
  const auto objective = [&](const std::vector<double>& theta) {
    const double m = theta[0];
    const double s = std::exp(theta[1]);
    if (std::abs(m) > 60.0 || s < 1e-4 || s > 50.0) {
      return std::numeric_limits<double>::infinity();
    }
    return nll_of(h, [&]() {
      return std::make_unique<LognormalModel>(m, s, top);
    });
  };
  const auto sol = nelder_mead(objective, {0.0, std::log(1.5)});
  return std::make_unique<LognormalModel>(sol.x[0], std::exp(sol.x[1]),
                                          top);
}

std::unique_ptr<DiscreteModel> fit_geometric_model(
    const stats::DegreeHistogram& h, Degree dmax) {
  const Degree top = resolve_dmax(h, dmax);
  const auto nll = [&](double logit_q) {
    const double q = 1.0 / (1.0 + std::exp(-logit_q));
    return nll_of(
        h, [&]() { return std::make_unique<GeometricModel>(q, top); });
  };
  const double logit = brent_minimize(nll, -25.0, 25.0);
  return std::make_unique<GeometricModel>(
      1.0 / (1.0 + std::exp(-logit)), top);
}

std::unique_ptr<DiscreteModel> fit_palu_mixture_model(
    const stats::DegreeHistogram& h, Degree dmax) {
  const Degree top = resolve_dmax(h, dmax);
  // θ = (ln α, ln μ, a_atom, a_poisson); weights via softmax against the
  // zeta component's fixed logit 0.
  const auto unpack = [&](const std::vector<double>& theta) {
    const double alpha = std::exp(theta[0]);
    const double mu = std::exp(theta[1]);
    const double e_atom = std::exp(theta[2]);
    const double e_po = std::exp(theta[3]);
    const double z = 1.0 + e_atom + e_po;
    return std::tuple<double, double, double, double, double>(
        e_atom / z, 1.0 / z, e_po / z, alpha, mu);
  };
  const auto objective = [&](const std::vector<double>& theta) {
    const auto [wa, wz, wp, alpha, mu] = unpack(theta);
    if (alpha < 0.05 || alpha > 40.0 || mu < 1e-3 || mu > 100.0 ||
        std::abs(theta[2]) > 30.0 || std::abs(theta[3]) > 30.0) {
      return std::numeric_limits<double>::infinity();
    }
    return nll_of(h, [&]() {
      return std::make_unique<PaluMixtureModel>(wa, wz, wp, alpha, mu,
                                                top);
    });
  };
  NelderMeadOptions nm;
  nm.max_iterations = 4000;
  nm.restarts = 2;
  // Seed the bump near the empirical mean degree so the optimizer starts
  // with a plausible Poisson location.
  double mean = 2.0;
  if (h.total() > 0) {
    mean = static_cast<double>(h.weighted_total()) /
           static_cast<double>(h.total());
  }
  const auto sol = nelder_mead(
      objective,
      {std::log(2.0), std::log(std::max(1.5, mean)), std::log(0.5),
       std::log(0.2)},
      nm);
  const auto [wa, wz, wp, alpha, mu] = unpack(sol.x);
  return std::make_unique<PaluMixtureModel>(wa, wz, wp, alpha, mu, top);
}

namespace {

using FamilyFitter = std::unique_ptr<DiscreteModel> (*)(
    const stats::DegreeHistogram&, Degree);

// The fitting order is also the order std::sort sees AIC ties in.
constexpr std::array<FamilyFitter, 6> kFamilies = {
    &fit_zeta_model,          &fit_zipf_mandelbrot_model,
    &fit_powerlaw_cutoff_model, &fit_lognormal_model,
    &fit_geometric_model,     &fit_palu_mixture_model};

}  // namespace

std::vector<ModelComparison> fit_all_models(
    const stats::DegreeHistogram& h, Degree dmax) {
  std::vector<std::unique_ptr<DiscreteModel>> models;
  models.reserve(kFamilies.size());
  for (const FamilyFitter fitter : kFamilies) {
    models.push_back(fitter(h, dmax));
  }
  std::vector<ModelComparison> out;
  out.reserve(models.size());
  for (const auto& model : models) {
    ModelComparison entry;
    entry.family = std::string(model->family());
    entry.parameters = model->parameters();
    entry.log_likelihood = model->log_likelihood(h);
    entry.aic = model->aic(h);
    entry.bic = model->bic(h);
    out.push_back(std::move(entry));
  }
  std::sort(out.begin(), out.end(),
            [](const ModelComparison& a, const ModelComparison& b) {
              return a.aic < b.aic;
            });
  const double best_bic =
      std::min_element(out.begin(), out.end(),
                       [](const ModelComparison& a,
                          const ModelComparison& b) {
                         return a.bic < b.bic;
                       })
          ->bic;
  for (auto& entry : out) {
    entry.delta_aic = entry.aic - out.front().aic;
    entry.delta_bic = entry.bic - best_bic;
  }
  return out;
}

VuongResult vuong_test(const DiscreteModel& a, const DiscreteModel& b,
                       const stats::DegreeHistogram& h) {
  double n = 0.0, mean = 0.0, m2 = 0.0;
  for (const auto& [d, count] : h.sorted()) {
    if (d == 0) continue;
    const double diff = a.log_pmf(d) - b.log_pmf(d);
    // Welford over `count` identical observations.
    const double cd = static_cast<double>(count);
    const double delta = diff - mean;
    n += cd;
    mean += delta * cd / n;
    m2 += cd * delta * (diff - mean);
  }
  PALU_CHECK(n >= 2.0, "vuong_test: needs at least 2 observations");
  const double var = m2 / n;
  VuongResult out;
  if (var <= 0.0) {
    // Identical pointwise likelihoods: no discrimination.
    out.statistic = 0.0;
    out.p_two_sided = 1.0;
    return out;
  }
  out.statistic = std::sqrt(n) * mean / std::sqrt(var);
  out.p_two_sided =
      std::erfc(std::abs(out.statistic) / std::numbers::sqrt2);
  return out;
}

}  // namespace palu::fit
