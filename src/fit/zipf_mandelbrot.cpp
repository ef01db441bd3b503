#include "palu/fit/zipf_mandelbrot.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>

#include "palu/common/error.hpp"
#include "palu/fit/nelder_mead.hpp"
#include "palu/math/zeta.hpp"
#include "palu/stats/histogram.hpp"

namespace palu::fit {
namespace {

// The partial sums S_i = Σ_{d<=upper_i} (d+δ)^{-α} at the upper edges
// upper_i = min(2^i, dmax) of pooled bins i = 0..bin_index(dmax), all from
// one math::shifted_zeta_prefixes pass.  The last edge is dmax, so the
// last sum is the model's normalizer.
class EdgeSums {
 public:
  explicit EdgeSums(Degree dmax)
      : bins_(stats::LogBinned::bin_index(dmax) + 1) {
    for (std::uint32_t i = 0; i < bins_; ++i) {
      upper_[i] = std::min(stats::LogBinned::bin_upper(i), dmax);
    }
  }

  void evaluate(double alpha, double delta) {
    math::shifted_zeta_prefixes(alpha, delta, {upper_.data(), bins_},
                                {sum_.data(), bins_});
  }

  std::size_t bins() const { return bins_; }

  /// D(d_i) = cdf(upper_i) − cdf(upper_{i−1}), each cdf computed as
  /// ZipfMandelbrot::cdf does: S / normalizer.
  double mass(std::size_t i) const {
    const double normalizer = sum_[bins_ - 1];
    const double c = sum_[i] / normalizer;
    return i == 0 ? c : c - sum_[i - 1] / normalizer;
  }

 private:
  std::size_t bins_;
  std::array<Degree, stats::LogBinned::kMaxBins> upper_{};
  std::array<double, stats::LogBinned::kMaxBins> sum_{};
};

}  // namespace

ZipfMandelbrot::ZipfMandelbrot(double alpha, double delta, Degree dmax)
    : alpha_(alpha), delta_(delta), dmax_(dmax) {
  PALU_CHECK(alpha > 0.0, "ZipfMandelbrot: requires alpha > 0");
  PALU_CHECK(delta > -1.0, "ZipfMandelbrot: requires delta > -1");
  PALU_CHECK(dmax >= 1, "ZipfMandelbrot: requires dmax >= 1");
  normalizer_ = math::shifted_truncated_zeta(alpha, delta, dmax);
}

double ZipfMandelbrot::unnormalized(double d) const {
  return std::pow(d + delta_, -alpha_);
}

double ZipfMandelbrot::unnormalized_delta_gradient(double d) const {
  // ∂_δ ρ(d; α, δ) = −α (d + δ)^{−α−1} = −α ρ(d; α+1, δ).
  return -alpha_ * std::pow(d + delta_, -alpha_ - 1.0);
}

double ZipfMandelbrot::pmf(Degree d) const {
  PALU_CHECK(d >= 1 && d <= dmax_, "ZipfMandelbrot::pmf: d out of range");
  return unnormalized(static_cast<double>(d)) / normalizer_;
}

double ZipfMandelbrot::cdf(Degree d) const {
  if (d < 1) return 0.0;
  d = std::min(d, dmax_);
  return math::shifted_truncated_zeta(alpha_, delta_, d) / normalizer_;
}

rng::AliasSampler ZipfMandelbrot::sampler() const {
  PALU_CHECK(dmax_ <= (Degree{1} << 26),
             "ZipfMandelbrot::sampler: dmax too large for an alias table");
  std::vector<double> weights(dmax_);
  for (Degree d = 1; d <= dmax_; ++d) {
    weights[d - 1] = unnormalized(static_cast<double>(d));
  }
  return rng::AliasSampler(weights, /*offset=*/1);
}

stats::LogBinned ZipfMandelbrot::pooled() const {
  EdgeSums edges(dmax_);
  edges.evaluate(alpha_, delta_);
  std::vector<double> mass(edges.bins());
  for (std::size_t i = 0; i < mass.size(); ++i) {
    mass[i] = edges.mass(i);
  }
  return stats::LogBinned(std::move(mass));
}

ZmFitResult fit_zipf_mandelbrot(const stats::LogBinned& target, Degree dmax,
                                const ZmFitOptions& opts) {
  PALU_CHECK(target.num_bins() >= 3,
             "fit_zipf_mandelbrot: need at least 3 pooled bins");
  PALU_CHECK(dmax >= 4, "fit_zipf_mandelbrot: dmax too small to pool");

  // Per-bin weights from the supplied σ (Fig 3 plots ±1σ error bars, so we
  // weight by inverse variance when the caller has window statistics).
  std::vector<double> weight(target.num_bins(), 1.0);
  if (!opts.bin_sigma.empty()) {
    PALU_CHECK(opts.bin_sigma.size() == target.num_bins(),
               "fit_zipf_mandelbrot: sigma size mismatch");
    for (std::size_t i = 0; i < weight.size(); ++i) {
      const double s = std::max(opts.bin_sigma[i], opts.sigma_floor);
      weight[i] = 1.0 / (s * s);
    }
  }

  // Parameters are unconstrained via α = exp(θ₀), δ = exp(θ₁) − 1 > −1.
  // Each evaluation is the model's pooled() from one prefix pass, with
  // no ZipfMandelbrot built: the edges and sums live across evaluations.
  EdgeSums edges(dmax);
  const auto objective = [&](const std::vector<double>& theta) {
    const double alpha = std::exp(theta[0]);
    const double delta = std::expm1(theta[1]);
    if (!(alpha > 0.05) || alpha > 50.0 || !(delta > -1.0 + 1e-12) ||
        delta > 1e6) {
      return std::numeric_limits<double>::infinity();
    }
    edges.evaluate(alpha, delta);
    double sse = 0.0;
    for (std::size_t i = 0; i < target.num_bins(); ++i) {
      const double m = i < edges.bins() ? edges.mass(i) : 0.0;
      const double r = target[i] - m;
      sse += weight[i] * r * r;
    }
    return sse;
  };

  const std::vector<double> theta0 = {std::log(opts.alpha_init),
                                      std::log1p(opts.delta_init)};
  NelderMeadOptions nm;
  nm.max_iterations = 4000;
  nm.restarts = 2;
  const NelderMeadResult sol = nelder_mead(objective, theta0, nm);

  ZmFitResult out;
  out.alpha = std::exp(sol.x[0]);
  out.delta = std::expm1(sol.x[1]);
  out.dmax = dmax;
  out.objective = sol.value;
  out.converged = sol.converged;
  return out;
}

ZmMleResult fit_zipf_mandelbrot_mle(const stats::DegreeHistogram& h,
                                    Degree dmax) {
  PALU_CHECK(!h.empty() && h.max_degree() >= 1,
             "fit_zipf_mandelbrot_mle: empty histogram");
  const Degree top = dmax == 0 ? h.max_degree() : dmax;
  PALU_CHECK(top >= h.max_degree(),
             "fit_zipf_mandelbrot_mle: dmax below observed maximum");
  const auto entries = h.sorted();

  // Negative log-likelihood in natural parameters (α, δ).
  const auto nll = [&](double alpha, double delta) {
    if (!(alpha > 0.05) || alpha > 40.0 || !(delta > -1.0 + 1e-12) ||
        delta > 1e6) {
      return std::numeric_limits<double>::infinity();
    }
    const double log_z =
        std::log(math::shifted_truncated_zeta(alpha, delta, top));
    double acc = 0.0;
    for (const auto& [d, count] : entries) {
      if (d == 0) continue;
      acc += static_cast<double>(count) *
             (alpha * std::log(static_cast<double>(d) + delta) + log_z);
    }
    return acc;
  };
  const auto objective = [&](const std::vector<double>& theta) {
    return nll(std::exp(theta[0]), std::expm1(theta[1]));
  };
  NelderMeadOptions nm;
  nm.max_iterations = 4000;
  nm.restarts = 2;
  const auto sol =
      nelder_mead(objective, {std::log(2.0), std::log1p(0.5)}, nm);

  ZmMleResult out;
  out.alpha = std::exp(sol.x[0]);
  out.delta = std::expm1(sol.x[1]);
  out.dmax = top;
  out.log_likelihood = -sol.value;

  // Observed information by central differences in (α, δ).
  const double ha = 1e-4 * std::max(1.0, out.alpha);
  const double hd = 1e-4 * std::max(1.0, 1.0 + out.delta);
  const double f0 = nll(out.alpha, out.delta);
  const double faa = (nll(out.alpha + ha, out.delta) - 2.0 * f0 +
                      nll(out.alpha - ha, out.delta)) /
                     (ha * ha);
  const double fdd = (nll(out.alpha, out.delta + hd) - 2.0 * f0 +
                      nll(out.alpha, out.delta - hd)) /
                     (hd * hd);
  const double fad = (nll(out.alpha + ha, out.delta + hd) -
                      nll(out.alpha + ha, out.delta - hd) -
                      nll(out.alpha - ha, out.delta + hd) +
                      nll(out.alpha - ha, out.delta - hd)) /
                     (4.0 * ha * hd);
  const double det = faa * fdd - fad * fad;
  if (std::isfinite(det) && det > 0.0 && faa > 0.0) {
    // Inverse of the 2x2 information matrix.
    out.alpha_stderr = std::sqrt(fdd / det);
    out.delta_stderr = std::sqrt(faa / det);
  }
  return out;
}

}  // namespace palu::fit
