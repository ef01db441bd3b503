#include "palu/math/binmass.hpp"

#include <algorithm>
#include <bit>
#include <cmath>

#include "palu/common/error.hpp"
#include "palu/math/gamma.hpp"
#include "palu/math/stable.hpp"

namespace palu::math {
namespace {

constexpr double kInvSqrt2 = 0.70710678118654752440;
constexpr double kInvSqrt2Pi = 0.39894228040143267794;

double normal_cdf(double z) { return 0.5 * std::erfc(-z * kInvSqrt2); }
double normal_pdf(double z) { return kInvSqrt2Pi * std::exp(-0.5 * z * z); }

/// Φ(z) with the first Edgeworth (skewness) correction — the "normal" tier.
double edgeworth_cdf(double z, double gamma3) {
  const double f =
      normal_cdf(z) - normal_pdf(z) * gamma3 * (z * z - 1.0) / 6.0;
  return std::clamp(f, 0.0, 1.0);
}

/// Lattice Lugannani–Rice CDF from saddle t̂, K(t̂), K''(t̂) at the
/// (continuity-corrected) evaluation point x.  Callers keep |t̂| away from
/// 0 by routing central boundaries through the normal tier.
double lugannani_rice(double t, double cgf, double cgf_pp, double x) {
  double w = std::sqrt(std::max(0.0, 2.0 * (t * x - cgf)));
  if (t < 0.0) w = -w;
  const double u = t * std::sqrt(cgf_pp);
  if (w == 0.0 || u == 0.0) return 0.5;  // saddle at the mean; callers avoid
  const double f = normal_cdf(w) + normal_pdf(w) * (1.0 / w - 1.0 / u);
  return std::clamp(f, 0.0, 1.0);
}

/// Binomial(n, p) CDF at real boundary m through the normal/saddlepoint
/// ladder.  Requires p ∈ (0, 1).
double binomial_cdf_ladder(std::uint64_t n, double p, double m,
                           const BinMassOptions& opts) {
  const double nd = static_cast<double>(n);
  if (m < 0.0) return 0.0;
  if (m >= nd) return 1.0;
  const double x = m + 0.5;  // lattice continuity correction
  if (x >= nd) return 1.0;
  const double mu = nd * p;
  const double sigma = std::sqrt(mu * (1.0 - p));
  const double z = (x - mu) / sigma;
  if (z <= -opts.tail_z_cut) return 0.0;
  if (z >= opts.tail_z_cut) return 1.0;
  if (std::abs(z) <= opts.normal_z_max) {
    return edgeworth_cdf(z, (1.0 - 2.0 * p) / sigma);
  }
  // Closed-form saddle: e^t̂ = a(1−p)/((1−a)p) with a = x/n, giving
  // K(t̂) = n·log((1−p)/(1−a)) and K''(t̂) = n·a(1−a).
  const double a = x / nd;
  const double t = std::log(a / (1.0 - a)) + std::log((1.0 - p) / p);
  const double cgf = nd * (std::log1p(-p) - std::log1p(-a));
  return lugannani_rice(t, cgf, nd * a * (1.0 - a), x);
}

struct PbMoments {
  double mu = 0.0;
  double s2 = 0.0;
  double m3 = 0.0;
  double sum_log1m = 0.0;  // Σ log1p(−π); −inf when some π = 1
};

PbMoments pb_moments(std::span<const double> probs) {
  PbMoments m;
  for (const double pi : probs) {
    PALU_ASSERT(pi >= 0.0 && pi <= 1.0);
    const double q = 1.0 - pi;
    m.mu += pi;
    m.s2 += pi * q;
    m.m3 += pi * q * (q - pi);
    m.sum_log1m += std::log1p(-pi);
  }
  return m;
}

/// Poisson-binomial CDF at real boundary m via the same ladder; `mom` are
/// the precomputed moments of `probs`.  Requires s2 > 0.
double pb_cdf_ladder(std::span<const double> probs, const PbMoments& mom,
                     double m, const BinMassOptions& opts) {
  const double kd = static_cast<double>(probs.size());
  if (m < 0.0) return 0.0;
  if (m >= kd) return 1.0;
  const double x = m + 0.5;
  if (x >= kd) return 1.0;
  const double sigma = std::sqrt(mom.s2);
  const double z = (x - mom.mu) / sigma;
  if (z <= -opts.tail_z_cut) return 0.0;
  if (z >= opts.tail_z_cut) return 1.0;
  if (std::abs(z) <= opts.normal_z_max) {
    return edgeworth_cdf(z, mom.m3 / (mom.s2 * sigma));
  }
  // Saddle by Newton on K'(t) = x, seeded with the Gaussian saddle.
  double t = std::clamp((x - mom.mu) / mom.s2, -600.0, 600.0);
  double cgf = 0.0;
  double cgf_pp = 0.0;
  for (int iter = 0; iter < 32; ++iter) {
    const double em1 = std::expm1(t);
    const double et = em1 + 1.0;
    cgf = 0.0;
    cgf_pp = 0.0;
    double cgf_p = 0.0;
    for (const double pi : probs) {
      const double den = 1.0 + pi * em1;
      const double s = pi * et / den;
      cgf += std::log1p(pi * em1);
      cgf_p += s;
      cgf_pp += s * (1.0 - s);
    }
    const double h = cgf_p - x;
    if (std::abs(h) <= 1e-10 * (1.0 + x) || cgf_pp <= 0.0) break;
    t = std::clamp(t - h / cgf_pp, -600.0, 600.0);
  }
  return lugannani_rice(t, cgf, cgf_pp, x);
}

/// Folds a distribution known only through edge CDFs into the bins:
/// bins[i] += F(u_i) − F(u_{i−1}) over the bin range that can hold mass
/// given support [lo, hi].  F(0) is supplied exactly by the caller.
template <typename CdfFn>
void fold_from_cdf(std::span<double> bins, double lo, double hi,
                   double cdf_at_zero, CdfFn&& cdf) {
  const std::size_t nbins = bins.size();
  const std::size_t last = nbins - 1;
  const auto first_d = static_cast<std::uint64_t>(std::max(lo, 1.0));
  const auto last_d =
      static_cast<std::uint64_t>(std::clamp(hi, 1.0, 9.0e18));
  std::size_t b_lo = log2_bin_index(first_d, nbins);
  const std::size_t b_hi = log2_bin_index(last_d, nbins);
  // F at the lower edge of bin b_lo (edge value 2^{b_lo−1}, or 0 for bin 0).
  double prev = b_lo == 0 ? cdf_at_zero
                          : cdf(std::ldexp(1.0, static_cast<int>(b_lo) - 1));
  for (std::size_t i = b_lo; i <= b_hi; ++i) {
    const double cur =
        i == last ? 1.0
                  : cdf(i == 0 ? 1.0 : std::ldexp(1.0, static_cast<int>(i)));
    bins[i] += std::max(0.0, cur - prev);
    prev = cur;
  }
}

}  // namespace

std::size_t log2_bin_index(std::uint64_t d, std::size_t nbins) {
  PALU_ASSERT(d >= 1 && nbins >= 1);
  const std::size_t idx =
      d <= 1 ? 0 : static_cast<std::size_t>(std::bit_width(d - 1));
  return std::min(idx, nbins - 1);
}

double binomial_log2_bins(std::uint64_t n, double p, std::span<double> bins,
                          const BinMassOptions& opts) {
  PALU_CHECK(!bins.empty(), "binomial_log2_bins: needs at least one bin");
  PALU_CHECK(p >= 0.0 && p <= 1.0,
             "binomial_log2_bins: probability outside [0, 1]");
  if (n == 0 || p == 0.0) return 0.0;
  if (p >= 1.0) {  // degenerate: all n_valid packets land on this entity
    bins[log2_bin_index(n, bins.size())] += 1.0;
    return 1.0;
  }
  const double nd = static_cast<double>(n);
  // Exact by construction, independent of the approximation tier below.
  const double visible = -std::expm1(nd * std::log1p(-p));
  const double mu = nd * p;
  const double sigma = std::sqrt(mu * (1.0 - p));
  const double lo = std::max(0.0, mu - 40.0 * sigma - 4.0);
  const double hi = std::min(nd, mu + 40.0 * sigma + 4.0);
  if (hi - lo <= opts.exact_span_limit) {
    // Exact tier: ratio-recurrence pmf walk over the ±40σ support.  The
    // walk is seeded at the mode and recursed outward: seeding at the d0
    // edge underflows (the pmf at −40σ is ~e^{-800}, below the subnormal
    // floor) and a ratio recurrence can never recover from an exact zero,
    // which silently dropped ALL the mass of high-μ narrow-σ marginals.
    const auto d0 = static_cast<std::uint64_t>(lo);
    const auto d1 = static_cast<std::uint64_t>(hi);
    const std::uint64_t m0 = std::min(
        d1, std::max(d0, static_cast<std::uint64_t>(mu)));
    const double lp = log_binomial_coefficient(n, m0) +
                      xlogy(static_cast<double>(m0), p) +
                      (nd - static_cast<double>(m0)) * std::log1p(-p);
    const double pm0 = std::exp(lp);
    const double odds = p / (1.0 - p);
    double pm = pm0;
    for (std::uint64_t d = m0; d <= d1; ++d) {
      if (d >= 1) bins[log2_bin_index(d, bins.size())] += pm;
      pm *= odds * (nd - static_cast<double>(d)) /
            (static_cast<double>(d) + 1.0);
    }
    pm = pm0;
    for (std::uint64_t d = m0; d > d0; --d) {
      pm *= static_cast<double>(d) /
            (odds * (nd - static_cast<double>(d) + 1.0));
      if (d - 1 >= 1) bins[log2_bin_index(d - 1, bins.size())] += pm;
    }
    return visible;
  }
  fold_from_cdf(bins, lo, hi, 1.0 - visible, [&](double m) {
    return binomial_cdf_ladder(n, p, m, opts);
  });
  return visible;
}

double poisson_binomial_log2_bins(std::span<const double> probs,
                                  std::span<double> bins,
                                  BinMassScratch& scratch,
                                  const BinMassOptions& opts) {
  PALU_CHECK(!bins.empty(),
             "poisson_binomial_log2_bins: needs at least one bin");
  const std::size_t k = probs.size();
  if (k == 0) return 0.0;
  if (k <= opts.pb_exact_max_terms) {
    // Exact DP over the indicator convolution, O(k²).
    auto& pmf = scratch.pmf;
    pmf.assign(k + 1, 0.0);
    pmf[0] = 1.0;
    std::size_t cur = 0;
    for (const double pi : probs) {
      PALU_ASSERT(pi >= 0.0 && pi <= 1.0);
      for (std::size_t j = cur + 1; j-- > 0;) {
        const double carry = pmf[j] * pi;
        pmf[j] -= carry;
        if (j + 1 <= k) pmf[j + 1] += carry;
      }
      ++cur;
    }
    for (std::size_t d = 1; d <= k; ++d) {
      bins[log2_bin_index(d, bins.size())] += pmf[d];
    }
    return 1.0 - pmf[0];
  }
  const PbMoments mom = pb_moments(probs);
  const double visible = -std::expm1(mom.sum_log1m);
  if (mom.s2 < 1e-12) {
    // Degenerate: every π is (numerically) 0 or 1 — a point mass.
    const auto d = static_cast<std::uint64_t>(std::llround(mom.mu));
    if (d >= 1) bins[log2_bin_index(d, bins.size())] += 1.0;
    return visible;
  }
  const double sigma = std::sqrt(mom.s2);
  const double lo = std::max(0.0, mom.mu - 40.0 * sigma - 4.0);
  const double hi =
      std::min(static_cast<double>(k), mom.mu + 40.0 * sigma + 4.0);
  fold_from_cdf(bins, lo, hi, 1.0 - visible, [&](double m) {
    return pb_cdf_ladder(probs, mom, m, opts);
  });
  return visible;
}

double poisson_binomial_cdf_approx(std::span<const double> probs, double m,
                                   const BinMassOptions& opts) {
  if (probs.empty()) return m >= 0.0 ? 1.0 : 0.0;
  const PbMoments mom = pb_moments(probs);
  if (mom.s2 < 1e-12) {
    return m >= std::round(mom.mu) ? 1.0 : 0.0;
  }
  return pb_cdf_ladder(probs, mom, m, opts);
}

}  // namespace palu::math
