#include "palu/math/zeta.hpp"

#include <cmath>
#include <cstdint>

#include "palu/common/error.hpp"

namespace palu::math {
namespace {

// Euler–Maclaurin tail: Σ_{n≥0} (x0+n)^{-s} for x0 reasonably large
// (callers arrange x0 >= ~32 so the B8 truncation error is < 1e-15).
double em_infinite_tail(double s, double x0) {
  const double inv = 1.0 / x0;
  const double xs = std::pow(x0, -s);
  double sum = xs * x0 / (s - 1.0);  // ∫_{x0}^∞ x^{-s} dx = x0^{1-s}/(s-1)
  sum += 0.5 * xs;
  const double s1 = s, s2 = s + 1.0, s3 = s + 2.0, s4 = s + 3.0;
  const double s5 = s + 4.0, s6 = s + 5.0, s7 = s + 6.0;
  double deriv = s1 * xs * inv;  // |f'(x0)| up to sign
  sum += deriv / 12.0;
  deriv *= s2 * s3 * inv * inv;
  sum -= deriv / 720.0;
  deriv *= s4 * s5 * inv * inv;
  sum += deriv / 30240.0;
  deriv *= s6 * s7 * inv * inv;
  sum -= deriv / 1209600.0;
  return sum;
}

// Signed odd-derivative ladder used by the finite-range Euler–Maclaurin.
// Returns Σ_k B_{2k}/(2k)! [f^{(2k-1)}(hi) − f^{(2k-1)}(lo)] for
// f(x) = (x+a)^{-s}, truncated after B8.
double em_bernoulli_terms(double s, double a, double lo, double hi) {
  const double xl = lo + a, xh = hi + a;
  const double il = 1.0 / xl, ih = 1.0 / xh;
  double dl = -s * std::pow(xl, -s - 1.0);
  double dh = -s * std::pow(xh, -s - 1.0);
  double sum = (dh - dl) / 12.0;
  const double c1 = (s + 1.0) * (s + 2.0);
  dl *= c1 * il * il;
  dh *= c1 * ih * ih;
  sum -= (dh - dl) / 720.0;
  const double c2 = (s + 3.0) * (s + 4.0);
  dl *= c2 * il * il;
  dh *= c2 * ih * ih;
  sum += (dh - dl) / 30240.0;
  const double c3 = (s + 5.0) * (s + 6.0);
  dl *= c3 * il * il;
  dh *= c3 * ih * ih;
  sum -= (dh - dl) / 1209600.0;
  return sum;
}

// ∫_{lo}^{hi} (x+a)^{-s} dx, handling the logarithmic case s == 1.
double power_integral(double s, double a, double lo, double hi) {
  const double xl = lo + a, xh = hi + a;
  if (s == 1.0) return std::log(xh / xl);
  return (std::pow(xh, 1.0 - s) - std::pow(xl, 1.0 - s)) / (1.0 - s);
}

}  // namespace

void shifted_zeta_prefixes(double s, double q,
                           std::span<const std::uint64_t> upper,
                           std::span<double> out) {
  PALU_CHECK(q > -1.0, "shifted_zeta_prefixes: requires q > -1");
  PALU_CHECK(out.size() == upper.size(),
             "shifted_zeta_prefixes: one output per bound");
  // A bound hi is summed directly unless Euler–Maclaurin applies: d0 is
  // the first d with d + q >= kEmStart, and when hi - d0 >= kDirectMax the
  // terms from d0 to hi are closed by the integral, the end-point average
  // and the Bernoulli corrections.  One running direct sum serves every
  // bound: a direct bound reads it at hi, a closed bound starts from
  // `head`, its value at d0 - 1.
  constexpr double kEmStart = 48.0;
  constexpr std::uint64_t kDirectMax = 4096;
  std::uint64_t d0 = 1;
  while (static_cast<double>(d0) + q < kEmStart) ++d0;
  double sum = 0.0;   // Σ_{d'<d} (d'+q)^{-s}
  double head = 0.0;  // Σ_{d'<d0} (d'+q)^{-s}, once d has reached d0
  std::uint64_t d = 1;
  std::uint64_t prev = 1;
  for (std::size_t k = 0; k < upper.size(); ++k) {
    const std::uint64_t hi = upper[k];
    PALU_CHECK(hi >= prev, "shifted_zeta_prefixes: bounds must ascend from 1");
    prev = hi;
    const bool closed = d0 <= hi && hi - d0 >= kDirectMax;
    const std::uint64_t last = closed ? d0 - 1 : hi;
    for (; d <= last; ++d) {
      if (d == d0) head = sum;
      sum += std::pow(static_cast<double>(d) + q, -s);
    }
    if (d == d0) head = sum;
    if (!closed) {
      out[k] = sum;
      continue;
    }
    const double lo = static_cast<double>(d0);
    const double top = static_cast<double>(hi);
    double v = head;
    v += power_integral(s, q, lo, top);
    v += 0.5 * (std::pow(lo + q, -s) + std::pow(top + q, -s));
    v += em_bernoulli_terms(s, q, lo, top);
    out[k] = v;
  }
}

double hurwitz_zeta(double s, double q) {
  PALU_CHECK(s > 1.0, "hurwitz_zeta: requires s > 1");
  PALU_CHECK(q > 0.0, "hurwitz_zeta: requires q > 0");
  // Sum directly until n+q >= 48, then close with the infinite tail.
  double sum = 0.0;
  double x = q;
  while (x < 48.0) {
    sum += std::pow(x, -s);
    x += 1.0;
  }
  return sum + em_infinite_tail(s, x);
}

double riemann_zeta(double s) {
  PALU_CHECK(s > 1.0, "riemann_zeta: requires s > 1");
  return hurwitz_zeta(s, 1.0);
}

double truncated_zeta(double s, std::uint64_t dmax) {
  PALU_CHECK(dmax >= 1, "truncated_zeta: requires dmax >= 1");
  double sum = 0.0;
  shifted_zeta_prefixes(s, 0.0, {&dmax, 1}, {&sum, 1});
  return sum;
}

double shifted_truncated_zeta(double s, double q, std::uint64_t dmax) {
  PALU_CHECK(s > 0.0, "shifted_truncated_zeta: requires s > 0");
  PALU_CHECK(q > -1.0, "shifted_truncated_zeta: requires q > -1");
  PALU_CHECK(dmax >= 1, "shifted_truncated_zeta: requires dmax >= 1");
  double sum = 0.0;
  shifted_zeta_prefixes(s, q, {&dmax, 1}, {&sum, 1});
  return sum;
}

double zeta_tail(double s, std::uint64_t n0) {
  PALU_CHECK(s > 1.0, "zeta_tail: requires s > 1");
  PALU_CHECK(n0 >= 1, "zeta_tail: requires n0 >= 1");
  return hurwitz_zeta(s, static_cast<double>(n0));
}

}  // namespace palu::math
