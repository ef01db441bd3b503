// Deep accuracy tests for the math substrate: identity-based checks that
// need no memorized constants, plus a standard optimizer battery.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <numbers>
#include <span>
#include <vector>

#include "palu/common/error.hpp"
#include "palu/fit/brent.hpp"
#include "palu/fit/nelder_mead.hpp"
#include "palu/math/binmass.hpp"
#include "palu/math/gamma.hpp"
#include "palu/math/incomplete_gamma.hpp"
#include "palu/math/lambertw.hpp"
#include "palu/math/stable.hpp"
#include "palu/math/vexp.hpp"
#include "palu/math/zeta.hpp"
#include "palu/rng/xoshiro.hpp"
#include "palu/stats/log_binning.hpp"

namespace palu {
namespace {

// ------------------------------------------ profile-likelihood kernels

// The two normalizers the PALU profile likelihood evaluates at every
// (α, μ): e^μ − 1 − μ (zero-truncated star component) and ζ(α) − 1 (zeta
// core on d >= 2).  Both are checked on dense grids against long-double
// series that share no code with src/math.

// Σ_{k>=2} x^k/k! in long double, all terms positive for x > 0.
long double expm1_minus_x_reference(long double x) {
  long double term = x * x / 2.0L;
  long double sum = 0.0L;
  for (int k = 2; k < 1000; ++k) {
    sum += term;
    term *= x / static_cast<long double>(k + 1);
    if (static_cast<long double>(k) > x && term < 1e-30L * sum) break;
  }
  return sum;
}

// Σ_{n>=2} n^{-s} in long double: 254 direct terms summed smallest
// first, then the Euler–Maclaurin tail from n = 256 through the B10 term
// (its truncation error is below 1e-30 of the sum for s ∈ (1, 30]).
long double zeta_minus_one_reference(long double s) {
  constexpr long double kStart = 256.0L;
  const long double f = std::pow(kStart, -s);
  long double tail = kStart * f / (s - 1.0L) + 0.5L * f;
  // B_{2k}/(2k)! · (s)(s+1)…(s+2k−2) · kStart^{−s−2k+1}.
  const long double bernoulli[] = {1.0L / 6, -1.0L / 30, 1.0L / 42,
                                   -1.0L / 30, 5.0L / 66};
  long double rising = s;        // (s)(s+1)…(s+2k−2)
  long double power = f / kStart;  // kStart^{−s−2k+1}
  long double factorial = 2.0L;  // (2k)!
  for (int k = 1; k <= 5; ++k) {
    tail += bernoulli[k - 1] / factorial * rising * power;
    const auto m = static_cast<long double>(2 * k);
    rising *= (s + m - 1.0L) * (s + m);
    power /= kStart * kStart;
    factorial *= (m + 1.0L) * (m + 2.0L);
  }
  long double head = 0.0L;
  for (int n = 255; n >= 2; --n) {
    head += std::pow(static_cast<long double>(n), -s);
  }
  return head + tail;
}

TEST(ProfileKernels, Expm1MinusXWithinAFewUlp) {
  // The series branch used to stop at |x| = 1e-4, where expm1(x) − x
  // cancels: 8.8e-13 relative error at 1.01e-4, 1.3e-14 at 1e-2.
  double worst = 0.0;
  double worst_x = 0.0;
  for (int i = 0; i <= 4000; ++i) {
    const double x = 1e-8 * std::pow(4e9, i / 4000.0);  // [1e-8, 40]
    const long double ref = expm1_minus_x_reference(x);
    const double err = static_cast<double>(
        std::fabs((static_cast<long double>(math::expm1_minus_x(x)) - ref) /
                  ref));
    if (err > worst) {
      worst = err;
      worst_x = x;
    }
  }
  EXPECT_LE(worst, 4.0 * std::numeric_limits<double>::epsilon())
      << "x=" << worst_x;
}

TEST(ProfileKernels, HurwitzZetaAtTwoIsZetaMinusOne) {
  // ζ(α) − 1 as hurwitz_zeta(α, 2) keeps full relative precision; the
  // subtraction riemann_zeta(α) − 1 does not once ζ(α) ≈ 1 (relative
  // error ~6e-11 at α = 20, ~3e-8 at α = 30).
  double worst = 0.0;
  double worst_alpha = 0.0;
  double worst_subtracted = 0.0;
  for (int i = 0; i <= 300; ++i) {
    const double alpha =
        1.0 + 1e-3 * std::pow(29.0 / 1e-3, i / 300.0);  // [1.001, 30]
    const long double ref = zeta_minus_one_reference(alpha);
    const double err = static_cast<double>(std::fabs(
        (static_cast<long double>(math::hurwitz_zeta(alpha, 2.0)) - ref) /
        ref));
    if (err > worst) {
      worst = err;
      worst_alpha = alpha;
    }
    worst_subtracted = std::max(
        worst_subtracted,
        static_cast<double>(std::fabs(
            (static_cast<long double>(math::riemann_zeta(alpha) - 1.0) -
             ref) /
            ref)));
  }
  EXPECT_LE(worst, 1e-15) << "alpha=" << worst_alpha;
  EXPECT_GT(worst_subtracted, 1e3 * worst);
}

// ------------------------------------------------------ gamma identities

TEST(GammaIdentities, RecurrenceAcrossRandomArguments) {
  // ln Γ(x+1) = ln Γ(x) + ln x.
  Rng rng(1);
  for (int i = 0; i < 200; ++i) {
    const double x = 0.05 + 30.0 * rng.uniform();
    EXPECT_NEAR(math::log_gamma(x + 1.0),
                math::log_gamma(x) + std::log(x),
                1e-11 * (1.0 + std::abs(math::log_gamma(x))))
        << "x=" << x;
  }
}

TEST(GammaIdentities, LegendreDuplication) {
  // Γ(2x) = Γ(x)·Γ(x+1/2)·2^{2x−1}/√π, in log form.
  for (double x : {0.3, 0.75, 1.0, 2.5, 7.0, 19.5}) {
    const double lhs = math::log_gamma(2.0 * x);
    const double rhs = math::log_gamma(x) + math::log_gamma(x + 0.5) +
                       (2.0 * x - 1.0) * std::log(2.0) -
                       0.5 * std::log(std::numbers::pi);
    EXPECT_NEAR(lhs, rhs, 1e-10 * (1.0 + std::abs(lhs))) << "x=" << x;
  }
}

TEST(GammaIdentities, ReflectionAcrossSmallArguments) {
  // Γ(x)Γ(1−x) = π / sin(πx) for x ∈ (0, 1).
  for (double x : {0.05, 0.2, 0.35, 0.45}) {
    const double lhs = math::log_gamma(x) + math::log_gamma(1.0 - x);
    const double rhs =
        std::log(std::numbers::pi / std::sin(std::numbers::pi * x));
    EXPECT_NEAR(lhs, rhs, 1e-11) << "x=" << x;
  }
}

TEST(IncompleteGammaIdentities, RecurrenceInA) {
  // P(a+1, x) = P(a, x) − x^a e^{−x}/Γ(a+1).
  for (double a : {0.5, 1.0, 3.0, 8.0}) {
    for (double x : {0.2, 1.0, 4.0, 20.0}) {
      const double correction =
          std::exp(a * std::log(x) - x - math::log_gamma(a + 1.0));
      EXPECT_NEAR(math::regularized_gamma_p(a + 1.0, x),
                  math::regularized_gamma_p(a, x) - correction, 1e-12)
          << "a=" << a << " x=" << x;
    }
  }
}

TEST(IncompleteGammaIdentities, ChiSquareAdditivityViaConvolution) {
  // χ²₂ survival is exactly e^{−x/2}; χ²₄(x) relates by the Erlang form
  // Q(2, x/2) = e^{−x/2}(1 + x/2).
  for (double x : {0.5, 2.0, 7.0, 18.0}) {
    EXPECT_NEAR(math::chi_squared_survival(x, 2.0), std::exp(-0.5 * x),
                1e-12);
    EXPECT_NEAR(math::chi_squared_survival(x, 4.0),
                std::exp(-0.5 * x) * (1.0 + 0.5 * x), 1e-12);
  }
}

// ------------------------------------------------------ zeta identities

TEST(ZetaIdentities, EulerProductSpotCheck) {
  // ζ(s)·Π_{p ≤ 97} (1 − p^{−s}) ≈ 1 for s where the tail primes are
  // negligible (large s).
  const double s = 8.0;
  double prod = math::riemann_zeta(s);
  for (const int p :
       {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59,
        61, 67, 71, 73, 79, 83, 89, 97}) {
    prod *= 1.0 - std::pow(static_cast<double>(p), -s);
  }
  EXPECT_NEAR(prod, 1.0, 1e-10);
}

TEST(ZetaIdentities, DirichletEtaRelation) {
  // η(s) = Σ (−1)^{n−1} n^{−s} = (1 − 2^{1−s})·ζ(s).
  for (double s : {1.5, 2.0, 3.0, 5.0}) {
    double eta = 0.0;
    for (int n = 1; n < 500000; ++n) {
      eta += (n % 2 == 1 ? 1.0 : -1.0) * std::pow(n, -s);
    }
    EXPECT_NEAR(eta, (1.0 - std::pow(2.0, 1.0 - s)) *
                         math::riemann_zeta(s),
                1e-6)
        << "s=" << s;
  }
}

TEST(ZetaIdentities, HurwitzRationalSplitting) {
  // ζ(s, 1/2) + ζ(s, 1) = 2^s ζ(s)  (split over even/odd integers).
  for (double s : {1.4, 2.0, 3.3}) {
    EXPECT_NEAR(math::hurwitz_zeta(s, 0.5) + math::hurwitz_zeta(s, 1.0),
                std::pow(2.0, s) * math::riemann_zeta(s),
                1e-10 * std::pow(2.0, s) * math::riemann_zeta(s))
        << "s=" << s;
  }
}

// ------------------------------------------- truncated-sum prefix kernel

// Σ_{d=lo}^{hi} (d+a)^{-s} exactly as math/zeta.cpp summed one bound before
// the prefix kernel replaced it: the bit-for-bit reference for every prefix.
namespace one_bound {

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

double power_integral(double s, double a, double lo, double hi) {
  const double xl = lo + a, xh = hi + a;
  if (s == 1.0) return std::log(xh / xl);
  return (std::pow(xh, 1.0 - s) - std::pow(xl, 1.0 - s)) / (1.0 - s);
}

double power_sum_range(double s, double a, std::uint64_t lo,
                       std::uint64_t hi) {
  constexpr double kEmStart = 48.0;
  constexpr std::uint64_t kDirectMax = 4096;
  double sum = 0.0;
  std::uint64_t d = lo;
  while (d <= hi &&
         (static_cast<double>(d) + a < kEmStart || hi - d < kDirectMax)) {
    sum += std::pow(static_cast<double>(d) + a, -s);
    ++d;
  }
  if (d > hi) return sum;
  const double flo = std::pow(static_cast<double>(d) + a, -s);
  const double fhi = std::pow(static_cast<double>(hi) + a, -s);
  sum += power_integral(s, a, static_cast<double>(d),
                        static_cast<double>(hi));
  sum += 0.5 * (flo + fhi);
  sum += em_bernoulli_terms(s, a, static_cast<double>(d),
                            static_cast<double>(hi));
  return sum;
}

}  // namespace one_bound

// Upper edges min(2^i, dmax) of the log bins of 1..dmax.
std::vector<std::uint64_t> log_bin_uppers(std::uint64_t dmax) {
  std::vector<std::uint64_t> uppers;
  for (std::uint32_t i = 0; i <= stats::LogBinned::bin_index(dmax); ++i) {
    uppers.push_back(std::min(stats::LogBinned::bin_upper(i), dmax));
  }
  return uppers;
}

// Straddles the 4096-term crossover (d0 + 4096 is 4144 at q = 0, 4096 at
// q = 47, 4143 at q = 0.5) and both sides of d + q = 48.
constexpr std::uint64_t kPrefixDmax[] = {4,    306,  4095,   4096,   4097, 4143,
                                         4144, 4145, 8192, 100000, 1000000};
constexpr double kPrefixQ[] = {-0.999999, -0.5, 0.0, 0.5, 46.5, 47.0, 1000.0};
constexpr double kPrefixS[] = {0.3, 1.0, 2.2, 3.3};

TEST(ZetaPrefixKernel, EveryLogBinUpperMatchesTheOneBoundSumBitForBit) {
  std::size_t checked = 0;
  for (const std::uint64_t dmax : kPrefixDmax) {
    const auto uppers = log_bin_uppers(dmax);
    std::vector<double> prefix(uppers.size());
    for (const double q : kPrefixQ) {
      for (const double s : kPrefixS) {
        math::shifted_zeta_prefixes(s, q, uppers, prefix);
        for (std::size_t k = 0; k < uppers.size(); ++k) {
          const double want = one_bound::power_sum_range(s, q, 1, uppers[k]);
          ASSERT_EQ(std::bit_cast<std::uint64_t>(prefix[k]),
                    std::bit_cast<std::uint64_t>(want))
              << "dmax=" << dmax << " q=" << q << " s=" << s
              << " upper=" << uppers[k] << ": " << prefix[k] << " vs "
              << want;
          ASSERT_EQ(std::bit_cast<std::uint64_t>(
                        math::shifted_truncated_zeta(s, q, uppers[k])),
                    std::bit_cast<std::uint64_t>(want));
          if (q == 0.0) {
            ASSERT_EQ(std::bit_cast<std::uint64_t>(
                          math::truncated_zeta(s, uppers[k])),
                      std::bit_cast<std::uint64_t>(want));
          }
          ++checked;
        }
      }
    }
  }
  EXPECT_GT(checked, 2000u);
}

TEST(ZetaPrefixKernel, RepeatedAndUnevenBoundsReadOneRunningSum) {
  // Bounds on both sides of the crossover, repeated and out of bin order.
  const std::vector<std::uint64_t> uppers = {1,    1,    47,    48,   49,
                                             4143, 4144, 4144,  4145, 9000,
                                             9001, 20000, 20000};
  std::vector<double> prefix(uppers.size());
  for (const double q : kPrefixQ) {
    math::shifted_zeta_prefixes(1.7, q, uppers, prefix);
    for (std::size_t k = 0; k < uppers.size(); ++k) {
      EXPECT_EQ(std::bit_cast<std::uint64_t>(prefix[k]),
                std::bit_cast<std::uint64_t>(
                    one_bound::power_sum_range(1.7, q, 1, uppers[k])))
          << "q=" << q << " upper=" << uppers[k];
    }
  }
}

TEST(ZetaPrefixKernel, RejectsBadBounds) {
  std::vector<double> out(2);
  const std::vector<std::uint64_t> descending = {10, 9};
  const std::vector<std::uint64_t> zero = {0, 9};
  const std::vector<std::uint64_t> good = {1, 9};
  EXPECT_THROW(math::shifted_zeta_prefixes(2.0, 0.0, descending, out),
               InvalidArgument);
  EXPECT_THROW(math::shifted_zeta_prefixes(2.0, 0.0, zero, out),
               InvalidArgument);
  EXPECT_THROW(math::shifted_zeta_prefixes(2.0, -1.0, good, out),
               InvalidArgument);
  const std::span<double> short_out = std::span<double>(out).first(1);
  EXPECT_THROW(math::shifted_zeta_prefixes(2.0, 0.0, good, short_out),
               InvalidArgument);
  math::shifted_zeta_prefixes(2.0, 0.0, {}, std::span<double>{});
}

// Σ_{d=1}^{n} (d+q)^{-s} in long double at every n in `ns` (ascending),
// summed directly: shares no code or crossover with src/math.
std::vector<long double> direct_prefixes_ld(
    long double s, long double q, const std::vector<std::uint64_t>& ns) {
  std::vector<long double> out;
  long double sum = 0.0L;
  std::uint64_t d = 1;
  for (const std::uint64_t n : ns) {
    for (; d <= n; ++d) {
      sum += std::pow(static_cast<long double>(d) + q, -s);
    }
    out.push_back(sum);
  }
  return out;
}

// ζ(s, q) = Σ_{n>=0} (n+q)^{-s} in long double: 2000 direct terms, then
// the Euler–Maclaurin tail at x0 = 2000 + q through the B6 term (its
// truncation error is below 1e-25 of the sum on the grid below).
long double hurwitz_reference(long double s, long double q) {
  constexpr int kTerms = 2000;
  long double head = 0.0L;
  for (int n = kTerms - 1; n >= 0; --n) {
    head += std::pow(static_cast<long double>(n) + q, -s);
  }
  const long double x0 = kTerms + q;
  const long double f = std::pow(x0, -s);
  long double tail = x0 * f / (s - 1.0L) + 0.5L * f;
  tail += s * f / x0 / 12.0L;
  tail -= s * (s + 1) * (s + 2) * f / (x0 * x0 * x0) / 720.0L;
  tail += s * (s + 1) * (s + 2) * (s + 3) * (s + 4) * f /
          (x0 * x0 * x0 * x0 * x0) / 30240.0L;
  return head + tail;
}

TEST(ZetaCrossCheck, ShiftedTruncatedZetaMatchesLongDoubleDirectSums) {
  // Dense (s, q) grid; bounds on both sides of d + q = 48 and of the
  // 4096-term Euler–Maclaurin crossover.
  const std::vector<std::uint64_t> ns = {1,    2,    10,   47,   48,   49,
                                         300,  1024, 4095, 4096, 4143, 4144,
                                         4145, 4200, 8192};
  double worst = 0.0;
  for (int i = 0; i <= 16; ++i) {
    const double s = 0.2 + 0.3 * i;  // 0.2 .. 5.0
    for (const double q : {-0.999999, -0.9, -0.5, -0.1, 0.0, 0.05, 0.3, 0.5,
                           1.0, 2.5, 7.0, 20.0, 46.5, 47.0, 47.5, 60.0}) {
      const auto want =
          direct_prefixes_ld(static_cast<long double>(s),
                             static_cast<long double>(q), ns);
      for (std::size_t k = 0; k < ns.size(); ++k) {
        const double got = math::shifted_truncated_zeta(s, q, ns[k]);
        const double rel = static_cast<double>(
            std::fabs((static_cast<long double>(got) - want[k]) / want[k]));
        worst = std::max(worst, rel);
        EXPECT_LE(rel, 1e-13) << "s=" << s << " q=" << q << " n=" << ns[k];
      }
    }
  }
  char worst_text[32];
  std::snprintf(worst_text, sizeof worst_text, "%.3g", worst);
  RecordProperty("worst_relative_error", worst_text);
}

TEST(ZetaCrossCheck, HurwitzZetaMatchesLongDoubleReference) {
  double worst = 0.0;
  for (int i = 0; i <= 24; ++i) {
    const double s = 1.05 + 0.2 * i;  // 1.05 .. 5.85
    for (const double q : {0.001, 0.01, 0.1, 0.3, 0.5, 0.9, 1.0, 1.5, 2.75,
                           5.0, 10.0, 30.0, 47.0, 48.0, 49.5, 100.0, 1000.0}) {
      const long double want = hurwitz_reference(s, q);
      const double got = math::hurwitz_zeta(s, q);
      const double rel = static_cast<double>(
          std::fabs((static_cast<long double>(got) - want) / want));
      worst = std::max(worst, rel);
      EXPECT_LE(rel, 1e-13) << "s=" << s << " q=" << q;
    }
  }
  char worst_text[32];
  std::snprintf(worst_text, sizeof worst_text, "%.3g", worst);
  RecordProperty("worst_relative_error", worst_text);
}

// ------------------------------------------------ Lambert W cross-check

// W₀(x) in long double by bisection of the monotone w·e^w − x over a
// bracket that holds the root: [max(−1, e·x), x] for x < 0, [x/e, x] up
// to x = e, and [ln x − ln ln x, ln x] above.  Shares no code with
// src/math.  Near −1/e the residual's rounding (~1e-19) moves the root by
// about 1e-19·e / (W + 1), far inside the conditioning bound checked
// there.
long double lambert_w0_reference(double x) {
  const long double xl = x;
  long double lo, hi;
  if (x < 0) {
    lo = std::max(-1.0L, std::numbers::e_v<long double> * xl);
    hi = xl;
  } else if (xl <= std::numbers::e_v<long double>) {
    lo = xl / std::numbers::e_v<long double>;
    hi = xl;
  } else {
    hi = std::log(xl);
    lo = hi - std::log(hi);
  }
  for (;;) {
    const long double mid = lo + (hi - lo) / 2;
    if (mid <= lo || mid >= hi) return mid;
    (mid * std::exp(mid) < xl ? lo : hi) = mid;
  }
}

TEST(LambertWCrossCheck, MatchesLongDoubleReferenceOnADenseGrid) {
  // Four regimes of 25000 log-spaced points each — approaching −1/e (plus
  // the 64 doubles from the branch point up), small negative, small
  // positive, and large up to 1e308.  Near −1/e, W is ill-conditioned:
  // one ulp of x there moves W by about ulp(1/e)·√(2e) / (2√(x + 1/e)).
  // Where that is below 4 ε·|W| (x + 1/e above ~6e-3) the error must be
  // at most 4 ε relative; nearer the branch point, at most that one-ulp
  // change.  (At x + 1/e = 1e-4 one ulp of x still moves W by 6.5e-15,
  // and lambert_w0 errs by up to 3.9e-15 there.)
  constexpr double kEps = std::numeric_limits<double>::epsilon();
  constexpr int kPoints = 25000;
  const long double inv_e = std::exp(-1.0L);
  // The double nearest −1/e lies 1.2e-17 below it, outside the real
  // branch (lambert_w0 clamps it to −1); the doubles above it are in.
  const double branch = -std::exp(-1.0);
  const double ulp_branch = std::nextafter(-branch, 1.0) + branch;
  std::vector<double> xs;
  double x = branch;
  for (int i = 0; i < 64; ++i, x = std::nextafter(x, 0.0)) xs.push_back(x);
  for (int i = 0; i < kPoints; ++i) {
    const double f = static_cast<double>(i) / (kPoints - 1);
    xs.push_back(static_cast<double>(
        -inv_e + std::pow(10.0L, -17.0L + 16.0L * f)));
    xs.push_back(-std::pow(10.0, -300.0 + (300.0 + std::log10(0.36)) * f));
    xs.push_back(std::pow(10.0, -300.0 + 300.0 * f));
    xs.push_back(std::pow(10.0, 308.0 * f));
  }
  double worst_far = 0.0;   // relative error where the 4 ε gate applies
  double worst_near = 0.0;  // error over the one-ulp change elsewhere
  double worst_near_x = 0.0;
  for (const double xi : xs) {
    if (xi + inv_e < 0) continue;  // below the real branch
    const long double want = lambert_w0_reference(xi);
    const double got = math::lambert_w0(xi);
    const double err =
        static_cast<double>(std::fabs(static_cast<long double>(got) - want));
    const double magnitude = static_cast<double>(std::fabs(want));
    const double one_ulp = ulp_branch * std::sqrt(2 * std::numbers::e) /
                           (2 * std::sqrt(static_cast<double>(xi + inv_e)));
    if (one_ulp <= 4 * kEps * magnitude) {
      EXPECT_LE(err, 4 * kEps * magnitude) << "x=" << xi;
      worst_far = std::max(worst_far, err / magnitude);
      continue;
    }
    EXPECT_LE(err, one_ulp) << "x=" << xi;
    if (err / one_ulp > worst_near) {
      worst_near = err / one_ulp;
      worst_near_x = xi;
    }
  }
  char text[64];
  std::snprintf(text, sizeof text, "%.3g", worst_far);
  RecordProperty("worst_relative_error", text);
  std::snprintf(text, sizeof text, "%.3g of one ulp's change at x=%.17g",
                worst_near, worst_near_x);
  RecordProperty("worst_near_branch", text);
}

// --------------------------------------------------- optimizer battery

TEST(OptimizerBattery, BrentRootsOfTranscendentals) {
  // x = cos(x): Dottie number ≈ 0.7390851332151607.
  const double dottie = fit::brent_root(
      [](double x) { return x - std::cos(x); }, 0.0, 1.0);
  EXPECT_NEAR(dottie, 0.7390851332151607, 1e-10);
  // Lambert W(1): x·e^x = 1 at x ≈ 0.5671432904097838.
  const double omega = fit::brent_root(
      [](double x) { return x * std::exp(x) - 1.0; }, 0.0, 1.0);
  EXPECT_NEAR(omega, 0.5671432904097838, 1e-10);
}

TEST(OptimizerBattery, NelderMeadBooth) {
  const auto booth = [](const std::vector<double>& v) {
    const double a = v[0] + 2.0 * v[1] - 7.0;
    const double b = 2.0 * v[0] + v[1] - 5.0;
    return a * a + b * b;
  };
  const auto res = fit::nelder_mead(booth, {0.0, 0.0});
  EXPECT_NEAR(res.x[0], 1.0, 1e-5);
  EXPECT_NEAR(res.x[1], 3.0, 1e-5);
}

TEST(OptimizerBattery, NelderMeadBeale) {
  const auto beale = [](const std::vector<double>& v) {
    const double x = v[0], y = v[1];
    const double a = 1.5 - x + x * y;
    const double b = 2.25 - x + x * y * y;
    const double c = 2.625 - x + x * y * y * y;
    return a * a + b * b + c * c;
  };
  const auto res = fit::nelder_mead(beale, {1.0, 1.0});
  EXPECT_NEAR(res.x[0], 3.0, 1e-3);
  EXPECT_NEAR(res.x[1], 0.5, 1e-3);
}

TEST(OptimizerBattery, NelderMeadHimmelblauReachesAZero) {
  const auto himmelblau = [](const std::vector<double>& v) {
    const double x = v[0], y = v[1];
    const double a = x * x + y - 11.0;
    const double b = x + y * y - 7.0;
    return a * a + b * b;
  };
  // Four global minima, all with value 0; any is acceptable.
  const auto res = fit::nelder_mead(himmelblau, {0.0, 0.0});
  EXPECT_LT(res.value, 1e-8);
}

TEST(OptimizerBattery, BrentMinimizeZetaLikelihoodShape) {
  // The 1-D negative log-likelihood used by the power-law MLE is convex
  // in α; Brent must land on the stationary point where the derivative
  // flips sign.
  const double sum_log_d = 0.9;  // per-observation Σ ln d
  const auto nll = [&](double alpha) {
    return std::log(math::riemann_zeta(alpha)) + alpha * sum_log_d;
  };
  const double alpha_star = fit::brent_minimize(nll, 1.05, 20.0);
  const double h = 1e-5;
  EXPECT_LT(nll(alpha_star), nll(alpha_star + 10.0 * h));
  EXPECT_LT(nll(alpha_star), nll(alpha_star - 10.0 * h));
}

// -------------------------------------------------- vexp kernel budget

TEST(VexpKernels, ProbesStayWithinTheUlpBudget) {
  // The accuracy contract the expectation path relies on: the dense
  // libm-referenced probes must come in under the budget that gates the
  // kernels at runtime (today they measure ~2–3 ulp against budget 8;
  // regressions in the reduction constants or polynomials show up here
  // long before they would move a histogram).
  EXPECT_LE(math::vexp_probe_max_ulp(), math::kVexpUlpBudget);
  EXPECT_LE(math::vlog1p_probe_max_ulp(), math::kVexpUlpBudget);
  EXPECT_TRUE(math::vexp_kernel_active());
}

TEST(VexpKernels, MatchesLibmEdgeCases) {
  const std::vector<double> xs = {0.0,   -0.0, 1.0,   -1.0,  700.0,
                                  -700.0, 701.0, -745.0, 1e-300, 0.5};
  std::vector<double> out(xs.size());
  math::vexp(xs, out);
  for (std::size_t i = 0; i < xs.size(); ++i) {
    const double ref = std::exp(xs[i]);
    EXPECT_NEAR(out[i], ref, 4e-15 * std::abs(ref)) << "x=" << xs[i];
  }
  const std::vector<double> ys = {0.0,  -0.5, -1.0, 0.25,
                                  1e-18, -0.999999, 1e6, 3.0};
  std::vector<double> lout(ys.size());
  math::vlog1p(ys, lout);
  for (std::size_t i = 0; i < ys.size(); ++i) {
    const double ref = std::log1p(ys[i]);
    if (std::isinf(ref)) {
      EXPECT_EQ(lout[i], ref) << "y=" << ys[i];
    } else {
      EXPECT_NEAR(lout[i], ref, 4e-15 * (1.0 + std::abs(ref)))
          << "y=" << ys[i];
    }
  }
}

TEST(VexpKernels, AliasedSpansAreSupported) {
  std::vector<double> buf = {-0.25, 0.0, 0.5, 3.0};
  const std::vector<double> copy = buf;
  math::vlog1p(buf, buf);
  for (std::size_t i = 0; i < buf.size(); ++i) {
    EXPECT_DOUBLE_EQ(buf[i], std::log1p(copy[i]));
  }
}

// ------------------------------------------- binmass ladder cross-checks

TEST(BinMass, BinomialExactWalkMatchesSaddlepointLadder) {
  // Same distribution folded twice: once with thresholds that force the
  // exact pmf walk, once with the span limit at 0 so every boundary goes
  // through the Edgeworth/Lugannani–Rice ladder.  The ladder owes the
  // exact tier every bin to ~1e-5 absolute (documented per-entity budget
  // 1e-4, DESIGN.md §5i).
  math::BinMassOptions exact;
  exact.exact_span_limit = 1e18;
  math::BinMassOptions approx;
  approx.exact_span_limit = 0.0;
  // Only σ ≳ 6.4 cases: below that the ±40σ span fits the default
  // exact_span_limit, so the ladder never serves them in production and
  // owes them nothing.
  for (const double p : {2e-3, 5e-2, 0.5, 0.97}) {
    for (const std::uint64_t n :
         {std::uint64_t{50000}, std::uint64_t{1000000}}) {
      std::vector<double> be(64, 0.0), ba(64, 0.0);
      const double ve = math::binomial_log2_bins(n, p, be, exact);
      const double va = math::binomial_log2_bins(n, p, ba, approx);
      EXPECT_NEAR(ve, va, 1e-12) << "n=" << n << " p=" << p;
      for (std::size_t i = 0; i < 64; ++i) {
        EXPECT_NEAR(be[i], ba[i], 1e-4) << "n=" << n << " p=" << p
                                        << " bin=" << i;
      }
    }
  }
}

TEST(BinMass, ModeSeededWalkCoversNarrowHighMeanMarginals) {
  // Regression for the walk-seed underflow: n=2000, p=0.99 has μ=1980,
  // σ≈4.4, span 360 < 512 → exact tier, and lo≈1798 > 0.  Seeding the
  // ratio recurrence at the lo edge evaluates a pmf of ~e^{-800},
  // underflows to an exact 0, and the recurrence never recovers — every
  // bin got zero mass while the function still reported visibility 1.
  std::vector<double> bins(64, 0.0);
  const double visible = math::binomial_log2_bins(2000, 0.99, bins);
  EXPECT_NEAR(visible, 1.0, 1e-15);
  double total = 0.0;
  for (const double b : bins) total += b;
  EXPECT_NEAR(total, 1.0, 1e-12);
  EXPECT_NEAR(bins[11], 1.0, 1e-12);  // (1024, 2048] holds μ=1980
}

TEST(BinMass, PoissonBinomialDpMatchesSaddlepointLadder) {
  // Heterogeneous visibilities, DP vs moment-ladder fold of the same
  // vector (the DP is exact; the ladder carries the approximation).
  Rng rng(7);
  std::vector<double> probs(300);
  for (double& pi : probs) pi = 0.9 * rng.uniform() + 0.05;
  math::BinMassOptions dp;
  dp.pb_exact_max_terms = 400;
  math::BinMassOptions approx;
  approx.pb_exact_max_terms = 0;
  math::BinMassScratch scratch;
  std::vector<double> bd(64, 0.0), ba(64, 0.0);
  const double vd =
      math::poisson_binomial_log2_bins(probs, bd, scratch, dp);
  const double va =
      math::poisson_binomial_log2_bins(probs, ba, scratch, approx);
  EXPECT_NEAR(vd, va, 1e-12);
  for (std::size_t i = 0; i < 64; ++i) {
    EXPECT_NEAR(bd[i], ba[i], 1e-4) << "bin=" << i;
  }
  // CDF ladder vs the DP-summed CDF at the bin edges actually used.
  double cum = 0.0;
  std::vector<double> pmf(probs.size() + 1, 0.0);
  pmf[0] = 1.0;
  for (const double pi : probs) {
    for (std::size_t j = pmf.size() - 1; j-- > 0;) {
      pmf[j + 1] += pmf[j] * pi;
      pmf[j] *= 1.0 - pi;
    }
  }
  for (const double m : {64.0, 128.0, 160.0, 192.0, 256.0}) {
    cum = 0.0;
    for (std::size_t d = 0; d <= static_cast<std::size_t>(m); ++d) {
      cum += pmf[d];
    }
    EXPECT_NEAR(math::poisson_binomial_cdf_approx(probs, m), cum, 2e-4)
        << "m=" << m;
  }
}

TEST(BinMass, ExactTiersAndEdgeCases) {
  // Bin convention matches stats::LogBinned: bin 0 = {1}, bin i =
  // (2^{i−1}, 2^i].
  EXPECT_EQ(math::log2_bin_index(1, 64), 0u);
  EXPECT_EQ(math::log2_bin_index(2, 64), 1u);
  EXPECT_EQ(math::log2_bin_index(3, 64), 2u);
  EXPECT_EQ(math::log2_bin_index(4, 64), 2u);
  EXPECT_EQ(math::log2_bin_index(5, 64), 3u);
  EXPECT_EQ(math::log2_bin_index(1u << 20, 8), 7u);  // saturating top bin

  // Small binomial folded exactly: mass and visibility are closed-form.
  std::vector<double> bins(64, 0.0);
  const double visible = math::binomial_log2_bins(4, 0.5, bins);
  EXPECT_NEAR(visible, 1.0 - 0.0625, 1e-15);
  EXPECT_NEAR(bins[0], 0.25, 1e-15);            // P[X=1]
  EXPECT_NEAR(bins[1], 0.375, 1e-15);           // P[X=2]
  EXPECT_NEAR(bins[2], 0.25 + 0.0625, 1e-15);   // P[X∈{3,4}]

  // Degenerate cases.
  std::fill(bins.begin(), bins.end(), 0.0);
  EXPECT_EQ(math::binomial_log2_bins(0, 0.3, bins), 0.0);
  EXPECT_EQ(math::binomial_log2_bins(10, 0.0, bins), 0.0);
  EXPECT_EQ(math::binomial_log2_bins(8, 1.0, bins), 1.0);
  EXPECT_DOUBLE_EQ(bins[3], 1.0);  // point mass at 8
  math::BinMassScratch scratch;
  EXPECT_EQ(math::poisson_binomial_log2_bins({}, bins, scratch), 0.0);
}

}  // namespace
}  // namespace palu
