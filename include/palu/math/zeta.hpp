// Zeta-family special functions needed by power-law models.
//
// The paper normalizes the preferential-attachment core degree law by the
// Riemann zeta function ζ(α) (Section IV) and the modified Zipf–Mandelbrot
// model by truncated Hurwitz-style sums Σ_{d=1}^{dmax} (d+δ)^{-α}
// (Section II-B).  All functions here are evaluated with Euler–Maclaurin
// tail corrections and are accurate to ~1e-12 over the parameter ranges the
// models use (α ∈ [1.01, 64], δ ≥ 0).
#pragma once

#include <cstdint>
#include <span>

namespace palu::math {

/// Riemann zeta ζ(s) = Σ_{n≥1} n^{-s}, for s > 1.
/// Throws palu::InvalidArgument for s <= 1 (the series diverges).
double riemann_zeta(double s);

/// Hurwitz zeta ζ(s, q) = Σ_{n≥0} (n+q)^{-s}, for s > 1, q > 0.
double hurwitz_zeta(double s, double q);

/// The one truncated-sum kernel: out[k] = Σ_{d=1}^{upper[k]} (d+q)^{-s}
/// for non-decreasing bounds upper[0] >= 1, in one pass.  Terms are summed
/// directly in ascending d.  Let d0 be the first d with d + q >= 48; a
/// bound with upper[k] - d0 >= 4096 instead closes the terms from d0 on by
/// Euler–Maclaurin (integral, end-point average, Bernoulli terms through
/// B8) added to the direct sum up to d0 - 1.  One running sum serves every
/// bound, so each out[k] has the bits of a one-bound call at upper[k]
/// (`shifted_truncated_zeta` and `truncated_zeta` are those calls), and
/// the pooled Zipf–Mandelbrot model gets every bin edge and its
/// normalizer from one call.  Allocates nothing.  Requires q > -1 and
/// out.size() == upper.size(); throws palu::InvalidArgument otherwise or
/// when the bounds descend.
void shifted_zeta_prefixes(double s, double q,
                           std::span<const std::uint64_t> upper,
                           std::span<double> out);

/// Truncated zeta Σ_{d=1}^{dmax} d^{-s}; the generalized harmonic number
/// H(dmax, s).  Valid for any real s when dmax is finite.
double truncated_zeta(double s, std::uint64_t dmax);

/// Σ_{d=1}^{dmax} (d+q)^{-s}: the normalizer of the modified Zipf–Mandelbrot
/// model with offset q = δ.  Requires s > 0, q > -1, dmax >= 1.  One bound
/// of shifted_zeta_prefixes.
double shifted_truncated_zeta(double s, double q, std::uint64_t dmax);

/// Tail sum Σ_{n≥n0} n^{-s} = ζ(s, n0), convenience wrapper (s > 1, n0 ≥ 1).
double zeta_tail(double s, std::uint64_t n0);

}  // namespace palu::math
