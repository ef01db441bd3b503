// Folding count-variable marginals into the paper's log₂ bins.
//
// The expectation sweep path needs, per entity (node or directed link), the
// probability mass its window-count variable X places in each logarithmic
// bin: bin 0 = {1}, bin i = (2^{i−1}, 2^i], the same convention as
// stats::LogBinned (the top bin saturates).  Two families cover all six
// paper quantities:
//
//   * X ~ Binomial(N_V, p)  — packet counts of a source / link / destination;
//   * X ~ PoissonBinomial(π₁…π_k) — fan-out / fan-in / undirected degree,
//     where π_j = 1 − (1−q_j)^{N_V} is link j's visibility and the link
//     indicators are treated as independent (exact under multinomial
//     sampling up to O(q_i·q_j) negative correlation; see DESIGN.md §5i).
//
// The evaluation ladder, in decreasing exactness:
//
//   1. exact  — Poisson-binomial DP (O(k²)) below pb_exact_max_terms, and a
//      ratio-recurrence binomial pmf walk when the ±40σ support span fits
//      exact_span_limit;
//   2. normal — continuity-corrected, third-moment (Edgeworth) corrected
//      Φ((m+½−μ)/σ) for central bin boundaries (|z| ≤ normal_z_max);
//   3. saddlepoint — lattice Lugannani–Rice for tail boundaries (closed-form
//      saddle for the binomial, Newton on K'(t)=x for the Poisson-binomial);
//      boundaries beyond tail_z_cut·σ clamp to 0/1.
//
// P[X = 0] — the entity-visibility complement — is always computed exactly
// (−expm1(Σ log1p(−π)) / −expm1(N·log1p(−p))), never from an approximation.
// All bin masses are *added* into the caller's accumulator so one pass over
// entities produces the expected histogram directly.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

namespace palu::math {

/// Approximation thresholds of the evaluation ladder.  Defaults keep every
/// path O(1)-bounded per entity (after the exact tiers) so the expected
/// sweep stays O(E) per window size.
struct BinMassOptions {
  /// Poisson-binomial exact DP when the term count is at most this.
  std::size_t pb_exact_max_terms = 128;
  /// Binomial exact pmf walk when the ±40σ support span fits below this.
  double exact_span_limit = 512.0;
  /// |z| at or below this uses the corrected normal; above, Lugannani–Rice.
  double normal_z_max = 2.0;
  /// Bin boundaries beyond this many σ contribute no mass (clamped 0/1).
  double tail_z_cut = 40.0;
};

/// Reusable scratch (Poisson-binomial DP pmf) so per-entity folds do not
/// allocate; a default-constructed instance is valid.
struct BinMassScratch {
  std::vector<double> pmf;
};

/// Returns the largest index a value d ≥ 1 can fold into given nbins bins
/// (the saturating top bin), i.e. min(bit_width(d−1), nbins−1).
std::size_t log2_bin_index(std::uint64_t d, std::size_t nbins);

/// Adds P[X ∈ bin_i] of X ~ Binomial(n, p) into bins[i] for every bin and
/// returns the visibility P[X ≥ 1].  Requires p ∈ [0, 1] and
/// bins.size() ≥ 1.
double binomial_log2_bins(std::uint64_t n, double p, std::span<double> bins,
                          const BinMassOptions& opts = {});

/// Adds P[X ∈ bin_i] of X ~ PoissonBinomial(probs) into bins[i] and returns
/// P[X ≥ 1].  Requires every probs[j] ∈ [0, 1] and bins.size() ≥ 1.
double poisson_binomial_log2_bins(std::span<const double> probs,
                                  std::span<double> bins,
                                  BinMassScratch& scratch,
                                  const BinMassOptions& opts = {});

/// P[X ≤ m] for X ~ PoissonBinomial(probs) through the normal/saddlepoint
/// ladder alone (no exact tier); exposed for the DP-vs-saddlepoint
/// cross-check tests.
double poisson_binomial_cdf_approx(std::span<const double> probs, double m,
                                   const BinMassOptions& opts = {});

}  // namespace palu::math
