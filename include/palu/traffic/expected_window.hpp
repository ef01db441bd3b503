// Closed-form expected windows (ROADMAP item 3, DESIGN.md §5i).
//
// Under iid rate-proportional draws a window of N_V packets is an exact
// Multinomial over the merged pair support, so the expected log-binned
// histogram of every paper quantity — and the Table-I aggregates — are
// deterministic functionals of the rate vector:
//
//   * packet-count quantities (source / link / destination packets): the
//     entity's count is Binomial(N_V, p) with p its summed rate mass;
//   * link-count quantities (fan-out / fan-in / undirected degree): the
//     entity's count is Σ_j 1[link j visible], a Poisson-binomial over the
//     per-link visibilities π_j = 1 − (1 − q_j)^{N_V}.  The indicators are
//     negatively correlated under the multinomial (O(q_i·q_j)); treating
//     them as independent is the one modelling approximation of the path.
//
// Expected bin occupancies fold through math::binmass (exact DP / pmf walk
// below size thresholds, Edgeworth-corrected normal + Lugannani–Rice
// saddlepoint above), the per-link exp/log1p batches run through
// math::vexp, and everything is O(E + V) per window size with no RNG —
// one deterministic evaluation replaces a whole sampled ensemble.
//
// The evaluator is split into its constructor (directed-link tables from
// the network's PairSupport — part of the set-up stage), prepare(N_V)
// (per-window-size visibility vectors — the analytic analogue of the
// sampling stage) and evaluate(quantity) (marginal folding + reduction)
// so the sweep's stage clock can attribute time without this file
// touching clocks.
//
// Both run on a ThreadPool.  Every pass — the visibility batches and
// gathers of prepare(), the entity folds of evaluate(), the sums and the
// link-candidate scan of aggregates() — cuts its entities into blocks of
// a fixed size that depends on the entity count alone.  Each block folds
// into its own bins, visibility sum and top candidates; the calling
// thread reduces the blocks in block order.  The result is therefore
// bit-identical at every pool size (it differs from a one-entity-at-a-
// time fold only in summation order).
#pragma once

#include <cstdint>
#include <vector>

#include "palu/common/types.hpp"
#include "palu/parallel/thread_pool.hpp"
#include "palu/stats/log_binning.hpp"
#include "palu/traffic/quantities.hpp"
#include "palu/traffic/stream.hpp"

namespace palu::traffic {

/// Expected Table-I aggregates for one window size (real-valued: these are
/// means of integer statistics; max_link_packets is the *median* of the
/// max under link independence — a location estimate, not a mean).
struct ExpectedAggregates {
  double valid_packets = 0.0;
  double unique_links = 0.0;
  double unique_sources = 0.0;
  double unique_destinations = 0.0;
  double max_link_packets = 0.0;
};

/// One analytic window evaluation for a (quantity, N_V) pair.
struct ExpectedWindow {
  /// Expected pooled distribution: bin_counts renormalized to unit mass
  /// (Σ bin_counts matches visible_entities only to the folding ladder's
  /// budget; the exact visibility lives in visible_entities) with
  /// trailing zero bins trimmed — directly comparable to the per-window
  /// LogBinned of the sampled paths.
  stats::LogBinned mass;
  /// Expected number of entities per log₂ bin (unnormalized).
  std::vector<double> bin_counts;
  /// Σ_entities P[value ≥ 1] — the expected entity population.
  double visible_entities = 0.0;
  /// Median of the maximum entity value under independence across
  /// entities; the analytic stand-in for the sampled d_max (top-candidate
  /// search, accurate to ~a bin edge — see DESIGN.md §5i).
  Degree max_value = 0;
  ExpectedAggregates aggregates;
};

/// Evaluates expected windows over one network's pair support.  The
/// constructor builds its directed-link tables from the support and keeps
/// a copy of the pair weights, so the support need not outlive it.  Node
/// ids are assumed compact (dense O(max id) node arrays, true for
/// graph::Graph vertices).
///
/// prepare(), evaluate() and aggregates() fold on `pool`, which must
/// outlive the evaluator, and block until their blocks finish.  Never call
/// them from inside a task running on that same pool: the caller would
/// wait on tasks queued behind its own, and once every worker waits that
/// way the pool deadlocks.
class ExpectedWindowEvaluator {
 public:
  /// Entities (links, pairs, nodes or CSR slots) per block of every pooled
  /// pass.  Results depend on this cut, never on the pool size.
  static constexpr std::size_t kBlockSize = 2048;
  /// Entities tracked for the median-of-max searches.
  static constexpr std::size_t kMaxCandidates = 16;

  explicit ExpectedWindowEvaluator(const PairSupport& support,
                                   ThreadPool& pool = ThreadPool::global());

  /// Computes the per-link / per-pair visibility vectors for a window
  /// size (batched vexp/vlog1p blocks, arming the
  /// `theory.expected_window` failpoint).  Must be called before
  /// evaluate()/aggregates(); repeated calls switch window sizes.
  void prepare(Count n_valid);

  /// Expected histogram + aggregates of `q` for the prepared window size.
  ExpectedWindow evaluate(Quantity q);

  /// Expected Table-I aggregates alone for the prepared window size.
  ExpectedAggregates aggregates();

  std::size_t num_pairs() const noexcept { return pair_weight_.size(); }
  std::size_t num_links() const noexcept { return link_q_.size(); }

 private:
  ThreadPool& pool_;

  // Directed-link structure (built once): per-pair and per-link rate mass
  // and CSR groupings by source node, destination node, and (for
  // undirected degree) by endpoint over non-self pairs.
  std::vector<double> pair_weight_;     // the support's pair weights
  std::vector<double> link_q_;          // per directed link
  std::vector<double> node_src_mass_;   // Σ out-link q per node
  std::vector<double> node_dst_mass_;   // Σ in-link q per node
  std::vector<std::size_t> src_offsets_, src_links_;   // CSR node → links
  std::vector<std::size_t> dst_offsets_, dst_links_;   // CSR node → links
  std::vector<std::size_t> und_offsets_, und_pairs_;   // CSR node → pairs

  // Per-prepared-window-size state.
  Count n_valid_ = 0;
  bool prepared_ = false;
  bool aggregates_cached_ = false;
  ExpectedAggregates aggregates_cache_;
  std::vector<double> link_pi_;   // 1 − (1 − link_q)^{N_V}
  std::vector<double> pair_pi_;   // 1 − (1 − weight)^{N_V}
  std::vector<double> und_pi_;    // pair_pi_ gathered in und_pairs_ order
  std::vector<double> src_pi_;    // link_pi_ gathered in src_links_ order
  std::vector<double> dst_pi_;    // link_pi_ gathered in dst_links_ order
};

}  // namespace palu::traffic
