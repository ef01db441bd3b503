// Synthetic packet streams (the substitution for WIDE/CAIDA captures).
//
// The paper's pipeline consumes fixed-size windows of N_V valid packets cut
// from a trunk capture.  We replay that collection process against a known
// underlying network: each edge gets a long-term traffic rate, packets are
// drawn rate-proportionally, and windows of exactly N_V packets are
// aggregated into A_t.  Because a window sees an edge only if at least one
// of its packets lands inside, growing N_V raises the PALU window
// parameter p exactly as Section III describes.
//
// Windows randomly sample one fixed network, so the tables they draw from
// — normalized rates, the alias sampler, the merged pair support and its
// Multinomial sampler — belong to the network, not to a window or a
// worker.  A generator holds them immutably and shares them with its
// copies; each copy owns only its RNG and counts scratch (DESIGN.md §5e).
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "palu/common/types.hpp"
#include "palu/graph/graph.hpp"
#include "palu/rng/distributions.hpp"
#include "palu/rng/xoshiro.hpp"
#include "palu/traffic/packet.hpp"
#include "palu/traffic/sparse_matrix.hpp"

namespace palu::traffic {

/// How per-edge long-term traffic rates are assigned.
struct RateModel {
  enum class Kind {
    kUniform,   // all edges equally chatty
    kPareto,    // heavy-tailed rates: rate = (1/u)^{1/tail}
    kDegreeProduct,  // rate ∝ (deg u · deg v): busy hosts chat more
  };
  Kind kind = Kind::kPareto;
  double pareto_tail = 1.5;  // smaller = heavier tail
};

/// Draws one long-term rate per edge of `g` according to `model`
/// (unnormalized; the generator normalizes).  Splitting rate assignment
/// from packet drawing lets many windows share one traffic matrix while
/// using independent packet RNG streams.
std::vector<double> make_edge_rates(const graph::Graph& g,
                                    const RateModel& model, Rng rng);

/// The merged unordered-pair support the count-space and expectation
/// paths share: parallel edges and both orientations collapsed into one
/// entry per pair (first-seen order, canonical orientation = the first-
/// seen stored one), weights normalized (Σ weight = 1), and the pair's
/// exact forward (u → v) mixture probability.  A property of the network
/// and its rates, not of any window: built once and shared read-only.
struct PairSupport {
  std::vector<NodeId> u;
  std::vector<NodeId> v;
  std::vector<double> weight;
  std::vector<double> forward_prob;

  std::size_t size() const noexcept { return u.size(); }
};

/// Builds the pair support of `underlying` under per-edge `rates` (one
/// per edge, non-negative with positive sum, normalized here exactly as
/// the generator normalizes them) — the same table
/// SyntheticTrafficGenerator::pair_support() returns for those rates at
/// the default forward_prob of 0.5, without building a generator or any
/// sampler.
PairSupport make_pair_support(const graph::Graph& underlying,
                              std::vector<double> rates);

/// A packet stream over one network.  The network's tables — edges,
/// normalized rates, the alias sampler and, once something asks for them,
/// the pair support and its Multinomial sampler — are immutable and held
/// by shared pointer; an instance owns only its draw state (the RNG and
/// the counts scratch).  A copy shares every table its source has built
/// so far, so a sweep builds them once and hands each worker a copy.
/// Const methods are safe to call concurrently.  A moved-from generator
/// holds no tables: expected_edge_visibility throws on it, and it may
/// otherwise only be assigned to or destroyed.
class SyntheticTrafficGenerator {
 public:
  /// Builds a generator over `underlying`'s edges.  The graph must have at
  /// least one edge.  Packets are emitted in the stored edge direction with
  /// probability `forward_prob` (0.5 = symmetric conversations).
  SyntheticTrafficGenerator(const graph::Graph& underlying,
                            const RateModel& rates, Rng rng,
                            double forward_prob = 0.5);

  /// Same, with precomputed per-edge rates (one per edge, non-negative
  /// with positive sum); `rng` drives packet draws only.  Builds the alias
  /// sampler but not the pair support.
  SyntheticTrafficGenerator(const graph::Graph& underlying,
                            std::vector<double> rates, Rng rng,
                            double forward_prob = 0.5);

  /// Next valid packet in the stream.
  Packet next();

  /// Fills `out` with the next out.size() valid packets.  Identical RNG
  /// consumption order to calling next() repeatedly — streams stay
  /// byte-for-byte reproducible — but batched so the sweep fast path
  /// amortizes call overhead and keeps the alias tables hot.
  void next_batch(std::span<Packet> out);

  /// Replaces the packet RNG without touching the tables.  The stream
  /// then matches a freshly constructed generator handed the same rng —
  /// the sweep's way of reusing one copy across windows with independent
  /// per-window streams.
  void reseed(Rng rng) noexcept { rng_ = rng; }

  /// Count-space window synthesis: one whole window of `n_valid` packets
  /// drawn directly as per-pair packet counts, replacing n_valid
  /// individual draws with O(num_edges) work — the cost is (near-)
  /// independent of the window size, which is what makes the paper's
  /// p → 1 regime (N_V up to 1e8) sweepable.
  ///
  /// Exactness: under iid rate-proportional draws the per-edge counts of
  /// a window are exactly Multinomial(n_valid, rates), and each edge's
  /// direction split is Binomial(count, forward_prob).  Edges sharing an
  /// unordered endpoint pair (parallel edges, both orientations) are
  /// merged into one support pair with summed weight and the exact
  /// per-pair forward probability, so `out` never repeats a pair.
  ///
  /// `out` is resized to the full merged-pair support, in a fixed
  /// deterministic order, with forward == backward == 0 rows for pairs
  /// that drew no packets; repeated calls reuse its capacity.  Emitting
  /// the whole support keeps every per-window pass (here and in the
  /// consumers) at a size that depends only on the graph, so per-window
  /// cost stays flat as N_V grows instead of tracking the active-pair
  /// count.  Consumes the same RNG as next()/next_batch() but in a
  /// different order: a counts window is distributionally equivalent to
  /// a packet window for the same seed, not byte-identical.  Builds the
  /// counts tables on first use unless pair_support() already has.
  void next_window_counts(Count n_valid, std::vector<EdgePacketCounts>& out);

  /// The merged-pair support in its fixed deterministic order — the
  /// table next_window_counts samples from.  The first call on a
  /// generator (or on the source it was copied from) builds the counts
  /// tables: this support (make_pair_support's merge) and its
  /// Multinomial sampler; copies made afterwards share them.  This is
  /// what the analytic expectation path (traffic/expected_window.hpp)
  /// evaluates: per-pair visibilities 1 − (1 − weight)^{N_V} follow
  /// directly from the returned weights.
  const PairSupport& pair_support();

  /// Aggregates the next `n_valid` packets into a window matrix A_t.
  SparseCountMatrix window(Count n_valid);

  /// Aggregates `count` consecutive windows of `n_valid` packets each.
  std::vector<SparseCountMatrix> windows(Count n_valid, std::size_t count);

  std::size_t num_edges() const noexcept { return network_->edges.size(); }

  /// Per-edge rates normalized to sum 1 (compensated summation, so the
  /// heavy-tailed Pareto vectors of the default RateModel keep their
  /// small rates' mass), in edge order.
  const std::vector<double>& rates() const noexcept {
    return network_->rates;
  }

  /// Probability that a specific edge receives >= 1 packet in a window of
  /// n_valid packets: 1 − (1 − rate_e)^{n_valid}.  Averaged over edges this
  /// is the effective PALU window parameter p for the window size: one
  /// O(E) log1p/expm1 pass per call.  Throws palu::InvalidArgument on a
  /// moved-from generator (it holds no tables); a rate of exactly 1 (one
  /// edge holding all mass) and n_valid == 0 are handled exactly instead
  /// of producing NaN.
  double expected_edge_visibility(Count n_valid) const;

 private:
  /// The network's packet-space tables, built by the constructor.
  struct Network {
    std::vector<graph::Edge> edges;
    std::vector<double> rates;  // normalized to sum 1
    rng::AliasSampler sampler;  // over rates
    double forward_prob;
  };

  std::shared_ptr<const Network> network_;
  // The count-space tables, built together on the first pair_support()
  // or next_window_counts call; packet-space users never pay for them.
  std::shared_ptr<const PairSupport> pairs_;
  std::shared_ptr<const rng::MultinomialSampler> pair_sampler_;
  Rng rng_;
  std::vector<Count> counts_;  // scratch: one Multinomial draw
};

}  // namespace palu::traffic
