#include "palu/traffic/expected_window.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <span>

#include "palu/common/error.hpp"
#include "palu/common/failpoint.hpp"
#include "palu/math/binmass.hpp"
#include "palu/math/vexp.hpp"
#include "palu/parallel/parallel_for.hpp"

namespace palu::traffic {
namespace {

constexpr double kLogHalf = -0.69314718055994531;
constexpr double kInvSqrt2 = 0.70710678118654752440;
constexpr double kInvSqrt2Pi = 0.39894228040143267794;

constexpr std::size_t kBlock = ExpectedWindowEvaluator::kBlockSize;

std::size_t num_blocks(std::size_t n) { return (n + kBlock - 1) / kBlock; }

/// Calls body(b, entities) for every block b of [0, n) on `pool`; blocks
/// run concurrently, each exactly once.
template <typename Body>
void for_each_block(ThreadPool& pool, std::size_t n, Body&& body) {
  parallel_for(pool, 0, num_blocks(n), /*grain=*/1, [&](IndexRange blocks) {
    for (std::size_t b = blocks.begin; b < blocks.end; ++b) {
      body(b, IndexRange{b * kBlock, std::min(n, (b + 1) * kBlock)});
    }
  });
}

/// out[i] = 1 − (1 − q[i])^N as 1 − exp(N·log1p(−q[i])), through the
/// element-wise math::vexp kernels (so the block cut changes no bit).
/// q = 1 flows through exactly: log1p(−1) = −inf, exp(−inf) = 0, π = 1.
void visibility(std::span<const double> q, double nd, std::span<double> out) {
  for (std::size_t i = 0; i < q.size(); ++i) out[i] = -q[i];
  math::vlog1p(out, out);
  for (double& t : out) t *= nd;
  math::vexp(out, out);
  for (double& t : out) t = 1.0 - t;
}

/// out[k] = values[index[k]], block by block on `pool`.
void gather(ThreadPool& pool, const std::vector<double>& values,
            const std::vector<std::size_t>& index, std::vector<double>& out) {
  out.resize(index.size());
  for_each_block(pool, index.size(), [&](std::size_t, IndexRange r) {
    for (std::size_t k = r.begin; k < r.end; ++k) out[k] = values[index[k]];
  });
}

/// Σ_i 1 − (1 − masses[i])^N, summed within blocks on `pool` and across
/// blocks in block order.
double sum_visibility(ThreadPool& pool, std::span<const double> masses,
                      Count n_valid) {
  if (n_valid == 0) return 0.0;
  const double nd = static_cast<double>(n_valid);
  std::vector<double> partial(num_blocks(masses.size()), 0.0);
  for_each_block(pool, masses.size(), [&](std::size_t b, IndexRange r) {
    std::array<double, kBlock> pi{};
    const std::span<double> block(pi.data(), r.size());
    visibility(masses.subspan(r.begin, r.size()), nd, block);
    double sum = 0.0;
    for (const double x : block) sum += x;
    partial[b] = sum;
  });
  double sum = 0.0;
  for (const double s : partial) sum += s;
  return sum;
}

/// Continuity-corrected Edgeworth CDF from entity moments — the cheap
/// location model the median-of-max bisection evaluates O(K · log range)
/// times.  Mirrors the central tier of math::binmass; a hard support
/// bound `upper` clamps the right tail (a Binomial can never exceed N).
double moment_cdf(double m, double mu, double sigma, double gamma3,
                  double upper) {
  if (m >= upper) return 1.0;
  if (sigma <= 0.0) return m + 0.5 >= mu ? 1.0 : 0.0;
  const double z = (m + 0.5 - mu) / sigma;
  if (z <= -40.0) return 0.0;
  if (z >= 40.0) return 1.0;
  const double phi = 0.5 * std::erfc(-z * kInvSqrt2);
  const double pdf = kInvSqrt2Pi * std::exp(-0.5 * z * z);
  return std::clamp(phi - pdf * gamma3 * (z * z - 1.0) / 6.0, 0.0, 1.0);
}

/// An entity that could own the maximum, with the moments the
/// median-of-max search evaluates it by.
struct Candidate {
  double mu = 0.0;
  double sigma = 0.0;
  double gamma3 = 0.0;  // skewness, for the Edgeworth location search
  double upper = 0.0;   // hard support bound of the entity's value
  double score = 0.0;   // optimistic location μ + 8σ, the ranking key
};

Candidate make_candidate(double mu, double s2, double m3, double upper) {
  Candidate c;
  c.mu = mu;
  c.sigma = std::sqrt(std::max(0.0, s2));
  c.gamma3 = s2 > 0.0 ? m3 / (s2 * c.sigma) : 0.0;
  c.upper = upper;
  c.score = c.mu + 8.0 * c.sigma;
  return c;
}

/// The candidate of a Binomial(N, p) entity.
Candidate binomial_candidate(double nd, double p) {
  const double mu = nd * p;
  const double s2 = mu * (1.0 - p);
  return make_candidate(mu, s2, s2 * (1.0 - 2.0 * p), nd);
}

/// The `capacity` best-scoring candidates offered so far.  Once full, a
/// newcomer that scores strictly higher than the worst replaces the first
/// slot holding the minimal score — the slots and their order are those
/// of a plain scan per offer, but the worst slot is cached and rescanned
/// only after a replacement.
class TopCandidates {
 public:
  explicit TopCandidates(std::size_t capacity) : capacity_(capacity) {
    items_.reserve(capacity);
  }

  void offer(const Candidate& c) {
    if (items_.size() < capacity_) {
      items_.push_back(c);
      if (items_.size() == capacity_) find_worst();
      return;
    }
    if (c.score > items_[worst_].score) {
      items_[worst_] = c;
      find_worst();
    }
  }

  const std::vector<Candidate>& items() const noexcept { return items_; }

 private:
  void find_worst() {
    worst_ = 0;
    for (std::size_t i = 1; i < items_.size(); ++i) {
      if (items_[i].score < items_[worst_].score) worst_ = i;
    }
  }

  std::size_t capacity_;
  std::vector<Candidate> items_;
  std::size_t worst_ = 0;
};

/// Smallest integer m with P[max ≤ m] ≥ 1/2 under independence across the
/// candidates — the median of their maximum.
Degree median_of_max(const std::vector<Candidate>& cands) {
  if (cands.empty()) return 0;
  double upper = 0.0;
  for (const Candidate& c : cands) upper = std::max(upper, c.upper);
  const auto log_p_max_le = [&](double m) {
    double acc = 0.0;
    for (const Candidate& c : cands) {
      const double f = moment_cdf(m, c.mu, c.sigma, c.gamma3, c.upper);
      if (f <= 0.0) return -1e300;
      acc += std::log(f);
    }
    return acc;
  };
  Degree lo = 0;
  auto hi = static_cast<Degree>(std::min(upper, 1.8e19));
  while (lo < hi) {
    const Degree mid = lo + (hi - lo) / 2;
    if (log_p_max_le(static_cast<double>(mid)) >= kLogHalf) {
      hi = mid;
    } else {
      lo = mid + 1;
    }
  }
  return lo;
}

/// A block's share of an evaluation: expected entities per log₂ bin,
/// Σ P[value ≥ 1], and its top candidates.
struct Fold {
  Fold()
      : bins(stats::LogBinned::kMaxBins, 0.0),
        cands(ExpectedWindowEvaluator::kMaxCandidates) {}

  std::vector<double> bins;
  double visible = 0.0;
  TopCandidates cands;
};

/// Folds [0, n) on `pool`, fold_block(entities, fold) once per block into
/// that block's own Fold, then reduces the blocks in block order on the
/// calling thread.  Candidates pass on as they are: no moment is
/// recomputed.
template <typename FoldBlock>
Fold fold_blocks(ThreadPool& pool, std::size_t n, FoldBlock&& fold_block) {
  std::vector<Fold> blocks(num_blocks(n));
  for_each_block(pool, n, [&](std::size_t b, IndexRange r) {
    fold_block(r, blocks[b]);
  });
  Fold total;
  for (const Fold& f : blocks) {
    for (std::size_t i = 0; i < total.bins.size(); ++i) {
      total.bins[i] += f.bins[i];
    }
    total.visible += f.visible;
    for (const Candidate& c : f.cands.items()) total.cands.offer(c);
  }
  return total;
}

/// Binomial(N, p) entities, one per entry of `probs`.
Fold fold_binomial_entities(ThreadPool& pool, std::span<const double> probs,
                            Count n_valid) {
  const double nd = static_cast<double>(n_valid);
  return fold_blocks(pool, probs.size(), [&](IndexRange r, Fold& f) {
    for (std::size_t j = r.begin; j < r.end; ++j) {
      const double p = probs[j];
      if (p <= 0.0) continue;
      f.visible += math::binomial_log2_bins(n_valid, p, f.bins);
      f.cands.offer(binomial_candidate(nd, p));
    }
  });
}

/// Poisson-binomial entities, one per node: node n's terms are
/// pis[offsets[n] .. offsets[n + 1]).
Fold fold_pb_entities(ThreadPool& pool,
                      const std::vector<std::size_t>& offsets,
                      const std::vector<double>& pis) {
  return fold_blocks(
      pool, offsets.size() - 1, [&](IndexRange nodes, Fold& f) {
        math::BinMassScratch scratch;  // the block's own: never shared
        for (std::size_t n = nodes.begin; n < nodes.end; ++n) {
          const std::size_t b = offsets[n];
          const std::size_t e = offsets[n + 1];
          if (b == e) continue;
          const std::span<const double> entity(pis.data() + b, e - b);
          f.visible +=
              math::poisson_binomial_log2_bins(entity, f.bins, scratch);
          double mu = 0.0, s2 = 0.0, m3 = 0.0;
          for (const double pi : entity) {
            const double q = 1.0 - pi;
            mu += pi;
            s2 += pi * q;
            m3 += pi * q * (q - pi);
          }
          f.cands.offer(
              make_candidate(mu, s2, m3, static_cast<double>(e - b)));
        }
      });
}

void build_csr(const std::vector<NodeId>& keys, std::size_t num_nodes,
               std::vector<std::size_t>& offsets,
               std::vector<std::size_t>& items) {
  offsets.assign(num_nodes + 1, 0);
  for (const NodeId n : keys) ++offsets[n + 1];
  for (std::size_t n = 0; n < num_nodes; ++n) offsets[n + 1] += offsets[n];
  items.resize(keys.size());
  std::vector<std::size_t> cursor(offsets.begin(), offsets.end() - 1);
  for (std::size_t j = 0; j < keys.size(); ++j) items[cursor[keys[j]]++] = j;
}

}  // namespace

ExpectedWindowEvaluator::ExpectedWindowEvaluator(const PairSupport& support,
                                                 ThreadPool& pool)
    : pool_(pool), pair_weight_(support.weight) {
  PALU_CHECK(support.size() > 0,
             "ExpectedWindowEvaluator: empty pair support");
  const std::size_t npairs = support.size();
  NodeId max_id = 0;
  for (std::size_t i = 0; i < npairs; ++i) {
    max_id = std::max({max_id, support.u[i], support.v[i]});
  }
  const std::size_t num_nodes = static_cast<std::size_t>(max_id) + 1;

  // Directed links from the merged pair support, mirroring
  // next_window_counts exactly: a non-self pair splits its mass into the
  // forward (u → v) and backward (v → u) cells; a self pair is a single
  // (u, u) cell holding the whole pair weight.
  std::vector<NodeId> lsrc, ldst;
  link_q_.reserve(2 * npairs);
  lsrc.reserve(2 * npairs);
  ldst.reserve(2 * npairs);
  std::vector<NodeId> und_keys;  // endpoint incidences of non-self pairs
  std::vector<std::size_t> und_pair_of;
  for (std::size_t i = 0; i < npairs; ++i) {
    const NodeId u = support.u[i];
    const NodeId v = support.v[i];
    const double w = support.weight[i];
    if (u == v) {
      lsrc.push_back(u);
      ldst.push_back(u);
      link_q_.push_back(w);
      continue;
    }
    const double f = support.forward_prob[i];
    lsrc.push_back(u);
    ldst.push_back(v);
    link_q_.push_back(w * f);
    lsrc.push_back(v);
    ldst.push_back(u);
    link_q_.push_back(w * (1.0 - f));
    und_keys.push_back(u);
    und_pair_of.push_back(i);
    und_keys.push_back(v);
    und_pair_of.push_back(i);
  }

  node_src_mass_.assign(num_nodes, 0.0);
  node_dst_mass_.assign(num_nodes, 0.0);
  for (std::size_t j = 0; j < link_q_.size(); ++j) {
    node_src_mass_[lsrc[j]] += link_q_[j];
    node_dst_mass_[ldst[j]] += link_q_[j];
  }
  build_csr(lsrc, num_nodes, src_offsets_, src_links_);
  build_csr(ldst, num_nodes, dst_offsets_, dst_links_);
  build_csr(und_keys, num_nodes, und_offsets_, und_pairs_);
  // build_csr indexed into und_keys; translate to pair indices.
  for (std::size_t& j : und_pairs_) j = und_pair_of[j];
}

void ExpectedWindowEvaluator::prepare(Count n_valid) {
  PALU_FAILPOINT("theory.expected_window");
  n_valid_ = n_valid;
  prepared_ = true;
  aggregates_cached_ = false;
  link_pi_.resize(link_q_.size());
  pair_pi_.resize(pair_weight_.size());
  if (n_valid == 0) {
    // Answered before the batch: 0·log1p(−1) would be NaN.
    std::fill(link_pi_.begin(), link_pi_.end(), 0.0);
    std::fill(pair_pi_.begin(), pair_pi_.end(), 0.0);
  } else {
    const double nd = static_cast<double>(n_valid);
    const std::span<const double> link_q(link_q_);
    const std::span<double> link_pi(link_pi_);
    for_each_block(pool_, link_q.size(), [&](std::size_t, IndexRange r) {
      visibility(link_q.subspan(r.begin, r.size()), nd,
                 link_pi.subspan(r.begin, r.size()));
    });
    const std::span<const double> weight(pair_weight_);
    const std::span<double> pair_pi(pair_pi_);
    for_each_block(pool_, weight.size(), [&](std::size_t, IndexRange r) {
      visibility(weight.subspan(r.begin, r.size()), nd,
                 pair_pi.subspan(r.begin, r.size()));
    });
  }
  gather(pool_, link_pi_, src_links_, src_pi_);
  gather(pool_, link_pi_, dst_links_, dst_pi_);
  gather(pool_, pair_pi_, und_pairs_, und_pi_);
}

ExpectedWindow ExpectedWindowEvaluator::evaluate(Quantity q) {
  PALU_CHECK(prepared_,
             "ExpectedWindowEvaluator: prepare() must precede evaluate()");
  Fold fold;
  switch (q) {
    case Quantity::kSourcePackets:
      fold = fold_binomial_entities(pool_, node_src_mass_, n_valid_);
      break;
    case Quantity::kDestinationPackets:
      fold = fold_binomial_entities(pool_, node_dst_mass_, n_valid_);
      break;
    case Quantity::kLinkPackets:
      fold = fold_binomial_entities(pool_, link_q_, n_valid_);
      break;
    case Quantity::kSourceFanOut:
      fold = fold_pb_entities(pool_, src_offsets_, src_pi_);
      break;
    case Quantity::kDestinationFanIn:
      fold = fold_pb_entities(pool_, dst_offsets_, dst_pi_);
      break;
    case Quantity::kUndirectedDegree:
      fold = fold_pb_entities(pool_, und_offsets_, und_pi_);
      break;
  }
  ExpectedWindow out;
  auto& bc = out.bin_counts;
  bc = std::move(fold.bins);
  std::size_t used = bc.size();
  while (used > 0 && bc[used - 1] <= 0.0) --used;
  bc.resize(used);
  // Normalize over the folded mass itself (not visible_entities): the
  // visibility sum is exact while the folded bins carry the ladder's
  // per-entity budget, and the pooled mass must stay a unit distribution.
  double folded = 0.0;
  for (std::size_t i = 0; i < used; ++i) folded += bc[i];
  std::vector<double> mass(used, 0.0);
  if (folded > 0.0) {
    for (std::size_t i = 0; i < used; ++i) mass[i] = bc[i] / folded;
  }
  out.mass = stats::LogBinned(std::move(mass));
  out.visible_entities = fold.visible;
  out.max_value = median_of_max(fold.cands.items());
  out.aggregates = aggregates();
  return out;
}

ExpectedAggregates ExpectedWindowEvaluator::aggregates() {
  PALU_CHECK(prepared_,
             "ExpectedWindowEvaluator: prepare() must precede aggregates()");
  if (aggregates_cached_) return aggregates_cache_;
  ExpectedAggregates a;
  a.valid_packets = static_cast<double>(n_valid_);
  // One pass over the links gives Σ π_j and the max-link candidates.
  const Fold links =
      fold_blocks(pool_, link_q_.size(), [&](IndexRange r, Fold& f) {
        for (std::size_t j = r.begin; j < r.end; ++j) {
          f.visible += link_pi_[j];
          if (link_q_[j] > 0.0) {
            f.cands.offer(binomial_candidate(a.valid_packets, link_q_[j]));
          }
        }
      });
  a.unique_links = links.visible;
  a.unique_sources = sum_visibility(pool_, node_src_mass_, n_valid_);
  a.unique_destinations = sum_visibility(pool_, node_dst_mass_, n_valid_);
  a.max_link_packets = static_cast<double>(median_of_max(links.cands.items()));
  aggregates_cache_ = a;
  aggregates_cached_ = true;
  return a;
}

}  // namespace palu::traffic
