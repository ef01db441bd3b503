#include "palu/traffic/stream.hpp"

#include <bit>
#include <cmath>
#include <unordered_map>
#include <utility>

#include "palu/common/error.hpp"
#include "palu/common/failpoint.hpp"

namespace palu::traffic {

namespace {

/// Neumaier (Kahan–Babuška) compensated sum: a naive `total += r` over a
/// heavy-tailed Pareto rate vector silently drops the small rates' mass
/// once one giant rate dominates the accumulator, which skews every
/// normalized rate.  The running compensation keeps the error at one ulp
/// of the true sum regardless of ordering or dynamic range.
double compensated_sum(const std::vector<double>& values) {
  double sum = 0.0;
  double compensation = 0.0;
  for (const double v : values) {
    const double t = sum + v;
    if (std::abs(sum) >= std::abs(v)) {
      compensation += (sum - t) + v;
    } else {
      compensation += (v - t) + sum;
    }
    sum = t;
  }
  return sum + compensation;
}

/// Binomial(n, 1/2) for n <= 64: one RNG word, n coin flips by popcount.
/// Exact, and an order of magnitude cheaper than waiting-time inversion
/// for the small per-pair counts that dominate a count-space window.
std::uint64_t binomial_half_small(Rng& rng, std::uint64_t n) {
  const std::uint64_t mask =
      n == 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << n) - 1;
  return static_cast<std::uint64_t>(std::popcount(rng() & mask));
}

/// Binomial(n, 1/2) by whole-word popcounts, cheaper than a rejection
/// draw up to a few thousand trials.  Beyond kPopcountCap the O(n/64)
/// word loop loses to BTRS's O(1).
constexpr std::uint64_t kPopcountCap = 2048;

std::uint64_t binomial_half(Rng& rng, std::uint64_t n) {
  std::uint64_t k = 0;
  while (n > 64) {
    k += static_cast<std::uint64_t>(std::popcount(rng()));
    n -= 64;
  }
  return k + binomial_half_small(rng, n);
}

/// Validates a traffic law over `underlying` — at least one edge,
/// forward_prob in [0, 1], one non-negative rate per edge with a positive
/// sum — and returns the rates normalized to sum 1 with compensated
/// summation.
std::vector<double> normalized_rates(const graph::Graph& underlying,
                                     std::vector<double> rates,
                                     double forward_prob) {
  PALU_CHECK(underlying.num_edges() > 0,
             "edge rates: underlying graph has no edges");
  PALU_CHECK(forward_prob >= 0.0 && forward_prob <= 1.0,
             "edge rates: forward_prob out of [0, 1]");
  PALU_CHECK(rates.size() == underlying.num_edges(),
             "edge rates: one rate per edge required");
  for (const double r : rates) {
    PALU_CHECK(r >= 0.0, "edge rates: negative rate");
  }
  const double total = compensated_sum(rates);
  PALU_CHECK(total > 0.0, "edge rates: all rates zero");
  for (double& r : rates) r /= total;
  return rates;
}

/// Merges edges by unordered endpoint pair.  A Multinomial category per
/// *pair* (weight = Σ rates of its parallel edges) is distributionally
/// exact, and the direction split stays a single Binomial because every
/// packet on the pair flows u → v with the same mixture probability
///   P[u → v] = Σ_i rate_i · f_i / Σ_i rate_i,
/// where f_i is forward_prob for edges stored (u, v) and 1 − forward_prob
/// for edges stored (v, u).  Self-pairs route everything to forward.
PairSupport merge_pairs(const std::vector<graph::Edge>& edges,
                        const std::vector<double>& rates,
                        double forward_prob) {
  struct PairHash {
    std::size_t operator()(const std::pair<NodeId, NodeId>& p) const {
      std::uint64_t h = p.first * 0x9e3779b97f4a7c15ULL;
      h ^= p.second + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
      h *= 0xff51afd7ed558ccdULL;
      return static_cast<std::size_t>(h ^ (h >> 33));
    }
  };

  PairSupport out;
  // Each unordered pair's index into `out` (first-seen order).
  std::unordered_map<std::pair<NodeId, NodeId>, std::size_t, PairHash> seen;
  seen.reserve(edges.size());
  for (std::size_t i = 0; i < edges.size(); ++i) {
    const double r = rates[i];
    if (r <= 0.0) continue;  // zero-weight edges never emit packets
    const graph::Edge& e = edges[i];
    const auto key = e.u <= e.v ? std::make_pair(e.u, e.v)
                                : std::make_pair(e.v, e.u);
    const auto [it, inserted] = seen.try_emplace(key, out.size());
    if (inserted) {
      // Canonical orientation = the first-seen stored orientation, so the
      // common duplicate-free case keeps the edge's natural (u, v).
      out.u.push_back(e.u);
      out.v.push_back(e.v);
      out.weight.push_back(0.0);
      out.forward_prob.push_back(0.0);  // Σ rate_i · f_i until divided below
    }
    const std::size_t slot = it->second;
    out.weight[slot] += r;
    if (e.u == e.v) {
      out.forward_prob[slot] += r;  // self-pair: everything is forward
    } else if (e.u == out.u[slot] && e.v == out.v[slot]) {
      out.forward_prob[slot] += r * forward_prob;
    } else {
      out.forward_prob[slot] += r * (1.0 - forward_prob);
    }
  }
  for (std::size_t i = 0; i < out.size(); ++i) {
    double& f = out.forward_prob[i];
    f /= out.weight[i];  // > 0: only a positive rate opens a pair
    // The single-edge-per-pair case is by far the most common; pin its
    // forward probability to the exact ctor value so the popcount fast
    // path for forward_prob == 0.5 engages.
    if (out.u[i] != out.v[i] && std::abs(f - forward_prob) < 1e-15) {
      f = forward_prob;
    }
  }
  return out;
}

/// 1 − (1 − rate)^{n_valid}, safe at both domain edges.  rate ≥ 1 (one
/// edge holding all normalized mass) would send log1p(−rate) to −inf and
/// n_valid == 0 then multiplies it by 0 → NaN; the closed form's limits
/// are 1 for any n ≥ 1 and 0 for n == 0, so answer those directly.
double window_visibility(double rate, Count n_valid) {
  if (rate >= 1.0) return n_valid >= 1 ? 1.0 : 0.0;
  return -std::expm1(static_cast<double>(n_valid) * std::log1p(-rate));
}

}  // namespace

std::vector<double> make_edge_rates(const graph::Graph& g,
                                    const RateModel& model, Rng rng) {
  std::vector<double> rates(g.num_edges());
  switch (model.kind) {
    case RateModel::Kind::kUniform:
      for (double& r : rates) r = 1.0;
      break;
    case RateModel::Kind::kPareto: {
      PALU_CHECK(model.pareto_tail > 0.0,
                 "make_edge_rates: pareto_tail must be > 0");
      for (double& r : rates) {
        r = std::pow(rng.uniform_positive(), -1.0 / model.pareto_tail);
      }
      break;
    }
    case RateModel::Kind::kDegreeProduct: {
      const auto deg = g.degrees();
      const auto& edges = g.edges();
      for (std::size_t i = 0; i < edges.size(); ++i) {
        rates[i] = static_cast<double>(deg[edges[i].u]) *
                   static_cast<double>(deg[edges[i].v]);
      }
      break;
    }
  }
  return rates;
}

PairSupport make_pair_support(const graph::Graph& underlying,
                              std::vector<double> rates) {
  constexpr double kForwardProb = 0.5;  // the generator's default
  return merge_pairs(
      underlying.edges(),
      normalized_rates(underlying, std::move(rates), kForwardProb),
      kForwardProb);
}

SyntheticTrafficGenerator::SyntheticTrafficGenerator(
    const graph::Graph& underlying, const RateModel& rates, Rng rng,
    double forward_prob)
    : SyntheticTrafficGenerator(underlying,
                                make_edge_rates(underlying, rates, rng),
                                rng.fork(0x7a11), forward_prob) {}

SyntheticTrafficGenerator::SyntheticTrafficGenerator(
    const graph::Graph& underlying, std::vector<double> rates, Rng rng,
    double forward_prob)
    : rng_(rng) {
  std::vector<double> normalized =
      normalized_rates(underlying, std::move(rates), forward_prob);
  rng::AliasSampler sampler(normalized);
  network_ = std::make_shared<const Network>(
      Network{underlying.edges(), std::move(normalized), std::move(sampler),
              forward_prob});
}

Packet SyntheticTrafficGenerator::next() {
  Packet p{};
  next_batch(std::span<Packet>(&p, 1));
  return p;
}

void SyntheticTrafficGenerator::next_batch(std::span<Packet> out) {
  const Network& net = *network_;
  for (Packet& p : out) {
    const graph::Edge& edge = net.edges[net.sampler(rng_)];
    p = rng_.uniform() < net.forward_prob ? Packet{edge.u, edge.v}
                                          : Packet{edge.v, edge.u};
  }
}

const PairSupport& SyntheticTrafficGenerator::pair_support() {
  // The sampler is assigned last, so it marks a completed build.
  if (!pair_sampler_) {
    const Network& net = *network_;
    pairs_ = std::make_shared<const PairSupport>(
        merge_pairs(net.edges, net.rates, net.forward_prob));
    pair_sampler_ =
        std::make_shared<const rng::MultinomialSampler>(pairs_->weight);
  }
  return *pairs_;
}

void SyntheticTrafficGenerator::next_window_counts(
    Count n_valid, std::vector<EdgePacketCounts>& out) {
  const PairSupport& s = pair_support();
  PALU_FAILPOINT("traffic.window_counts");
  counts_.resize(s.size());
  (*pair_sampler_)(rng_, n_valid, std::span<Count>(counts_));
  // One record per merged pair, in the fixed support order, zero rows
  // included: every per-window pass here and downstream then runs over a
  // size that depends only on the graph, never on N_V or on how many
  // pairs happened to draw packets — the flat-cost half of the counts
  // path's O(E) contract (the other half is the sampler's dense-regime
  // sequential split).
  out.resize(s.size());
  for (std::size_t i = 0; i < s.size(); ++i) {
    const Count c = counts_[i];
    Count forward;
    if (c == 0) {
      forward = 0;
    } else if (s.u[i] == s.v[i] || s.forward_prob[i] >= 1.0) {
      forward = c;
    } else if (s.forward_prob[i] == 0.5 && c <= kPopcountCap) {
      forward = binomial_half(rng_, c);
    } else {
      forward = rng::sample_binomial_small(rng_, c, s.forward_prob[i]);
    }
    out[i] = EdgePacketCounts{s.u[i], s.v[i], forward, c - forward};
  }
}

SparseCountMatrix SyntheticTrafficGenerator::window(Count n_valid) {
  SparseCountMatrix a;
  for (Count i = 0; i < n_valid; ++i) {
    const Packet p = next();
    a.add(p.src, p.dst);
  }
  return a;
}

std::vector<SparseCountMatrix> SyntheticTrafficGenerator::windows(
    Count n_valid, std::size_t count) {
  std::vector<SparseCountMatrix> out;
  out.reserve(count);
  for (std::size_t i = 0; i < count; ++i) out.push_back(window(n_valid));
  return out;
}

double SyntheticTrafficGenerator::expected_edge_visibility(
    Count n_valid) const {
  // A moved-from generator holds no tables; answer with a typed error
  // rather than a null dereference.
  PALU_CHECK(network_ != nullptr,
             "expected_edge_visibility: generator has no rates (moved-from?)");
  const std::vector<double>& rates = network_->rates;
  double acc = 0.0;
  for (const double r : rates) {
    // P[edge seen] = 1 − (1 − r)^{N_V}.
    acc += window_visibility(r, n_valid);
  }
  return acc / static_cast<double>(rates.size());
}

}  // namespace palu::traffic
