// The analytic window: evaluate_expected_window vs sampled truth,
// plus its entry-point semantics (determinism, argument checks, failure,
// metrics labels).
//
// The expectation path computes E[per-bin entity count] exactly for the
// packet quantities (Binomial marginals of the Multinomial window) and
// under within-entity link independence for the link-count quantities
// (Poisson-binomial over per-link visibilities; the dropped O(q_i·q_j)
// negative correlation is far below Monte-Carlo noise on these graphs).
// Its contract against a sampled ensemble is therefore CLT-style: the
// 64-replicate counts-path mean of every bin must sit within standard-
// error bands of the analytic mass, for all six quantities and several
// seeds.  See DESIGN.md §5i.
//
// The evaluator folds its entities in fixed blocks on a ThreadPool, so
// two more contracts hold on a network of many blocks: results are
// bit-identical at every pool size, and they match a serial fold of the
// same marginals, one entity at a time, to summation order.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <span>
#include <string>
#include <vector>

#include "palu/core/generator.hpp"
#include "palu/core/params.hpp"
#include "palu/graph/generators.hpp"
#include "palu/graph/graph.hpp"
#include "palu/math/binmass.hpp"
#include "palu/math/vexp.hpp"
#include "palu/obs/metrics.hpp"
#include "palu/obs/names.hpp"
#include "palu/stats/log_binning.hpp"
#include "palu/testing/fault_injection.hpp"
#include "palu/traffic/aggregates.hpp"
#include "palu/traffic/expected_window.hpp"
#include "palu/traffic/quantities.hpp"
#include "palu/traffic/stream.hpp"
#include "palu/traffic/window_pipeline.hpp"

namespace palu {
namespace {

constexpr std::array<traffic::Quantity, 6> kEveryQuantity = {
    traffic::Quantity::kSourcePackets,
    traffic::Quantity::kSourceFanOut,
    traffic::Quantity::kLinkPackets,
    traffic::Quantity::kDestinationFanIn,
    traffic::Quantity::kDestinationPackets,
    traffic::Quantity::kUndirectedDegree};

TEST(SweepExpected, MatchesSampledEnsembleMeansEverywhere) {
  Rng gen_rng(7);
  const auto g = graph::erdos_renyi(gen_rng, 400, 0.02);
  ThreadPool pool(2);
  constexpr std::size_t kReplicates = 64;
  constexpr Count kN = 3000;
  for (const std::uint64_t seed : {17u, 101u, 9000u}) {
    for (const auto q : kEveryQuantity) {
      const std::string context = std::string(traffic::quantity_name(q)) +
                                  " seed " + std::to_string(seed);
      const auto expected = traffic::evaluate_expected_window(
          g, traffic::RateModel{}, kN, q, seed, pool);
      traffic::SweepOptions sampled_opts;
      sampled_opts.synthesis = traffic::SynthesisMode::kMultinomial;
      const auto sampled = traffic::sweep_windows(
          g, traffic::RateModel{}, kN, kReplicates, q, seed, pool,
          sampled_opts);
      const auto& mass = expected.mass;
      const auto mean = sampled.ensemble.mean();
      const auto sd = sampled.ensemble.stddev();
      const std::size_t bins = std::max<std::size_t>(mean.size(),
                                                     mass.num_bins());
      for (std::size_t i = 0; i < bins; ++i) {
        const double analytic = i < mass.num_bins() ? mass[i] : 0.0;
        const double mc = i < mean.size() ? mean[i] : 0.0;
        const double s = i < sd.size() ? sd[i] : 0.0;
        // 6 standard errors of the replicate mean plus an absolute floor
        // for bins whose sample σ underestimates (rare tail bins).
        const double tol =
            6.0 * s / std::sqrt(static_cast<double>(kReplicates)) + 0.004;
        EXPECT_NEAR(analytic, mc, tol) << context << " bin " << i;
      }
      // The analytic d_max stand-in (median of max) must land within the
      // spread of sampled maxima — same log₂ bin neighbourhood.
      ASSERT_GT(expected.max_value, 0u) << context;
      const double lg_e = std::log2(static_cast<double>(expected.max_value));
      const double lg_s = std::log2(static_cast<double>(sampled.max_value));
      EXPECT_NEAR(lg_e, lg_s, 1.5) << context;
    }
  }
}

TEST(SweepExpected, AggregatesMatchSampledTableI) {
  Rng gen_rng(11);
  const auto g = graph::erdos_renyi(gen_rng, 300, 0.03);
  constexpr Count kN = 4000;
  ThreadPool pool(2);
  const auto agg =
      traffic::evaluate_expected_window(g, traffic::RateModel{}, kN,
                                        traffic::Quantity::kUndirectedDegree,
                                        /*seed=*/23, pool)
          .aggregates;

  // Closed-form cross-check, replaying the entry point's exact rate draw
  // (Rng(seed).fork(0)): this graph has no parallel edges and no
  // self-loops, so each edge owns two directed cells of half its rate.
  const auto edge_rates =
      traffic::make_edge_rates(g, traffic::RateModel{}, Rng(23).fork(0));
  traffic::SyntheticTrafficGenerator gen(g, edge_rates, Rng(1));
  EXPECT_DOUBLE_EQ(agg.valid_packets, static_cast<double>(kN));
  double per_edge_links = 0.0;
  for (const double r : gen.rates()) {
    per_edge_links += 2.0 * (1.0 - std::pow(1.0 - 0.5 * r, kN));
  }
  EXPECT_NEAR(agg.unique_links, per_edge_links, 1e-9 * per_edge_links);

  // Monte-Carlo cross-check of the node visibilities and the max: means
  // of sampled Table-I aggregates across windows.
  constexpr int kWindows = 64;
  double src = 0.0, dst = 0.0, links = 0.0, maxp = 0.0;
  for (int w = 0; w < kWindows; ++w) {
    const auto a = gen.window(kN);
    const auto t = traffic::aggregates_summation(a);
    src += static_cast<double>(t.unique_sources);
    dst += static_cast<double>(t.unique_destinations);
    links += static_cast<double>(t.unique_links);
    maxp += static_cast<double>(t.max_link_packets);
  }
  src /= kWindows;
  dst /= kWindows;
  links /= kWindows;
  maxp /= kWindows;
  // Unique counts are sums of ~|V| Bernoullis: σ ≤ √mean, so 6 standard
  // errors is 6·√(mean/64).
  EXPECT_NEAR(agg.unique_sources, src, 6.0 * std::sqrt(src / kWindows) + 1.0);
  EXPECT_NEAR(agg.unique_destinations, dst,
              6.0 * std::sqrt(dst / kWindows) + 1.0);
  EXPECT_NEAR(agg.unique_links, links,
              6.0 * std::sqrt(links / kWindows) + 1.0);
  // The analytic max is a median, the sampled one a mean of maxima — they
  // need only agree to within the distribution's own spread.
  EXPECT_NEAR(agg.max_link_packets / maxp, 1.0, 0.35);
}

TEST(SweepExpected, DeterministicUnitMass) {
  Rng gen_rng(13);
  const auto g = graph::erdos_renyi(gen_rng, 200, 0.04);
  const auto q = traffic::Quantity::kSourceFanOut;
  // Same seed (the seed fixes the Pareto rate draw, which the analytic
  // result legitimately depends on): bit-identical, since the path
  // consumes no per-window RNG.
  ThreadPool pool(2);
  const auto a = traffic::evaluate_expected_window(g, traffic::RateModel{},
                                                   2000, q, 5, pool);
  const auto b = traffic::evaluate_expected_window(g, traffic::RateModel{},
                                                   2000, q, 5, pool);
  ASSERT_EQ(a.bin_counts.size(), b.bin_counts.size());
  for (std::size_t i = 0; i < a.bin_counts.size(); ++i) {
    EXPECT_EQ(a.bin_counts[i], b.bin_counts[i]) << i;
  }
  EXPECT_EQ(a.visible_entities, b.visible_entities);
  EXPECT_EQ(a.max_value, b.max_value);
  EXPECT_EQ(a.aggregates.max_link_packets, b.aggregates.max_link_packets);
  // The expected mass is a unit distribution.
  EXPECT_NEAR(a.mass.total_mass(), 1.0, 1e-9);
}

TEST(SweepExpected, RejectsZeroPackets) {
  Rng gen_rng(19);
  const auto g = graph::erdos_renyi(gen_rng, 100, 0.05);
  ThreadPool pool(1);
  EXPECT_THROW(traffic::evaluate_expected_window(
                   g, traffic::RateModel{}, 0,
                   traffic::Quantity::kLinkPackets, 1, pool),
               palu::InvalidArgument);
}

TEST(SweepExpected, FailpointThrowsAndCountsTheFailure) {
  Rng gen_rng(23);
  const auto g = graph::erdos_renyi(gen_rng, 100, 0.05);
  testing::FailpointGuard guard;
  failpoints::arm("theory.expected_window", /*fires=*/1, /*skip=*/0);
  obs::Registry registry;
  ThreadPool pool(2);
  try {
    traffic::evaluate_expected_window(g, traffic::RateModel{}, 1000,
                                      traffic::Quantity::kLinkPackets, 1,
                                      pool, &registry);
    FAIL() << "an armed failpoint must surface as an exception";
  } catch (const std::exception& e) {
    EXPECT_TRUE(failpoints::is_failpoint_error(e)) << e.what();
  }
  EXPECT_EQ(registry.counter(obs::names::kSweepWindows,
                             {{"outcome", "failed"}})
                .value(),
            1u);
  EXPECT_EQ(registry.counter(obs::names::kSweepFailpointTrips).value(), 1u);
  // Disarmed (the single fire is spent), the same call succeeds.
  const auto win = traffic::evaluate_expected_window(
      g, traffic::RateModel{}, 1000, traffic::Quantity::kLinkPackets, 1,
      pool, &registry);
  EXPECT_NEAR(win.mass.total_mass(), 1.0, 1e-9);
}

TEST(SweepExpected, StageMetricsCarryExpectedPathLabel) {
  Rng gen_rng(29);
  const auto g = graph::erdos_renyi(gen_rng, 200, 0.04);
  obs::Registry registry;
  ThreadPool pool(2);
  traffic::evaluate_expected_window(g, traffic::RateModel{}, 5000,
                                    traffic::Quantity::kUndirectedDegree, 3,
                                    pool, &registry);
  EXPECT_EQ(registry.counter(obs::names::kSweepRuns).value(), 1u);
  EXPECT_EQ(registry.counter(obs::names::kSweepWindows,
                             {{"outcome", "completed"}})
                .value(),
            1u);
  const auto snap = registry.snapshot();
  std::size_t stage_series = 0;
  for (const auto& h : snap.histograms) {
    if (h.name != obs::names::kSweepStageDurationNs) continue;
    ++stage_series;
    std::string stage;
    for (const auto& [key, value] : h.labels) {
      if (key == "path") {
        EXPECT_EQ(value, "expected");
      } else if (key == "stage") {
        stage = value;
      }
    }
    // One observation per evaluation; set-up (rates, pair merge,
    // evaluator tables), prepare (visibilities) and the marginal folding
    // take measurable time.
    EXPECT_EQ(h.count, 1u) << stage;
    if (stage != "binning") {
      EXPECT_GT(h.sum, 0u) << stage;
    }
  }
  EXPECT_EQ(stage_series, 4u);
}

// ---------------------------------------------------------------------------
// Block fold: pool-size identity and the serial reference.

constexpr std::array<Count, 2> kBlockedWindows = {10000, 10000000};

// A Barabási–Albert network on which every pooled pass spans at least 8
// blocks (nodes, pairs, links and CSR slots); its hubs carry more than the
// 128 links the exact Poisson-binomial DP takes, so the link-count folds
// also run the normal and saddlepoint tiers.
graph::Graph blocked_graph() {
  Rng rng(31);
  return graph::barabasi_albert(rng, 20000, 2);
}

traffic::SyntheticTrafficGenerator blocked_generator(const graph::Graph& g) {
  return traffic::SyntheticTrafficGenerator(
      g, traffic::make_edge_rates(g, traffic::RateModel{}, Rng(5).fork(0)),
      Rng(0));
}

void expect_spans_blocks(const graph::Graph& g,
                         const traffic::ExpectedWindowEvaluator& eval) {
  constexpr std::size_t kMin =
      8 * traffic::ExpectedWindowEvaluator::kBlockSize;
  ASSERT_GE(g.num_nodes(), kMin);
  ASSERT_GE(eval.num_pairs(), kMin);
  ASSERT_GE(eval.num_links(), kMin);
}

void expect_identical(const traffic::ExpectedWindow& a,
                      const traffic::ExpectedWindow& b,
                      const std::string& context) {
  EXPECT_EQ(a.bin_counts, b.bin_counts) << context;
  EXPECT_EQ(a.mass.mass(), b.mass.mass()) << context;
  EXPECT_EQ(a.visible_entities, b.visible_entities) << context;
  EXPECT_EQ(a.max_value, b.max_value) << context;
  EXPECT_EQ(a.aggregates.valid_packets, b.aggregates.valid_packets)
      << context;
  EXPECT_EQ(a.aggregates.unique_links, b.aggregates.unique_links) << context;
  EXPECT_EQ(a.aggregates.unique_sources, b.aggregates.unique_sources)
      << context;
  EXPECT_EQ(a.aggregates.unique_destinations,
            b.aggregates.unique_destinations)
      << context;
  EXPECT_EQ(a.aggregates.max_link_packets, b.aggregates.max_link_packets)
      << context;
}

std::string window_context(traffic::Quantity q, Count n) {
  return std::string(traffic::quantity_name(q)) + " N_V " +
         std::to_string(n);
}

TEST(SweepExpected, IdenticalAcrossPoolSizes) {
  const auto g = blocked_graph();
  auto gen = blocked_generator(g);
  ThreadPool one(1);
  traffic::ExpectedWindowEvaluator serial(gen.pair_support(), one);
  expect_spans_blocks(g, serial);
  std::vector<traffic::ExpectedWindow> reference;
  for (const Count n : kBlockedWindows) {
    serial.prepare(n);
    for (const auto q : kEveryQuantity) reference.push_back(serial.evaluate(q));
  }
  for (const std::size_t threads : {2u, 4u}) {
    ThreadPool pool(threads);
    traffic::ExpectedWindowEvaluator eval(gen.pair_support(), pool);
    std::size_t i = 0;
    for (const Count n : kBlockedWindows) {
      eval.prepare(n);
      for (const auto q : kEveryQuantity) {
        expect_identical(reference[i++], eval.evaluate(q),
                         window_context(q, n) + " threads " +
                             std::to_string(threads));
      }
    }
  }
}

// The entry point builds its pair support through make_pair_support, not
// through a generator; the evaluator it runs must see exactly the table a
// generator over the same rate draw builds.
TEST(SweepExpected, EntryPointMatchesEvaluatorOnGeneratorSupport) {
  Rng gen_rng(37);
  const graph::Graph generated = graph::erdos_renyi(gen_rng, 500, 0.02);
  graph::Graph multigraph(4);
  multigraph.add_edge(0, 1);
  multigraph.add_edge(0, 1);  // parallel duplicate
  multigraph.add_edge(1, 0);  // mirror orientation
  multigraph.add_edge(2, 2);  // self-loop
  multigraph.add_edge(2, 3);
  constexpr std::uint64_t kSeed = 41;
  ThreadPool pool(2);
  const std::array<const graph::Graph*, 2> networks = {&generated,
                                                       &multigraph};
  for (const graph::Graph* g : networks) {
    traffic::SyntheticTrafficGenerator gen(
        *g,
        traffic::make_edge_rates(*g, traffic::RateModel{},
                                 Rng(kSeed).fork(0)),
        Rng(0));
    traffic::ExpectedWindowEvaluator eval(gen.pair_support(), pool);
    for (const Count n : {Count{3}, Count{20000}, Count{10000000}}) {
      eval.prepare(n);
      for (const auto q : kEveryQuantity) {
        expect_identical(eval.evaluate(q),
                         traffic::evaluate_expected_window(
                             *g, traffic::RateModel{}, n, q, kSeed, pool),
                         window_context(q, n) + " nodes " +
                             std::to_string(g->num_nodes()));
      }
    }
  }
}

// Table-I unique links count (src, dst) cells: parallel edges and both
// orientations of one pair share a cell per direction, and a self-loop is
// one cell.  Directed cells here: 0→1 and 1→0 at mass 0.3 each, 2→2 at
// 0.2, 2→3 and 3→2 at 0.1 each.
TEST(SweepExpected, UniqueLinksCountDirectedCellsOnAMultigraph) {
  graph::Graph g(4);
  g.add_edge(0, 1);
  g.add_edge(0, 1);
  g.add_edge(1, 0);
  g.add_edge(2, 2);
  g.add_edge(2, 3);
  traffic::SyntheticTrafficGenerator gen(g, std::vector<double>(5, 1.0),
                                         Rng(3));
  ThreadPool pool(1);
  traffic::ExpectedWindowEvaluator eval(gen.pair_support(), pool);
  eval.prepare(3);
  const double at3 = eval.aggregates().unique_links;
  // 2·(1 − 0.7³) + (1 − 0.8³) + 2·(1 − 0.9³) = 1.314 + 0.488 + 0.542.
  EXPECT_NEAR(at3, 2.344, 1e-12);
  eval.prepare(1000);
  EXPECT_NEAR(eval.aggregates().unique_links, 5.0, 1e-12);
  // Monte Carlo: E[nnz] of a 3-packet window.  nnz lies in [1, 3], so
  // its σ is below 1 and 6 standard errors of the mean stay under 0.05.
  constexpr int kWindows = 20000;
  double nnz = 0.0;
  for (int w = 0; w < kWindows; ++w) {
    nnz += static_cast<double>(gen.window(3).nnz());
  }
  EXPECT_NEAR(nnz / kWindows, at3,
              6.0 / std::sqrt(static_cast<double>(kWindows)));
}

// Neumaier-compensated sum: ~1 ulp of rounding at any term count, so a
// reference built on it is not itself off by its summation order.
class CompensatedSum {
 public:
  void add(double x) {
    const double t = sum_ + x;
    comp_ += std::abs(sum_) >= std::abs(x) ? (sum_ - t) + x : (x - t) + sum_;
    sum_ = t;
  }
  double value() const { return sum_ + comp_; }

 private:
  double sum_ = 0.0;
  double comp_ = 0.0;
};

double sum_of(const std::vector<double>& v) {
  CompensatedSum s;
  for (const double x : v) s.add(x);
  return s.value();
}

// The serial fold the evaluator's blocks must reproduce: every entity in
// index order, its bin masses folded alone and added into one compensated
// bins array, with a plain top-K scan by μ + 8σ and the median-of-max
// bisection over the continuity-corrected Edgeworth CDF (DESIGN.md §5i).
class SerialFold {
 public:
  explicit SerialFold(std::size_t max_candidates)
      : bins_(stats::LogBinned::kMaxBins),
        entity_(stats::LogBinned::kMaxBins),
        k_(max_candidates) {}

  void add_binomial(Count n, double p) {
    if (p <= 0.0) return;
    std::fill(entity_.begin(), entity_.end(), 0.0);
    visible_.add(math::binomial_log2_bins(n, p, entity_));
    add_entity_bins();
    const double nd = static_cast<double>(n);
    const double mu = nd * p;
    const double s2 = mu * (1.0 - p);
    note(mu, s2, s2 * (1.0 - 2.0 * p), nd);
  }

  void add_poisson_binomial(std::span<const double> pis) {
    if (pis.empty()) return;
    std::fill(entity_.begin(), entity_.end(), 0.0);
    visible_.add(math::poisson_binomial_log2_bins(pis, entity_, scratch_));
    add_entity_bins();
    double mu = 0.0, s2 = 0.0, m3 = 0.0;
    for (const double pi : pis) {
      const double q = 1.0 - pi;
      mu += pi;
      s2 += pi * q;
      m3 += pi * q * (q - pi);
    }
    note(mu, s2, m3, static_cast<double>(pis.size()));
  }

  /// Bins with trailing zeros trimmed.
  std::vector<double> bins() const {
    std::vector<double> out;
    for (const CompensatedSum& b : bins_) out.push_back(b.value());
    while (!out.empty() && out.back() <= 0.0) out.pop_back();
    return out;
  }
  double visible() const { return visible_.value(); }

  Degree median_of_max() const {
    if (cands_.empty()) return 0;
    double upper = 0.0;
    for (const Cand& c : cands_) upper = std::max(upper, c.upper);
    Degree lo = 0;
    auto hi = static_cast<Degree>(std::min(upper, 1.8e19));
    while (lo < hi) {
      const Degree mid = lo + (hi - lo) / 2;
      if (log_p_max_le(static_cast<double>(mid)) >= std::log(0.5)) {
        hi = mid;
      } else {
        lo = mid + 1;
      }
    }
    return lo;
  }

 private:
  struct Cand {
    double mu, sigma, gamma3, upper;
  };

  void add_entity_bins() {
    for (std::size_t i = 0; i < bins_.size(); ++i) bins_[i].add(entity_[i]);
  }

  void note(double mu, double s2, double m3, double upper) {
    const double sigma = std::sqrt(std::max(0.0, s2));
    const Cand c{mu, sigma, s2 > 0.0 ? m3 / (s2 * sigma) : 0.0, upper};
    if (cands_.size() < k_) {
      cands_.push_back(c);
      return;
    }
    std::size_t worst = 0;
    for (std::size_t i = 1; i < cands_.size(); ++i) {
      if (cands_[i].mu + 8.0 * cands_[i].sigma <
          cands_[worst].mu + 8.0 * cands_[worst].sigma) {
        worst = i;
      }
    }
    if (mu + 8.0 * sigma > cands_[worst].mu + 8.0 * cands_[worst].sigma) {
      cands_[worst] = c;
    }
  }

  double log_p_max_le(double m) const {
    double acc = 0.0;
    for (const Cand& c : cands_) {
      double f = 0.0;
      if (m >= c.upper) {
        f = 1.0;
      } else if (c.sigma <= 0.0) {
        f = m + 0.5 >= c.mu ? 1.0 : 0.0;
      } else {
        const double z = (m + 0.5 - c.mu) / c.sigma;
        if (z >= 40.0) {
          f = 1.0;
        } else if (z > -40.0) {
          const double phi = 0.5 * std::erfc(-z / std::sqrt(2.0));
          const double pdf =
              std::exp(-0.5 * z * z) / std::sqrt(2.0 * 3.14159265358979323846);
          f = std::clamp(phi - pdf * c.gamma3 * (z * z - 1.0) / 6.0, 0.0,
                         1.0);
        }
      }
      if (f <= 0.0) return -1e300;
      acc += std::log(f);
    }
    return acc;
  }

  std::vector<CompensatedSum> bins_;
  std::vector<double> entity_;  // one entity's bin masses
  CompensatedSum visible_;
  std::size_t k_;
  std::vector<Cand> cands_;
  math::BinMassScratch scratch_;
};

// π = 1 − (1 − q)^N for every entry, through the same element-wise
// kernels the evaluator uses.
std::vector<double> visibilities(const std::vector<double>& q, Count n) {
  std::vector<double> pi(q.size());
  for (std::size_t i = 0; i < q.size(); ++i) pi[i] = -q[i];
  math::vlog1p(pi, pi);
  for (double& t : pi) t *= static_cast<double>(n);
  math::vexp(pi, pi);
  for (double& t : pi) t = 1.0 - t;
  return pi;
}

void expect_relative(double got, double want, double rel,
                     const std::string& context) {
  EXPECT_LE(std::abs(got - want), rel * std::abs(want)) << context;
}

TEST(SweepExpected, MatchesSerialReferenceFold) {
  const auto g = blocked_graph();
  auto gen = blocked_generator(g);
  const traffic::PairSupport& support = gen.pair_support();
  ThreadPool pool(4);
  traffic::ExpectedWindowEvaluator eval(support, pool);
  expect_spans_blocks(g, eval);

  // Directed links, node masses and per-node term lists in the evaluator's
  // order: pair by pair, a non-self pair's u → v link before its v → u
  // link, and each node's terms by ascending link (or pair) index.
  std::size_t num_nodes = 0;
  for (std::size_t i = 0; i < support.size(); ++i) {
    num_nodes = std::max<std::size_t>(
        num_nodes, std::max(support.u[i], support.v[i]) + std::size_t{1});
  }
  std::vector<double> link_q, weight(support.weight.begin(),
                                     support.weight.end());
  std::vector<NodeId> link_src, link_dst;
  std::vector<std::vector<std::size_t>> out_links(num_nodes),
      in_links(num_nodes), und_pairs(num_nodes);
  const auto add_link = [&](NodeId s, NodeId d, double q) {
    out_links[s].push_back(link_q.size());
    in_links[d].push_back(link_q.size());
    link_src.push_back(s);
    link_dst.push_back(d);
    link_q.push_back(q);
  };
  for (std::size_t i = 0; i < support.size(); ++i) {
    const NodeId u = support.u[i];
    const NodeId v = support.v[i];
    const double w = support.weight[i];
    if (u == v) {
      add_link(u, u, w);
      continue;
    }
    add_link(u, v, w * support.forward_prob[i]);
    add_link(v, u, w * (1.0 - support.forward_prob[i]));
    und_pairs[u].push_back(i);
    und_pairs[v].push_back(i);
  }
  std::vector<double> src_mass(num_nodes, 0.0), dst_mass(num_nodes, 0.0);
  for (std::size_t j = 0; j < link_q.size(); ++j) {
    src_mass[link_src[j]] += link_q[j];
    dst_mass[link_dst[j]] += link_q[j];
  }

  const std::size_t k = traffic::ExpectedWindowEvaluator::kMaxCandidates;
  for (const Count n : kBlockedWindows) {
    const std::vector<double> link_pi = visibilities(link_q, n);
    const std::vector<double> pair_pi = visibilities(weight, n);
    const auto fold_pb = [&](const std::vector<std::vector<std::size_t>>& rows,
                             const std::vector<double>& pis) {
      SerialFold ref(k);
      std::vector<double> terms;
      for (const auto& row : rows) {
        terms.clear();
        for (const std::size_t j : row) terms.push_back(pis[j]);
        ref.add_poisson_binomial(terms);
      }
      return ref;
    };
    const auto fold_binomial = [&](const std::vector<double>& probs) {
      SerialFold ref(k);
      for (const double p : probs) ref.add_binomial(n, p);
      return ref;
    };
    eval.prepare(n);
    for (const auto q : kEveryQuantity) {
      const std::string context = window_context(q, n);
      SerialFold ref(k);
      switch (q) {
        case traffic::Quantity::kSourcePackets:
          ref = fold_binomial(src_mass);
          break;
        case traffic::Quantity::kDestinationPackets:
          ref = fold_binomial(dst_mass);
          break;
        case traffic::Quantity::kLinkPackets:
          ref = fold_binomial(link_q);
          break;
        case traffic::Quantity::kSourceFanOut:
          ref = fold_pb(out_links, link_pi);
          break;
        case traffic::Quantity::kDestinationFanIn:
          ref = fold_pb(in_links, link_pi);
          break;
        case traffic::Quantity::kUndirectedDegree:
          ref = fold_pb(und_pairs, pair_pi);
          break;
      }
      const auto win = eval.evaluate(q);
      const std::vector<double> bins = ref.bins();
      ASSERT_EQ(win.bin_counts.size(), bins.size()) << context;
      for (std::size_t i = 0; i < bins.size(); ++i) {
        expect_relative(win.bin_counts[i], bins[i], 1e-12,
                        context + " bin " + std::to_string(i));
      }
      expect_relative(win.visible_entities, ref.visible(), 1e-12, context);
      EXPECT_EQ(win.max_value, ref.median_of_max()) << context;

      // The aggregates against the same serial sums and link scan.
      const auto& agg = win.aggregates;
      EXPECT_EQ(agg.valid_packets, static_cast<double>(n)) << context;
      expect_relative(agg.unique_links, sum_of(link_pi), 1e-12, context);
      expect_relative(agg.unique_sources, sum_of(visibilities(src_mass, n)),
                      1e-12, context);
      expect_relative(agg.unique_destinations,
                      sum_of(visibilities(dst_mass, n)), 1e-12, context);
      EXPECT_EQ(agg.max_link_packets,
                static_cast<double>(fold_binomial(link_q).median_of_max()))
          << context;
    }
  }
}

TEST(SweepExpected, PinnedLeadingBinsOnTheBenchLaw) {
  // The undirected-degree mass of one 200000-packet window over a
  // 20000-node network of the bench law, captured while the evaluator's
  // folding thresholds and candidate count were still options; they are
  // constants at the defaults every caller used, so no bit may move.
  Rng rng(17);
  const auto net = core::generate_underlying(
      core::PaluParams::solve_hubs(6.0, 0.35, 0.2, 2.3, 1.0), 20000, rng);
  traffic::ExpectedWindowEvaluator eval(traffic::make_pair_support(
      net.graph, traffic::make_edge_rates(net.graph, traffic::RateModel{},
                                          Rng(17).fork(1))));
  eval.prepare(200000);
  const auto w = eval.evaluate(traffic::Quantity::kUndirectedDegree);
  const std::array<double, 8> leading = {
      0x1.8ffb8e732cf9ap-1, 0x1.472bd104294f7p-4, 0x1.df86bc24acddfp-5,
      0x1.cced90e5623a4p-5, 0x1.30974f90cd56bp-6, 0x1.c89e9c7b7a24bp-9,
      0x1.6c04bacdd4ff1p-10, 0x1.e9bc5114e8395p-12};
  ASSERT_EQ(w.mass.num_bins(), 12u);
  for (std::size_t i = 0; i < leading.size(); ++i) {
    EXPECT_EQ(w.mass[i], leading[i]) << "bin " << i;
  }
  EXPECT_EQ(w.visible_entities, 0x1.35fcfa50e2583p+14);
  EXPECT_EQ(w.max_value, 1887u);
  EXPECT_EQ(eval.evaluate(traffic::Quantity::kLinkPackets).max_value, 669u);
}

}  // namespace
}  // namespace palu
