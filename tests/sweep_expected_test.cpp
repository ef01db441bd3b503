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
#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <string>

#include "palu/graph/generators.hpp"
#include "palu/graph/graph.hpp"
#include "palu/obs/metrics.hpp"
#include "palu/obs/names.hpp"
#include "palu/stats/log_binning.hpp"
#include "palu/testing/fault_injection.hpp"
#include "palu/traffic/aggregates.hpp"
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
          g, traffic::RateModel{}, kN, q, seed);
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
  const auto agg =
      traffic::evaluate_expected_window(g, traffic::RateModel{}, kN,
                                        traffic::Quantity::kUndirectedDegree,
                                        /*seed=*/23)
          .aggregates;

  // Closed-form cross-checks against the generator's own expectations,
  // replaying the entry point's exact rate draw (Rng(seed).fork(0)).
  const auto edge_rates =
      traffic::make_edge_rates(g, traffic::RateModel{}, Rng(23).fork(0));
  traffic::SyntheticTrafficGenerator gen(g, edge_rates, Rng(1));
  EXPECT_DOUBLE_EQ(agg.valid_packets, static_cast<double>(kN));
  EXPECT_NEAR(agg.unique_links, gen.expected_unique_links(kN),
              1e-9 * gen.expected_unique_links(kN));

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
  const auto a =
      traffic::evaluate_expected_window(g, traffic::RateModel{}, 2000, q, 5);
  const auto b =
      traffic::evaluate_expected_window(g, traffic::RateModel{}, 2000, q, 5);
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
  EXPECT_THROW(traffic::evaluate_expected_window(
                   g, traffic::RateModel{}, 0,
                   traffic::Quantity::kLinkPackets, 1),
               palu::InvalidArgument);
}

TEST(SweepExpected, FailpointThrowsAndCountsTheFailure) {
  Rng gen_rng(23);
  const auto g = graph::erdos_renyi(gen_rng, 100, 0.05);
  testing::FailpointGuard guard;
  failpoints::arm("theory.expected_window", /*fires=*/1, /*skip=*/0);
  obs::Registry registry;
  try {
    traffic::evaluate_expected_window(g, traffic::RateModel{}, 1000,
                                      traffic::Quantity::kLinkPackets, 1,
                                      &registry);
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
      &registry);
  EXPECT_NEAR(win.mass.total_mass(), 1.0, 1e-9);
}

TEST(SweepExpected, StageMetricsCarryExpectedPathLabel) {
  Rng gen_rng(29);
  const auto g = graph::erdos_renyi(gen_rng, 200, 0.04);
  obs::Registry registry;
  traffic::evaluate_expected_window(g, traffic::RateModel{}, 5000,
                                    traffic::Quantity::kUndirectedDegree, 3,
                                    &registry);
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
    // One observation per evaluation; prepare (visibilities) and the
    // marginal folding take measurable time.
    EXPECT_EQ(h.count, 1u) << stage;
    if (stage != "binning") {
      EXPECT_GT(h.sum, 0u) << stage;
    }
  }
  EXPECT_EQ(stage_series, 3u);
}

}  // namespace
}  // namespace palu
