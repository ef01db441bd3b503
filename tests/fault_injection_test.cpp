// Property-style fault-injection suite: corrupted traces through the
// policy-aware readers, seeded failpoints through the degraded-mode fit
// ladder and the window sweep.  Everything here is deterministic — the
// corruptor and the failpoints both run off fixed seeds.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "palu/common/error.hpp"
#include "palu/common/failpoint.hpp"
#include "palu/common/result.hpp"
#include "palu/core/estimate.hpp"
#include "palu/core/generator.hpp"
#include "palu/core/params.hpp"
#include "palu/core/streaming.hpp"
#include "palu/graph/generators.hpp"
#include "palu/io/csv.hpp"
#include "palu/io/trace.hpp"
#include "palu/math/gamma.hpp"
#include "palu/stats/histogram.hpp"
#include "palu/testing/fault_injection.hpp"
#include "palu/traffic/quantities.hpp"
#include "palu/traffic/stream.hpp"
#include "palu/traffic/window_accumulator.hpp"
#include "palu/traffic/window_pipeline.hpp"

namespace palu {
namespace {

// A clean synthetic capture: 400 "src dst" lines with a comment header,
// ids drawn deterministically.
std::string clean_trace_text() {
  std::ostringstream out;
  out << "# palu trace\n";
  Rng rng(1234);
  for (int i = 0; i < 400; ++i) {
    out << rng.uniform_index(500) << ' ' << rng.uniform_index(500) << '\n';
  }
  return out.str();
}

io::TraceReadResult read_with(const std::string& text, ErrorPolicy policy,
                              std::size_t budget = ~std::size_t{0}) {
  std::istringstream in(text);
  IngestOptions opts;
  opts.policy = policy;
  opts.max_bad_lines = budget;
  return io::read_trace(in, opts);
}

// Bit-for-bit equality (unlike ==, tells -0 from 0 and matches NaNs).
bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

// ------------------------------------------------------------ corruptor

TEST(FaultInjection, CorruptorIsDeterministicForFixedSeed) {
  const std::string clean = clean_trace_text();
  testing::CorruptionOptions opts;
  opts.rate = 0.3;
  testing::CorruptionSummary s1, s2;
  const std::string a = testing::corrupt_trace(clean, opts, 99, &s1);
  const std::string b = testing::corrupt_trace(clean, opts, 99, &s2);
  EXPECT_EQ(a, b);
  EXPECT_EQ(s1.lines_seen, s2.lines_seen);
  EXPECT_GT(s1.lines_seen, 0u);
  // A different seed damages different lines.
  EXPECT_NE(a, testing::corrupt_trace(clean, opts, 100));
}

TEST(FaultInjection, CorruptorLeavesCommentsAndBlanksAlone) {
  testing::CorruptionOptions opts;
  opts.rate = 1.0;  // every substantive line is damaged
  testing::CorruptionSummary s;
  const std::string out =
      testing::corrupt_trace("# header\n\n1 2\n", opts, 5, &s);
  EXPECT_EQ(s.lines_seen, 1u);
  EXPECT_EQ(out.rfind("# header\n\n", 0), 0u);
}

// ----------------------------------------------------- ingest policies

TEST(FaultInjection, StrictPolicyThrowsWithLineNumber) {
  testing::CorruptionOptions opts;
  opts.rate = 1.0;
  // Negative-only corruption: every record line becomes "-src dst".
  opts.bit_flips = opts.truncation = opts.duplication = opts.drops =
      opts.garbage = opts.overflow = false;
  const std::string bad =
      testing::corrupt_trace(clean_trace_text(), opts, 7);
  try {
    read_with(bad, ErrorPolicy::kStrict);
    FAIL() << "strict ingest of a corrupt trace must throw";
  } catch (const DataError& e) {
    const std::string what = e.what();
    // First record sits on line 2 (line 1 is the comment header).
    EXPECT_NE(what.find("malformed line 2"), std::string::npos) << what;
    EXPECT_NE(what.find("negative"), std::string::npos) << what;
  }
}

TEST(FaultInjection, ReportInvariantHoldsAcrossSeedsAndPolicies) {
  const std::string clean = clean_trace_text();
  testing::CorruptionOptions opts;
  opts.rate = 0.2;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const std::string bad = testing::corrupt_trace(clean, opts, seed);
    for (const ErrorPolicy policy :
         {ErrorPolicy::kSkip, ErrorPolicy::kRepair}) {
      const auto result = read_with(bad, policy);
      const IngestReport& r = result.report;
      // The invariant: every substantive line is kept, repaired or
      // dropped — nothing double-counted, nothing lost.
      EXPECT_EQ(r.lines_read,
                r.records_kept + r.lines_repaired + r.lines_dropped)
          << "seed " << seed << " policy " << to_string(policy);
      EXPECT_EQ(result.packets.size(), r.records_kept + r.lines_repaired);
      if (policy == ErrorPolicy::kSkip) {
        EXPECT_EQ(r.lines_repaired, 0u);
      }
      if (r.lines_dropped > 0) {
        ASSERT_TRUE(r.first_error.has_value());
        EXPECT_GE(r.first_error->line_number, 1u);
        EXPECT_FALSE(r.first_error->message.empty());
      }
    }
  }
}

TEST(FaultInjection, SkipReadsAreDeterministicForFixedSeed) {
  const std::string bad = testing::corrupt_trace(
      clean_trace_text(), testing::CorruptionOptions{}, 42);
  const auto a = read_with(bad, ErrorPolicy::kSkip);
  const auto b = read_with(bad, ErrorPolicy::kSkip);
  EXPECT_EQ(a.packets.size(), b.packets.size());
  EXPECT_EQ(a.packets, b.packets);
  EXPECT_EQ(a.report.lines_dropped, b.report.lines_dropped);
}

TEST(FaultInjection, RepairKeepsAtLeastAsManyRecordsAsSkip) {
  testing::CorruptionOptions opts;
  opts.rate = 0.3;
  for (std::uint64_t seed = 11; seed <= 14; ++seed) {
    const std::string bad =
        testing::corrupt_trace(clean_trace_text(), opts, seed);
    const auto skip = read_with(bad, ErrorPolicy::kSkip);
    const auto repair = read_with(bad, ErrorPolicy::kRepair);
    EXPECT_GE(repair.packets.size(), skip.packets.size()) << "seed "
                                                          << seed;
    EXPECT_LE(repair.report.lines_dropped, skip.report.lines_dropped);
  }
}

TEST(FaultInjection, ErrorBudgetExhaustionThrowsUnderSkip) {
  testing::CorruptionOptions opts;
  opts.rate = 0.5;
  const std::string bad =
      testing::corrupt_trace(clean_trace_text(), opts, 3);
  // Sanity: unlimited budget sees more than two bad lines.
  ASSERT_GT(read_with(bad, ErrorPolicy::kSkip).report.lines_dropped, 2u);
  try {
    read_with(bad, ErrorPolicy::kSkip, /*budget=*/2);
    FAIL() << "budget of 2 must not survive a 50%-corrupt trace";
  } catch (const DataError& e) {
    EXPECT_NE(std::string(e.what()).find("error budget"),
              std::string::npos)
        << e.what();
  }
}

TEST(FaultInjection, CleanInputIsCleanUnderEveryPolicy) {
  const std::string clean = clean_trace_text();
  std::istringstream strict_in(clean);
  const auto strict = io::read_trace(strict_in, {}).packets;
  for (const ErrorPolicy policy : {ErrorPolicy::kStrict, ErrorPolicy::kSkip,
                                   ErrorPolicy::kRepair}) {
    const auto result = read_with(clean, policy);
    EXPECT_TRUE(result.report.clean());
    EXPECT_EQ(result.report.records_kept, 400u);
    EXPECT_EQ(result.packets, strict);
  }
}

TEST(FaultInjection, FivePercentCorruptTraceStillFitsUnderSkip) {
  // The acceptance scenario: a 5%-corrupt capture ingests under kSkip,
  // reports its drops, and the surviving records still histogram.
  testing::CorruptionOptions opts;
  opts.rate = 0.05;
  const std::string bad =
      testing::corrupt_trace(clean_trace_text(), opts, 2026);
  const auto result = read_with(bad, ErrorPolicy::kSkip);
  EXPECT_FALSE(result.report.clean());
  EXPECT_GT(result.packets.size(), 350u);
  stats::DegreeHistogram fan_out;
  std::map<NodeId, Count> out_deg;
  for (const auto& p : result.packets) ++out_deg[p.src];
  for (const auto& [node, deg] : out_deg) fan_out.add(deg);
  EXPECT_GT(fan_out.total(), 0u);
}

TEST(FaultInjection, EdgeListAndCsvReadersShareTheInvariant) {
  testing::CorruptionOptions opts;
  opts.rate = 0.25;
  {
    std::ostringstream edges;
    edges << "# nodes=40\n";
    for (int u = 0; u < 39; ++u) edges << u << ' ' << (u + 1) << '\n';
    const std::string bad = testing::corrupt_trace(edges.str(), opts, 5);
    std::istringstream in(bad);
    IngestOptions io_opts;
    io_opts.policy = ErrorPolicy::kRepair;
    const auto result = io::read_edge_list(in, io_opts);
    const IngestReport& r = result.report;
    EXPECT_EQ(r.lines_read,
              r.records_kept + r.lines_repaired + r.lines_dropped);
    EXPECT_EQ(result.graph.num_edges(), r.records_kept + r.lines_repaired);
  }
  {
    std::ostringstream csv;
    csv << "# histogram\n";
    for (int d = 1; d <= 60; ++d) csv << d << ',' << (200 / d) << '\n';
    const std::string bad = testing::corrupt_trace(csv.str(), opts, 6);
    std::istringstream in(bad);
    IngestOptions io_opts;
    io_opts.policy = ErrorPolicy::kSkip;
    const auto result = io::read_histogram_csv(in, io_opts);
    const IngestReport& r = result.report;
    EXPECT_EQ(r.lines_read,
              r.records_kept + r.lines_repaired + r.lines_dropped);
  }
}

// ------------------------------------------------------------ failpoints

TEST(FaultInjection, FailpointFiresOnScheduleAndDisarms) {
  testing::FailpointGuard guard;
  failpoints::arm("test.site", /*fires=*/2, /*skip=*/1);
  auto hit = []() { PALU_FAILPOINT("test.site"); };
  EXPECT_NO_THROW(hit());                  // skipped
  EXPECT_THROW(hit(), ConvergenceError);   // fire 1
  EXPECT_THROW(hit(), ConvergenceError);   // fire 2
  EXPECT_NO_THROW(hit());                  // window exhausted
  EXPECT_EQ(failpoints::hit_count("test.site"), 4);
  failpoints::disarm_all();
  EXPECT_FALSE(failpoints::any_armed());
  EXPECT_NO_THROW(hit());
}

// An exact simplified-PALU histogram (same fixture as the estimate tests):
// mass(1) = c + l + u·μ(e^μ+1), mass(d≥2) = c·d^{−α} + u·μ^d/d!.
stats::DegreeHistogram exact_law_histogram() {
  const double c = 0.30, l = 0.25, u = 0.04, mu = 2.5, alpha = 2.2;
  stats::DegreeHistogram hist;
  const double scale = 4.0e9;
  const double p1 = c + l + u * mu * (std::exp(mu) + 1.0);
  hist.add(1, static_cast<Count>(std::llround(p1 * scale)));
  for (Degree d = 2; d <= (1u << 14); ++d) {
    double share = c * std::pow(static_cast<double>(d), -alpha);
    share += u * std::exp(static_cast<double>(d) * std::log(mu) -
                          math::log_factorial(d));
    const auto count = static_cast<Count>(std::llround(share * scale));
    if (count > 0) hist.add(d, count);
  }
  return hist;
}

core::PaluFitOptions exact_law_fit_options() {
  core::PaluFitOptions opts;
  opts.tail_min = 16;  // keep the μ≈2.5 bump out of the tail fit
  return opts;
}

TEST(FaultInjection, ForcedProfileFailureServesMomentFit) {
  const auto hist = exact_law_histogram();
  const auto clean = core::robust_fit_palu(hist, exact_law_fit_options());
  ASSERT_TRUE(clean.ok());
  EXPECT_EQ(clean.stage, fit::RobustStage::kMle);
  const auto base = core::fit_palu(hist, exact_law_fit_options());

  testing::FailpointGuard guard;
  testing::force_palu_mle_failure();
  const auto degraded =
      core::robust_fit_palu(hist, exact_law_fit_options());
  ASSERT_TRUE(degraded.ok());
  EXPECT_EQ(degraded.stage, fit::RobustStage::kMoments);
  EXPECT_EQ(failpoints::hit_count("fit.palu_mle"), 1);
  // kMoments is the staged pipeline untouched: exact equality.
  EXPECT_EQ(degraded.fit.alpha, base.alpha);
  EXPECT_EQ(degraded.fit.c, base.c);
  EXPECT_EQ(degraded.fit.mu, base.mu);
  EXPECT_EQ(degraded.fit.u, base.u);
  EXPECT_EQ(degraded.fit.l, base.l);
  // The acceptance bound: the degraded path stays within 10% of the
  // clean-path parameters.
  EXPECT_NEAR(degraded.fit.alpha, clean.fit.alpha,
              0.10 * clean.fit.alpha);
  EXPECT_NEAR(degraded.fit.mu, clean.fit.mu, 0.10 * clean.fit.mu);
}

TEST(FaultInjection, ProfileAndMomentFailureLeavesLaneStale) {
  // Support {1, 2, 3}: too thin for the moment pipeline at every relaxed
  // tail start, and the profile fit is forced down.
  stats::DegreeHistogram thin;
  thin.add(1, 500);
  thin.add(2, 120);
  thin.add(3, 40);

  testing::FailpointGuard guard;
  testing::force_palu_mle_failure();
  const auto failed = core::robust_fit_palu(thin);
  EXPECT_FALSE(failed.ok());
  EXPECT_EQ(failed.stage, fit::RobustStage::kFailed);
  EXPECT_NE(failed.error.find("fit.palu_mle"), std::string::npos)
      << failed.error;
  EXPECT_NE(failed.error.find("moments:"), std::string::npos)
      << failed.error;

  // A streaming lane with earlier parameters keeps them, tagged stale.
  failpoints::disarm_all();
  core::WindowedStreamingEstimator est;
  const auto first = est.refit_window(exact_law_histogram());
  ASSERT_TRUE(first.fresh);
  ASSERT_EQ(first.window.stage, fit::RobustStage::kMle);
  testing::force_palu_mle_failure();
  const auto second = est.refit_window(thin);
  EXPECT_FALSE(second.fresh);
  EXPECT_EQ(second.window.freshness, core::FitFreshness::kStale);
  EXPECT_EQ(second.window.stage, fit::RobustStage::kMle);
  EXPECT_EQ(second.window.fit.alpha, first.window.fit.alpha);
  EXPECT_FALSE(second.window.error.empty());
  EXPECT_EQ(est.consecutive_stale(), 1u);
}

TEST(FaultInjection, ZmFailureKeepsPreviousZmBesideFreshPaluFit) {
  // Two serve-sized windows of one network.
  Rng rng(17);
  const auto net = core::generate_underlying(
      core::PaluParams::solve_hubs(6.0, 0.35, 0.2, 2.3, 1.0), 20000, rng);
  traffic::SyntheticTrafficGenerator gen(
      net.graph,
      traffic::make_edge_rates(net.graph, traffic::RateModel{},
                               Rng(17).fork(1)),
      Rng(5));
  std::vector<traffic::Packet> packets(20000);
  traffic::WindowAccumulator acc;
  std::vector<stats::DegreeHistogram> windows;
  for (int w = 0; w < 2; ++w) {
    gen.next_batch(packets);
    acc.begin_window();
    acc.add_packets(packets);
    windows.push_back(acc.histogram(traffic::Quantity::kUndirectedDegree));
  }
  // Horizon 1: one lane, so each refit runs one ZM fit, the only hit of
  // the ZM-only failpoint whatever order the pool runs the fits in.
  core::StreamingOptions opts;
  opts.sliding_horizon = 1;
  core::WindowedStreamingEstimator clean(opts);
  clean.refit_window(windows[0]);
  const core::StreamingRefit want = clean.refit_window(windows[1]);

  core::WindowedStreamingEstimator est(opts);
  const core::StreamingRefit first = est.refit_window(windows[0]);
  ASSERT_TRUE(first.window.zm_valid);
  ASSERT_NE(want.window.zm.alpha, first.window.zm.alpha);
  testing::FailpointGuard guard;
  testing::force_zm_fit_failure(1);
  const core::StreamingRefit got = est.refit_window(windows[1]);
  EXPECT_EQ(failpoints::hit_count("fit.zm"), 1);
  ASSERT_TRUE(got.fresh);
  for (const core::StreamingFitSnapshot* lane : {&got.window, &got.sliding}) {
    // Fresh PALU fields, the bits of an unfaulted refit ...
    EXPECT_EQ(lane->stage, fit::RobustStage::kMle);
    EXPECT_EQ(lane->freshness, core::FitFreshness::kFresh);
    EXPECT_TRUE(same_bits(lane->fit.alpha, want.window.fit.alpha));
    EXPECT_TRUE(same_bits(lane->fit.c, want.window.fit.c));
    EXPECT_TRUE(same_bits(lane->fit.mu, want.window.fit.mu));
    EXPECT_TRUE(same_bits(lane->fit.u, want.window.fit.u));
    EXPECT_TRUE(same_bits(lane->fit.l, want.window.fit.l));
    EXPECT_TRUE(lane->error.empty());
    // ... beside the previous window's ZM fit, kept whole.
    EXPECT_TRUE(lane->zm_valid);
    EXPECT_TRUE(same_bits(lane->zm.alpha, first.window.zm.alpha));
    EXPECT_TRUE(same_bits(lane->zm.delta, first.window.zm.delta));
    EXPECT_TRUE(same_bits(lane->zm.objective, first.window.zm.objective));
  }
}

TEST(FaultInjection, UnfittableHistogramDegradesInsteadOfThrowing) {
  // Empty and single-point histograms are bad data, not crashes: the
  // robust driver reports kFailed with the reason instead of throwing.
  const auto empty = core::robust_fit_palu(stats::DegreeHistogram{});
  EXPECT_FALSE(empty.ok());
  EXPECT_EQ(empty.stage, fit::RobustStage::kFailed);
  EXPECT_FALSE(empty.error.empty());

  stats::DegreeHistogram lone;
  lone.add(3, 10);
  const auto thin = core::robust_fit_palu(lone);
  EXPECT_FALSE(thin.ok());
  EXPECT_FALSE(thin.error.empty());
}

TEST(FaultInjection, DegradedFitIsDeterministic) {
  const auto hist = exact_law_histogram();
  testing::FailpointGuard guard;
  testing::force_palu_mle_failure();
  const auto a = core::robust_fit_palu(hist, exact_law_fit_options());
  failpoints::disarm_all();
  testing::force_palu_mle_failure();
  const auto b = core::robust_fit_palu(hist, exact_law_fit_options());
  EXPECT_EQ(a.stage, b.stage);
  EXPECT_EQ(a.fit.alpha, b.fit.alpha);
  EXPECT_EQ(a.fit.mu, b.fit.mu);
}

// ---------------------------------------------------------- window sweep

TEST(FaultInjection, SweepFailureCarriesWindowIndex) {
  Rng gen_rng(7);
  const auto g = graph::erdos_renyi(gen_rng, 500, 0.01);
  ThreadPool pool(1);  // FIFO pool: windows execute in index order
  testing::FailpointGuard guard;
  testing::force_sweep_window_failure(/*fires=*/1, /*skip=*/2);
  try {
    traffic::sweep_windows(g, traffic::RateModel{}, 1000, 6,
                           traffic::Quantity::kSourceFanOut, 42, pool);
    FAIL() << "strict sweep must rethrow the window failure";
  } catch (const traffic::SweepWindowError& e) {
    EXPECT_EQ(e.window(), 2u);
    EXPECT_NE(std::string(e.what()).find("window 2"), std::string::npos);
  }
}

TEST(FaultInjection, SweepBudgetToleratesBadWindows) {
  Rng gen_rng(7);
  const auto g = graph::erdos_renyi(gen_rng, 500, 0.01);
  ThreadPool pool(2);
  testing::FailpointGuard guard;
  testing::force_sweep_window_failure(/*fires=*/2, /*skip=*/0);
  traffic::SweepOptions opts;
  opts.max_failed_windows = 2;
  const auto sweep = traffic::sweep_windows(
      g, traffic::RateModel{}, 1000, 8,
      traffic::Quantity::kSourceFanOut, 42, pool, opts);
  EXPECT_EQ(sweep.failures.size(), 2u);
  EXPECT_EQ(sweep.windows, 6u);
  for (const auto& f : sweep.failures) {
    EXPECT_LT(f.window, 8u);
    EXPECT_FALSE(f.error.empty());
  }
}

TEST(FaultInjection, SweepBudgetOverflowRethrowsWithContext) {
  Rng gen_rng(7);
  const auto g = graph::erdos_renyi(gen_rng, 500, 0.01);
  ThreadPool pool(2);
  testing::FailpointGuard guard;
  testing::force_sweep_window_failure(/*fires=*/4, /*skip=*/0);
  traffic::SweepOptions opts;
  opts.max_failed_windows = 1;
  try {
    traffic::sweep_windows(g, traffic::RateModel{}, 1000, 8,
                           traffic::Quantity::kSourceFanOut, 42, pool,
                           opts);
    FAIL() << "4 failures against a budget of 1 must throw";
  } catch (const traffic::SweepWindowError& e) {
    EXPECT_NE(std::string(e.what()).find("budget 1"), std::string::npos)
        << e.what();
  }
}

TEST(FaultInjection, SweepWithoutFaultsMatchesStrictOverload) {
  Rng gen_rng(7);
  const auto g = graph::erdos_renyi(gen_rng, 500, 0.01);
  ThreadPool pool(3);
  const auto strict = traffic::sweep_windows(
      g, traffic::RateModel{}, 2000, 4,
      traffic::Quantity::kSourceFanOut, 9, pool);
  traffic::SweepOptions opts;
  opts.max_failed_windows = 3;
  const auto tolerant = traffic::sweep_windows(
      g, traffic::RateModel{}, 2000, 4,
      traffic::Quantity::kSourceFanOut, 9, pool, opts);
  EXPECT_EQ(strict.merged.total(), tolerant.merged.total());
  EXPECT_EQ(strict.max_value, tolerant.max_value);
  EXPECT_TRUE(tolerant.failures.empty());
}

}  // namespace
}  // namespace palu
