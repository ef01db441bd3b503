// Unit tests for palu::obs — the metrics registry (counters, gauges,
// log2-bucket histograms), RAII trace spans, both exporters, and the
// Prometheus exposition-format validator the ctest round-trip relies on.
#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "palu/common/error.hpp"
#include "palu/obs/export.hpp"
#include "palu/obs/metrics.hpp"
#include "palu/obs/names.hpp"
#include "palu/obs/span.hpp"

namespace palu::obs {
namespace {

TEST(Counter, IncrementsAndResets) {
  Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.inc();
  c.inc(41);
  EXPECT_EQ(c.value(), 42u);
  c.reset();
  EXPECT_EQ(c.value(), 0u);
}

TEST(Counter, ConcurrentIncrementsAreLossless) {
  Counter c;
  constexpr int kThreads = 4;
  constexpr std::uint64_t kPerThread = 20000;
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&c] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) c.inc();
    });
  }
  for (auto& w : workers) w.join();
  EXPECT_EQ(c.value(), kThreads * kPerThread);
}

TEST(Gauge, SetAddAndNegativeValues) {
  Gauge g;
  g.set(7);
  EXPECT_EQ(g.value(), 7);
  g.add(-10);
  EXPECT_EQ(g.value(), -3);
  g.reset();
  EXPECT_EQ(g.value(), 0);
}

TEST(Histogram, BucketIndexMirrorsLogBinnedLayout) {
  // Bucket 0 holds v <= 1; bucket i holds (2^{i-1}, 2^i]; top saturates.
  EXPECT_EQ(Histogram::bucket_index(0), 0u);
  EXPECT_EQ(Histogram::bucket_index(1), 0u);
  EXPECT_EQ(Histogram::bucket_index(2), 1u);
  EXPECT_EQ(Histogram::bucket_index(3), 2u);
  EXPECT_EQ(Histogram::bucket_index(4), 2u);
  EXPECT_EQ(Histogram::bucket_index(5), 3u);
  const std::uint64_t top = std::uint64_t{1} << 63;
  EXPECT_EQ(Histogram::bucket_index(top - 1), 63u);
  EXPECT_EQ(Histogram::bucket_index(top), 63u);
  EXPECT_EQ(Histogram::bucket_index(top + 1), 63u);  // saturating
  EXPECT_EQ(Histogram::bucket_index(~std::uint64_t{0}), 63u);
  EXPECT_EQ(Histogram::bucket_upper(0), 1u);
  EXPECT_EQ(Histogram::bucket_upper(5), 32u);
  EXPECT_EQ(Histogram::bucket_upper(63), top);
}

TEST(Histogram, ObserveUpdatesCountSumAndBuckets) {
  Histogram h;
  h.observe(1);
  h.observe(3);
  h.observe(3);
  h.observe(1000);
  EXPECT_EQ(h.count(), 4u);
  EXPECT_EQ(h.sum(), 1007u);
  EXPECT_EQ(h.bucket_count(0), 1u);
  EXPECT_EQ(h.bucket_count(2), 2u);
  EXPECT_EQ(h.bucket_count(10), 1u);  // 1000 in (512, 1024]
  h.reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.bucket_count(2), 0u);
}

TEST(Registry, FindOrCreateReturnsStableIdentity) {
  Registry r;
  Counter& a = r.counter("palu_test_total", {{"k", "v"}});
  Counter& b = r.counter("palu_test_total", {{"k", "v"}});
  Counter& other = r.counter("palu_test_total", {{"k", "w"}});
  EXPECT_EQ(&a, &b);
  EXPECT_NE(&a, &other);
  a.inc(3);
  EXPECT_EQ(b.value(), 3u);
  EXPECT_EQ(other.value(), 0u);
  EXPECT_EQ(r.num_series(), 2u);
}

TEST(Registry, RejectsInvalidNamesAndKindConflicts) {
  Registry r;
  EXPECT_THROW(r.counter("1starts_with_digit"), InvalidArgument);
  EXPECT_THROW(r.counter("has space"), InvalidArgument);
  EXPECT_THROW(r.counter("palu_ok_total", {{"0bad", "v"}}),
               InvalidArgument);
  r.counter("palu_dual_total");
  EXPECT_THROW(r.gauge("palu_dual_total"), InvalidArgument);
  EXPECT_THROW(r.histogram("palu_dual_total"), InvalidArgument);
  // Grammar allows colons in metric names but not label keys.
  EXPECT_NO_THROW(r.counter("palu:colon:ok"));
  EXPECT_TRUE(valid_metric_name("palu:colon:ok"));
  EXPECT_FALSE(valid_label_name("palu:colon:ok"));
}

TEST(Registry, SnapshotIsSortedTrimmedAndEqualityComparable) {
  Registry r;
  r.counter("palu_b_total").inc(2);
  r.counter("palu_a_total").inc(1);
  r.gauge("palu_g").set(-5);
  Histogram& h = r.histogram("palu_h_ns");
  h.observe(3);  // bucket 2 is the last non-empty one

  const RegistrySnapshot snap = r.snapshot();
  ASSERT_EQ(snap.counters.size(), 2u);
  EXPECT_EQ(snap.counters[0].name, "palu_a_total");
  EXPECT_EQ(snap.counters[1].name, "palu_b_total");
  ASSERT_EQ(snap.gauges.size(), 1u);
  EXPECT_EQ(snap.gauges[0].value, -5);
  ASSERT_EQ(snap.histograms.size(), 1u);
  EXPECT_EQ(snap.histograms[0].count, 1u);
  EXPECT_EQ(snap.histograms[0].buckets.size(), 3u);  // trimmed after bin 2

  // Identical event streams into a second registry → identical samples.
  Registry r2;
  r2.counter("palu_b_total").inc(2);
  r2.counter("palu_a_total").inc(1);
  const RegistrySnapshot snap2 = r2.snapshot();
  EXPECT_EQ(snap.counters, snap2.counters);
}

TEST(Registry, ResetValuesKeepsRegistrations) {
  Registry r;
  Counter& c = r.counter("palu_c_total");
  c.inc(9);
  r.histogram("palu_h_ns").observe(4);
  r.reset_values();
  EXPECT_EQ(r.num_series(), 2u);
  EXPECT_EQ(c.value(), 0u);  // cached reference survives the reset
  EXPECT_EQ(r.snapshot().histograms[0].count, 0u);
}

TEST(TraceSpan, DeliversToAccumulatorOnceAndIdempotently) {
  std::uint64_t acc = 5;
  TraceSpan span(acc);
  const std::uint64_t elapsed = span.stop();
  EXPECT_EQ(acc, 5 + elapsed);
  EXPECT_EQ(span.stop(), 0u);  // repeat stop is a no-op
  EXPECT_EQ(acc, 5 + elapsed);
}

TEST(TraceSpan, DeliversToHistogramOnDestruction) {
  Histogram h;
  { TraceSpan span(h); }
  EXPECT_EQ(h.count(), 1u);
}

TEST(Preregister, CataloguesEveryFamilyIdempotently) {
  Registry r;
  preregister_palu_metrics(r);
  const std::size_t n = r.num_series();
  EXPECT_GT(n, 0u);
  preregister_palu_metrics(r);  // idempotent
  EXPECT_EQ(r.num_series(), n);
  const RegistrySnapshot snap = r.snapshot();
  bool saw_runs = false;
  for (const auto& c : snap.counters) {
    if (c.name == names::kSweepRuns) saw_runs = true;
  }
  EXPECT_TRUE(saw_runs);
  EXPECT_FALSE(snap.help.empty());
  EXPECT_NE(snap.help.find(names::kIngestLines), snap.help.end());
}

TEST(Export, JsonCarriesAllSections) {
  Registry r;
  r.counter("palu_c_total", {{"k", "a\"b"}}).inc(1);
  r.gauge("palu_g").set(-2);
  r.histogram("palu_h_ns").observe(7);
  std::ostringstream os;
  write_json(os, r.snapshot());
  const std::string json = os.str();
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"gauges\""), std::string::npos);
  EXPECT_NE(json.find("\"histograms\""), std::string::npos);
  EXPECT_NE(json.find("palu_c_total"), std::string::npos);
  EXPECT_NE(json.find("a\\\"b"), std::string::npos);  // label escaping
  EXPECT_NE(json.find("-2"), std::string::npos);
}

TEST(Export, PrometheusRoundTripsThroughValidator) {
  Registry r;
  preregister_palu_metrics(r);
  r.counter(names::kSweepRuns).inc(3);
  r.gauge(names::kSweepPoolThreads).set(4);
  r.histogram(names::kSweepDurationNs).observe(1234567);
  r.counter("palu_extra_total", {{"why", "quo\"te\\and\nnewline"}}).inc(1);
  std::ostringstream os;
  write_prometheus(os, r.snapshot());
  std::istringstream is(os.str());
  const std::vector<std::string> errors = validate_prometheus(is);
  for (const std::string& e : errors) ADD_FAILURE() << e;
  EXPECT_TRUE(errors.empty());
  EXPECT_NE(os.str().find("# TYPE palu_sweep_runs_total counter"),
            std::string::npos);
  EXPECT_NE(os.str().find("le=\"+Inf\""), std::string::npos);
}

// Each corrupt input carries its # TYPE header so the violation reported
// is the one under test, not the missing-TYPE fallback.
TEST(Export, ValidatorRejectsMalformedExposition) {
  const auto first_error = [](const std::string& text) {
    std::istringstream is(text);
    const std::vector<std::string> errors = validate_prometheus(is);
    return errors.empty() ? std::string{} : errors.front();
  };
  const std::string type_line = "# TYPE palu_h_ns histogram\n";
  EXPECT_NE(first_error(type_line +
                        "palu_h_ns_bucket{le=\"1\"} 5\n"
                        "palu_h_ns_bucket{le=\"2\"} 3\n"
                        "palu_h_ns_bucket{le=\"+Inf\"} 5\n"
                        "palu_h_ns_sum 9\n"
                        "palu_h_ns_count 5\n")
                .find("not cumulative"),
            std::string::npos);
  EXPECT_NE(first_error(type_line +
                        "palu_h_ns_bucket{le=\"1\"} 5\n"
                        "palu_h_ns_sum 9\n"
                        "palu_h_ns_count 5\n")
                .find("missing +Inf"),
            std::string::npos);
  EXPECT_NE(first_error(type_line +
                        "palu_h_ns_bucket{le=\"+Inf\"} 5\n"
                        "palu_h_ns_sum 9\n"
                        "palu_h_ns_count 4\n")
                .find("disagrees"),
            std::string::npos);
  EXPECT_NE(first_error("9bad_name 1\n").find("invalid metric name"),
            std::string::npos);
  EXPECT_NE(first_error("palu_untyped_total 1\n").find("no preceding"),
            std::string::npos);
  // An empty exposition is trivially valid.
  EXPECT_EQ(first_error(""), std::string{});
}

TEST(Export, PromPathReplacesOnlyTheFileExtension) {
  EXPECT_EQ(prom_path_for("metrics.json"), "metrics.prom");
  EXPECT_EQ(prom_path_for("metrics"), "metrics.prom");
  // A dot in a directory name is not the file's extension.
  EXPECT_EQ(prom_path_for("out.d/metrics"), "out.d/metrics.prom");
}

}  // namespace
}  // namespace palu::obs
