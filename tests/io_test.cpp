// Unit tests for palu/io: trace round-trips and CSV exports.
#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <streambuf>
#include <string>
#include <vector>

#include "palu/common/error.hpp"
#include "palu/fit/model_zoo.hpp"
#include "palu/io/csv.hpp"
#include "palu/io/trace.hpp"
#include "palu/stats/distribution.hpp"
#include "palu/stats/histogram.hpp"
#include "palu/traffic/sparse_matrix.hpp"

namespace palu::io {
namespace {

TEST(Trace, RoundTripsPackets) {
  const std::vector<traffic::Packet> pkts = {
      {1, 2}, {42, 7}, {18446744073709551615ull, 0}};
  std::stringstream buf;
  write_trace(buf, pkts);
  const auto parsed = read_trace(buf);
  EXPECT_EQ(parsed, pkts);
}

TEST(Trace, WritesExactBytes) {
  const std::vector<traffic::Packet> pkts = {
      {0, 9}, {10, 4294967296ull}, {18446744073709551615ull, 0}};
  std::ostringstream out;
  write_trace(out, pkts);
  EXPECT_EQ(out.str(),
            "# palu packet trace: one 'src dst' pair per line\n"
            "0 9\n"
            "10 4294967296\n"
            "18446744073709551615 0\n");
  graph::Graph g(11);
  g.add_edge(0, 9);
  g.add_edge(10, 9);
  std::ostringstream edges;
  write_edge_list(edges, g);
  EXPECT_EQ(edges.str(), "# nodes=11\n0 9\n10 9\n");
}

TEST(Trace, WritesTheBytesOfOperatorShiftPastOneBlock) {
  // Enough widest lines to cross the writer's block several times.
  std::vector<traffic::Packet> pkts;
  std::ostringstream want;
  want << "# palu packet trace: one 'src dst' pair per line\n";
  for (std::uint64_t i = 0; i < 5000; ++i) {
    const traffic::Packet p{~std::uint64_t{0} - i, i * 4294967296ull};
    pkts.push_back(p);
    want << p.src << ' ' << p.dst << '\n';
  }
  std::ostringstream out;
  write_trace(out, pkts);
  EXPECT_EQ(out.str(), want.str());
}

// Takes `room` bytes, then refuses every write, like a full disk.
class FullSink : public std::streambuf {
 public:
  explicit FullSink(std::streamsize room) : room_(room) {}

 protected:
  std::streamsize xsputn(const char*, std::streamsize n) override {
    const std::streamsize took = std::min(n, room_);
    room_ -= took;
    return took;
  }
  int_type overflow(int_type c) override {
    if (room_ == 0) return traits_type::eof();
    --room_;
    return c;
  }

 private:
  std::streamsize room_;
};

TEST(Trace, FailingStreamEndsFailed) {
  const std::vector<traffic::Packet> pkts(20000, traffic::Packet{12, 34});
  for (const std::streamsize room : {std::streamsize{0},
                                     std::streamsize{10},
                                     std::streamsize{70000}}) {
    FullSink sink(room);
    std::ostream out(&sink);
    write_trace(out, pkts);
    EXPECT_TRUE(out.fail()) << room;
  }
}

TEST(Trace, SkipsCommentsAndBlanks) {
  std::stringstream buf(
      "# header\n"
      "\n"
      "1 2\n"
      "   # indented comment\n"
      "3\t4\n"
      "  5   6  \r\n");
  const auto parsed = read_trace(buf);
  ASSERT_EQ(parsed.size(), 3u);
  EXPECT_EQ(parsed[0], (traffic::Packet{1, 2}));
  EXPECT_EQ(parsed[1], (traffic::Packet{3, 4}));
  EXPECT_EQ(parsed[2], (traffic::Packet{5, 6}));
}

TEST(Trace, RejectsMalformedLines) {
  const auto expect_bad = [](const char* text) {
    std::stringstream buf(text);
    EXPECT_THROW(read_trace(buf), DataError) << text;
  };
  expect_bad("1\n");
  expect_bad("a b\n");
  expect_bad("1 2 3trailing\n");  // third token glued to second
  expect_bad("-1 2\n");
}

TEST(Trace, AllowsThreeTokenRejection) {
  // "1 2 3" has a stray third token: the dst parse must fail.
  std::stringstream buf("1 2 3\n");
  EXPECT_THROW(read_trace(buf), DataError);
}

TEST(Trace, EmptyInputYieldsEmptyVector) {
  std::stringstream buf("");
  EXPECT_TRUE(read_trace(buf).empty());
}

TEST(Trace, ErrorsNameLineAndOffendingToken) {
  const auto message_for = [](const char* text) -> std::string {
    std::stringstream buf(text);
    try {
      read_trace(buf);
    } catch (const DataError& e) {
      return e.what();
    }
    return {};
  };
  // Negative id: rejected explicitly, not wrapped around to 2^64-1 the
  // way std::stoull would.
  const std::string neg = message_for("# c\n1 2\n-3 4\n");
  EXPECT_NE(neg.find("line 3"), std::string::npos) << neg;
  EXPECT_NE(neg.find("'-3'"), std::string::npos) << neg;
  EXPECT_NE(neg.find("negative"), std::string::npos) << neg;
  // 2^64 overflows uint64 by one.
  const std::string ovf = message_for("18446744073709551616 1\n");
  EXPECT_NE(ovf.find("line 1"), std::string::npos) << ovf;
  EXPECT_NE(ovf.find("overflow"), std::string::npos) << ovf;
  // Junk token.
  const std::string junk = message_for("1 x7\n");
  EXPECT_NE(junk.find("'x7'"), std::string::npos) << junk;
}

TEST(Trace, MaxU64StillParses) {
  std::stringstream buf("18446744073709551615 0\n");
  const auto pkts = read_trace(buf);
  ASSERT_EQ(pkts.size(), 1u);
  EXPECT_EQ(pkts[0].src, 18446744073709551615ull);
}

TEST(Trace, SkipPolicyDropsAndAccounts) {
  std::stringstream buf("1 2\nbad line\n3 4\n-5 6\n7 8\n");
  IngestOptions opts;
  opts.policy = ErrorPolicy::kSkip;
  const auto result = read_trace(buf, opts);
  EXPECT_EQ(result.packets,
            (std::vector<traffic::Packet>{{1, 2}, {3, 4}, {7, 8}}));
  EXPECT_EQ(result.report.lines_read, 5u);
  EXPECT_EQ(result.report.records_kept, 3u);
  EXPECT_EQ(result.report.lines_dropped, 2u);
  ASSERT_TRUE(result.report.first_error.has_value());
  EXPECT_EQ(result.report.first_error->line_number, 2u);
}

TEST(Trace, RepairPolicySalvagesGluedTokens) {
  // "17 42 99" (stray third column) and "a 5 b 6" (noise around ids):
  // repair salvages the first two clean u64 runs from each.
  std::stringstream buf("1 2\n17 42 99\na 5 b 6\n???\n");
  IngestOptions opts;
  opts.policy = ErrorPolicy::kRepair;
  const auto result = read_trace(buf, opts);
  EXPECT_EQ(result.packets,
            (std::vector<traffic::Packet>{{1, 2}, {17, 42}, {5, 6}}));
  EXPECT_EQ(result.report.records_kept, 1u);
  EXPECT_EQ(result.report.lines_repaired, 2u);
  EXPECT_EQ(result.report.lines_dropped, 1u);
}

TEST(Csv, HistogramRejectsNegativeCountInsteadOfWrapping) {
  // Regression: "-1" used to pass through std::stoull as 2^64-1.
  std::stringstream buf("d,count\n1,10\n2,-1\n");
  EXPECT_THROW(read_histogram_csv(buf), DataError);
}

TEST(Csv, HistogramRejectsOverflowingTotalsInsteadOfWrapping) {
  // Regression (PR 2): each token fits in a u64, so the row parses, but
  // d · c = 2^80 used to wrap the histogram's weighted total silently.
  const std::string hostile = "d,count\n1099511627776,1099511627776\n";
  std::stringstream strict(hostile);
  EXPECT_THROW(read_histogram_csv(strict), DataError);
  // The repair policy salvages rows, not arithmetic: overflow still
  // aborts the ingest rather than corrupting the accepted histogram.
  std::stringstream repaired(hostile);
  IngestOptions opts;
  opts.policy = ErrorPolicy::kRepair;
  EXPECT_THROW(read_histogram_csv(repaired, opts), DataError);
}

TEST(EdgeList, SkipPolicyDropsOutOfRangeEndpoints) {
  std::stringstream buf("# nodes=3\n0 1\n1 2\n2 9\n");
  IngestOptions opts;
  opts.policy = ErrorPolicy::kSkip;
  const auto result = read_edge_list(buf, opts);
  EXPECT_EQ(result.graph.num_nodes(), 3u);
  EXPECT_EQ(result.graph.num_edges(), 2u);
  EXPECT_EQ(result.report.lines_dropped, 1u);
  EXPECT_EQ(result.report.records_kept, 2u);
  ASSERT_TRUE(result.report.first_error.has_value());
  EXPECT_EQ(result.report.first_error->line_number, 4u);
}

TEST(Csv, DistributionExport) {
  stats::DegreeHistogram h;
  h.add(1, 3);
  h.add(4, 1);
  const auto dist = stats::EmpiricalDistribution::from_histogram(h);
  std::stringstream buf;
  write_distribution_csv(buf, dist);
  std::string line;
  std::getline(buf, line);
  EXPECT_EQ(line, "d,pmf,cdf");
  std::getline(buf, line);
  EXPECT_EQ(line, "1,0.75,0.75");
  std::getline(buf, line);
  EXPECT_EQ(line, "4,0.25,1");
}

TEST(Csv, PooledExportWithAndWithoutSigma) {
  const stats::LogBinned pooled({0.5, 0.25, 0.25});
  {
    std::stringstream buf;
    write_pooled_csv(buf, pooled);
    std::string line;
    std::getline(buf, line);
    EXPECT_EQ(line, "bin,d_i,mass");
    std::getline(buf, line);
    EXPECT_EQ(line, "0,1,0.5");
    std::getline(buf, line);
    EXPECT_EQ(line, "1,2,0.25");
  }
  {
    const std::vector<double> sigma = {0.1, 0.2, 0.3};
    std::stringstream buf;
    write_pooled_csv(buf, pooled, sigma);
    std::string line;
    std::getline(buf, line);
    EXPECT_EQ(line, "bin,d_i,mass,sigma");
    std::getline(buf, line);
    EXPECT_EQ(line, "0,1,0.5,0.1");
  }
  const std::vector<double> wrong = {0.1};
  std::stringstream buf;
  EXPECT_THROW(write_pooled_csv(buf, pooled, wrong),
               InvalidArgument);
}

TEST(Csv, ModelComparisonExport) {
  std::vector<fit::ModelComparison> ranking(2);
  ranking[0].family = "zeta";
  ranking[0].parameters = {{"alpha", 2.0}};
  ranking[0].log_likelihood = -100.0;
  ranking[0].aic = 202.0;
  ranking[0].delta_aic = 0.0;
  ranking[0].bic = 205.0;
  ranking[0].delta_bic = 0.0;
  ranking[1].family = "lognormal";
  ranking[1].parameters = {{"mu", 1.0}, {"sigma", 0.5}};
  ranking[1].log_likelihood = -120.0;
  ranking[1].aic = 244.0;
  ranking[1].delta_aic = 42.0;
  ranking[1].bic = 250.0;
  ranking[1].delta_bic = 45.0;
  std::stringstream buf;
  write_model_comparison_csv(buf, ranking);
  std::string line;
  std::getline(buf, line);
  EXPECT_EQ(line,
            "family,log_likelihood,aic,delta_aic,bic,delta_bic,"
            "parameters");
  std::getline(buf, line);
  EXPECT_EQ(line, "zeta,-100,202,0,205,0,alpha=2");
  std::getline(buf, line);
  EXPECT_EQ(line, "lognormal,-120,244,42,250,45,mu=1;sigma=0.5");
}

TEST(EdgeList, RoundTripsWithIsolatedNodes) {
  graph::Graph g(6);
  g.add_edge(0, 3);
  g.add_edge(3, 5);
  // nodes 1, 2, 4 isolated
  std::stringstream buf;
  write_edge_list(buf, g);
  const auto parsed = read_edge_list(buf);
  EXPECT_EQ(parsed.num_nodes(), 6u);
  EXPECT_EQ(parsed.edges(), g.edges());
}

TEST(EdgeList, InfersNodeCountWithoutDirective) {
  std::stringstream buf("0 2\n7 1\n");
  const auto g = read_edge_list(buf);
  EXPECT_EQ(g.num_nodes(), 8u);
  EXPECT_EQ(g.num_edges(), 2u);
}

TEST(EdgeList, RejectsOutOfRangeEndpoints) {
  std::stringstream buf("# nodes=3\n0 5\n");
  EXPECT_THROW(read_edge_list(buf), DataError);
  std::stringstream malformed("0\n");
  EXPECT_THROW(read_edge_list(malformed), DataError);
}

TEST(EdgeList, EmptyInputIsEmptyGraph) {
  std::stringstream buf("# just a comment\n");
  const auto g = read_edge_list(buf);
  EXPECT_EQ(g.num_nodes(), 0u);
  EXPECT_EQ(g.num_edges(), 0u);
}

TEST(Csv, PanelExport) {
  const std::vector<double> measured = {0.6, 0.3, 0.1};
  const std::vector<double> sigma = {0.01, 0.02, 0.03};
  const stats::LogBinned model({0.55, 0.35, 0.08, 0.02});
  std::stringstream buf;
  write_panel_csv(buf, measured, sigma, model);
  std::string line;
  std::getline(buf, line);
  EXPECT_EQ(line, "bin,d_i,measured,sigma,model");
  std::getline(buf, line);
  EXPECT_EQ(line, "0,1,0.6,0.01,0.55");
  // Model has one more bin than measured: row padded with zeros.
  std::getline(buf, line);
  std::getline(buf, line);
  std::getline(buf, line);
  EXPECT_EQ(line, "3,8,0,0,0.02");
  const std::vector<double> bad_sigma = {0.1};
  std::stringstream err;
  EXPECT_THROW(write_panel_csv(err, measured, bad_sigma, model),
               InvalidArgument);
}

TEST(TraceToPipeline, ParsedPacketsFeedWindows) {
  // End-to-end: serialize a synthetic stream, parse it back, aggregate.
  std::vector<traffic::Packet> pkts;
  for (NodeId i = 0; i < 100; ++i) pkts.push_back({i % 7, i % 5});
  std::stringstream buf;
  write_trace(buf, pkts);
  const auto parsed = read_trace(buf);
  const auto window = traffic::SparseCountMatrix::from_packets(parsed);
  EXPECT_EQ(window.total(), 100u);
}

}  // namespace
}  // namespace palu::io
