// Unit tests for palu/io: trace round-trips, the window cut and CSV
// exports.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <ios>
#include <numeric>
#include <span>
#include <sstream>
#include <streambuf>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "palu/common/error.hpp"
#include "palu/fit/model_zoo.hpp"
#include "palu/io/csv.hpp"
#include "palu/io/tail.hpp"
#include "palu/io/trace.hpp"
#include "palu/stats/distribution.hpp"
#include "palu/stats/histogram.hpp"
#include "palu/traffic/sparse_matrix.hpp"
#include "palu/traffic/window_accumulator.hpp"

namespace palu::io {
namespace {

TEST(Trace, RoundTripsPackets) {
  const std::vector<traffic::Packet> pkts = {
      {1, 2}, {42, 7}, {18446744073709551615ull, 0}};
  std::stringstream buf;
  write_trace(buf, pkts);
  const auto parsed = read_trace(buf, {}).packets;
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
  const auto parsed = read_trace(buf, {}).packets;
  ASSERT_EQ(parsed.size(), 3u);
  EXPECT_EQ(parsed[0], (traffic::Packet{1, 2}));
  EXPECT_EQ(parsed[1], (traffic::Packet{3, 4}));
  EXPECT_EQ(parsed[2], (traffic::Packet{5, 6}));
}

TEST(Trace, RejectsMalformedLines) {
  const auto expect_bad = [](const char* text) {
    std::stringstream buf(text);
    EXPECT_THROW(read_trace(buf, {}), DataError) << text;
  };
  expect_bad("1\n");
  expect_bad("a b\n");
  expect_bad("1 2 3trailing\n");  // third token glued to second
  expect_bad("-1 2\n");
}

TEST(Trace, AllowsThreeTokenRejection) {
  // "1 2 3" has a stray third token: the dst parse must fail.
  std::stringstream buf("1 2 3\n");
  EXPECT_THROW(read_trace(buf, {}), DataError);
}

TEST(Trace, EmptyInputYieldsEmptyVector) {
  std::stringstream buf("");
  EXPECT_TRUE(read_trace(buf, {}).packets.empty());
}

TEST(Trace, ErrorsNameLineAndOffendingToken) {
  const auto message_for = [](const char* text) -> std::string {
    std::stringstream buf(text);
    try {
      read_trace(buf, {});
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
  const auto pkts = read_trace(buf, {}).packets;
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

// A malformed last line with no '\n' only fails at end of stream: every
// complete line before it must already have reached the sink, so a
// window that closed before it is still cut.
TEST(Trace, SinkGetsEveryCompleteLineBeforeTheLastLineFails) {
  IngestOptions strict;
  IngestOptions budget;
  budget.policy = ErrorPolicy::kSkip;
  budget.max_bad_lines = 1;
  const std::vector<std::pair<IngestOptions, std::string>> cases = {
      {strict, "1 2\n3 4\n5"},               // truncated after one token
      {budget, "1 2\nbad\n3 4\n5 6 junk"},  // the budget runs out last
  };
  for (const auto& [opts, text] : cases) {
    std::stringstream buf(text);
    std::vector<traffic::Packet> got;
    EXPECT_THROW(read_trace(buf, opts,
                            [&](std::span<const TailRecord> records) {
                              for (const TailRecord& r : records) {
                                got.push_back(r.packet);
                              }
                            }),
                 DataError)
        << text;
    EXPECT_EQ(got, (std::vector<traffic::Packet>{{1, 2}, {3, 4}})) << text;
  }
}

// ------------------------------------------------------------ read ahead

constexpr std::size_t kChunk = std::size_t{1} << 16;  // read_trace's read

// `lines` packet lines, sources of 1 to 12 digits and destinations below
// 997, with a comment every 1000 lines.  With lines of varying width, a
// line straddles each 64 KiB chunk boundary (the tests check that one
// does).
std::string read_ahead_text(std::size_t lines) {
  std::string text;
  std::uint64_t x = 88172645463325252ull;  // xorshift64
  for (std::size_t i = 0; i < lines; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    if (i % 1000 == 0) text += "# block " + std::to_string(i) + '\n';
    const std::uint64_t width = 1 + x % 12;
    std::uint64_t bound = 1;
    for (std::uint64_t d = 0; d < width; ++d) bound *= 10;
    text += std::to_string(x % bound) + ' ' + std::to_string((x >> 20) % 997);
    text += '\n';
  }
  return text;
}

// True when a line straddles each of the first `chunks` chunk
// boundaries: the byte before none of them is a '\n'.
bool lines_straddle_chunks(const std::string& text, std::size_t chunks) {
  for (std::size_t k = 1; k <= chunks; ++k) {
    if (text.at(k * kChunk - 1) == '\n') return false;
  }
  return true;
}

// Serves `text` through underflow() in 4 KiB blocks.  From byte
// `fail_at` on, underflow throws, as a filebuf does when read(2) fails,
// and the istream turns that into badbit.  When it first serves byte
// `slow_at` it sleeps 50 ms, so a read of that chunk is still in flight
// when the sink of the chunk before it returns.  Counts the underflow
// calls begun and ended.
class TextSource : public std::streambuf {
 public:
  explicit TextSource(std::string text,
                      std::size_t fail_at = std::string::npos,
                      std::size_t slow_at = std::string::npos)
      : text_(std::move(text)), fail_at_(fail_at), slow_at_(slow_at) {}

  std::size_t begun() const { return begun_.load(); }
  std::size_t ended() const { return ended_.load(); }
  std::size_t served() const { return at_.load(); }

 protected:
  int_type underflow() override {
    ++begun_;
    struct Ended {
      std::atomic<std::size_t>& n;
      ~Ended() { ++n; }
    } ended{ended_};
    const std::size_t at = at_.load();
    if (at >= fail_at_) throw std::ios_base::failure("read(2) failed");
    if (at == text_.size()) return traits_type::eof();
    if (at <= slow_at_ && slow_at_ < at + kBlock) {
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
    const std::size_t n = std::min({kBlock, text_.size() - at, fail_at_ - at});
    char* const p = text_.data() + at;
    setg(p, p, p + n);
    at_.store(at + n);
    return traits_type::to_int_type(*p);
  }

 private:
  static constexpr std::size_t kBlock = 4096;
  std::string text_;
  std::size_t fail_at_;
  std::size_t slow_at_;
  std::atomic<std::size_t> at_{0};
  std::atomic<std::size_t> begun_{0};
  std::atomic<std::size_t> ended_{0};
};

std::vector<std::pair<traffic::Packet, std::uint64_t>> flat(
    std::span<const TailRecord> records) {
  std::vector<std::pair<traffic::Packet, std::uint64_t>> out;
  for (const TailRecord& r : records) out.emplace_back(r.packet, r.end_offset);
  return out;
}

// The records of the lines whose '\n' lies in the first `bytes` bytes.
std::vector<std::pair<traffic::Packet, std::uint64_t>> records_before(
    const std::string& text, const IngestOptions& opts, std::size_t bytes) {
  TraceTailReader reader(opts);
  std::vector<TailRecord> records;
  reader.feed(std::string_view(text).substr(0, bytes), records);
  return flat(records);
}

void expect_same_report(const IngestReport& got, const IngestReport& want) {
  EXPECT_EQ(got.lines_read, want.lines_read);
  EXPECT_EQ(got.records_kept, want.records_kept);
  EXPECT_EQ(got.lines_repaired, want.lines_repaired);
  EXPECT_EQ(got.lines_dropped, want.lines_dropped);
  ASSERT_EQ(got.first_error.has_value(), want.first_error.has_value());
  if (got.first_error) {
    EXPECT_EQ(got.first_error->line_number, want.first_error->line_number);
    EXPECT_EQ(got.first_error->message, want.first_error->message);
    EXPECT_EQ(got.first_error->text, want.first_error->text);
  }
}

// The sink runs on the calling thread, once per chunk in stream order,
// and the batches joined are the records of one TraceTailReader fed the
// whole text, with the same report: clean under strict, and with a bad
// line every 3001 lines under skip and repair.
TEST(ReadAhead, SinkRunsOnTheCallingThreadInStreamOrder) {
  const std::string clean = read_ahead_text(30000);
  ASSERT_GT(clean.size(), 5 * kChunk);
  ASSERT_TRUE(lines_straddle_chunks(clean, 5));
  std::string damaged;
  std::size_t line = 0;
  for (std::size_t at = 0; at < clean.size(); ++line) {
    const std::size_t nl = clean.find('\n', at);
    damaged += line % 3001 == 7 ? std::string("9 x7 junk")
                                : clean.substr(at, nl - at);
    damaged += '\n';
    at = nl + 1;
  }
  IngestOptions skip;
  skip.policy = ErrorPolicy::kSkip;
  IngestOptions repair;
  repair.policy = ErrorPolicy::kRepair;
  const std::vector<std::pair<IngestOptions, const std::string*>> cases = {
      {IngestOptions{}, &clean}, {skip, &damaged}, {repair, &damaged}};
  for (const auto& [opts, text] : cases) {
    TraceTailReader whole(opts);
    std::vector<TailRecord> want;
    whole.feed(*text, want);
    whole.finish(want);
    const std::thread::id caller = std::this_thread::get_id();
    std::vector<std::pair<traffic::Packet, std::uint64_t>> got;
    std::size_t batches = 0;
    std::uint64_t last_offset = 0;
    std::istringstream in(*text);
    const IngestReport report =
        read_trace(in, opts, [&](std::span<const TailRecord> records) {
          EXPECT_EQ(std::this_thread::get_id(), caller);
          ++batches;
          // Each batch ends in the chunk it was parsed from.
          EXPECT_LE(records.back().end_offset, batches * kChunk);
          EXPECT_GT(records.front().end_offset, last_offset);
          last_offset = records.back().end_offset;
          const auto batch = flat(records);
          got.insert(got.end(), batch.begin(), batch.end());
        });
    EXPECT_EQ(batches, (text->size() + kChunk - 1) / kChunk);
    EXPECT_EQ(got, flat(want));
    expect_same_report(report, whole.report());
  }
}

// A strict malformed line in the third chunk: the sink takes the first
// two chunks' records, none of the third's, and then the DataError.
TEST(ReadAhead, StrictErrorInTheThirdChunkStopsAfterTwoChunks) {
  std::string text = read_ahead_text(30000);
  const std::size_t bad_at = text.find('\n', 2 * kChunk + 30000) + 1;
  text.insert(bad_at, "-5 6\n");
  ASSERT_LT(bad_at, 3 * kChunk);
  const auto want = records_before(text, {}, 2 * kChunk);
  ASSERT_LT(want.size(), records_before(text, {}, bad_at).size());
  std::vector<std::pair<traffic::Packet, std::uint64_t>> got;
  std::istringstream in(text);
  EXPECT_THROW(read_trace(in, {},
                          [&](std::span<const TailRecord> records) {
                            const auto batch = flat(records);
                            got.insert(got.end(), batch.begin(), batch.end());
                          }),
               DataError);
  EXPECT_EQ(got, want);
}

// A sink that throws on its second batch, while the third chunk, which
// holds a strict malformed line, is read ahead: read_trace rethrows the
// sink's exception, not the parse error, and returns with no read in
// flight.
TEST(ReadAhead, SinkFailureWinsOverTheChunkReadAhead) {
  struct SinkFailed {};
  std::string text = read_ahead_text(30000);
  text.insert(text.find('\n', 2 * kChunk + 100) + 1, "-5 6\n");
  TextSource source(text, std::string::npos, 2 * kChunk);
  std::istream in(&source);
  std::size_t batches = 0;
  EXPECT_THROW(read_trace(in, {},
                          [&](std::span<const TailRecord>) {
                            if (++batches == 2) throw SinkFailed{};
                          }),
               SinkFailed);
  EXPECT_EQ(batches, 2u);
  EXPECT_GT(source.served(), 2 * kChunk);  // the third chunk was read
  EXPECT_EQ(source.begun(), source.ended());
}

// A stream that fails part way is not a stream that ended: the sink takes
// the chunks read before the failed read, and then a DataError naming
// its byte offset, under every policy and outside the error budget.
TEST(ReadAhead, FailedReadIsADataErrorNotTheEndOfTheTrace) {
  const std::string text = read_ahead_text(215000);
  ASSERT_GT(text.size(), std::size_t{2400000});
  constexpr std::size_t kFailAt = 200000;
  constexpr std::size_t kGood = kFailAt / kChunk * kChunk;  // 196608
  IngestOptions skip;
  skip.policy = ErrorPolicy::kSkip;
  skip.max_bad_lines = 0;
  for (const IngestOptions& opts : {IngestOptions{}, skip}) {
    TextSource source(text, kFailAt);
    std::istream in(&source);
    std::vector<std::pair<traffic::Packet, std::uint64_t>> got;
    std::string message;
    try {
      read_trace(in, opts, [&](std::span<const TailRecord> records) {
        const auto batch = flat(records);
        got.insert(got.end(), batch.begin(), batch.end());
      });
    } catch (const DataError& e) {
      message = e.what();
    }
    EXPECT_EQ(message, "read_trace: read failed at byte offset " +
                           std::to_string(kGood));
    EXPECT_EQ(got, records_before(text, opts, kGood));
  }
}

// ------------------------------------------------------------ window cut

// 200 packet lines over a few dozen repeating pairs, with comments, blank
// lines and CRLF endings between them.
std::string cut_trace_text() {
  std::string text = "# cut trace\n";
  for (int i = 0; i < 200; ++i) {
    if (i % 17 == 0) text += "# comment\n";
    if (i % 23 == 0) text += "\n";
    text += std::to_string(i * 7 % 13) + ' ' + std::to_string(i * 5 % 11);
    text += i % 19 == 0 ? "\r\n" : "\n";
  }
  return text;
}

// What one sealed window held.
struct SealedWindow {
  std::vector<traffic::EdgePacketCounts> counts;  // sorted
  std::uint64_t end_offset = 0;
  bool operator==(const SealedWindow&) const = default;
};

SealedWindow seal_of(const traffic::WindowAccumulator& acc,
                     std::uint64_t end_offset) {
  SealedWindow w{{}, end_offset};
  acc.export_counts(w.counts);
  std::sort(w.counts.begin(), w.counts.end(),
            [](const auto& a, const auto& b) {
              return a.u != b.u ? a.u < b.u : a.v < b.v;
            });
  return w;
}

// Every record of `text`, read in one feed.
std::vector<TailRecord> one_shot(const std::string& text) {
  TraceTailReader reader;
  std::vector<TailRecord> records;
  reader.feed(text, records);
  reader.finish(records);
  return records;
}

// The windows of `n_valid` records sliced from a one-shot read.
std::vector<SealedWindow> one_shot_windows(const std::string& text,
                                           std::size_t n_valid) {
  const std::vector<TailRecord> all = one_shot(text);
  std::vector<SealedWindow> out;
  for (std::size_t end = n_valid; end <= all.size(); end += n_valid) {
    traffic::WindowAccumulator acc;
    for (std::size_t i = end - n_valid; i < end; ++i) {
      acc.add(all[i].packet.src, all[i].packet.dst);
    }
    out.push_back(seal_of(acc, all[end - 1].end_offset));
  }
  return out;
}

TEST(CutWindows, SealsTheOneShotSlicesAtEveryChunkSize) {
  const std::string text = cut_trace_text();
  constexpr std::size_t kWindow = 7;
  const auto want = one_shot_windows(text, kWindow);
  ASSERT_EQ(want.size(), 200u / kWindow);
  std::vector<std::size_t> chunk_sizes(48);
  std::iota(chunk_sizes.begin(), chunk_sizes.end(), 1);
  chunk_sizes.push_back(65536);
  for (const std::size_t chunk : chunk_sizes) {
    TraceTailReader reader;
    traffic::WindowAccumulator acc;
    std::vector<SealedWindow> got;
    const WindowSealed sealed = [&](std::uint64_t end_offset) {
      EXPECT_EQ(acc.total(), kWindow);
      got.push_back(seal_of(acc, end_offset));
      return true;
    };
    std::vector<TailRecord> records;
    std::size_t added = 0;
    for (std::size_t pos = 0; pos < text.size(); pos += chunk) {
      reader.feed(std::string_view(text).substr(pos, chunk), records);
      added += cut_windows(records, kWindow, acc, sealed);
      records.clear();
    }
    reader.finish(records);
    added += cut_windows(records, kWindow, acc, sealed);
    EXPECT_EQ(added, 200u) << chunk;
    EXPECT_EQ(got, want) << chunk;
    EXPECT_EQ(acc.total(), 200u % kWindow) << chunk;  // the open window
  }
}

TEST(CutWindows, FalseSealLeavesTheRestUnadded) {
  const std::vector<TailRecord> all = one_shot(cut_trace_text());
  const auto want = one_shot_windows(cut_trace_text(), 4);
  traffic::WindowAccumulator acc;
  std::vector<SealedWindow> got;
  std::size_t stop_at = 2;  // the seal that returns false
  const WindowSealed sealed = [&](std::uint64_t end_offset) {
    got.push_back(seal_of(acc, end_offset));
    return got.size() != stop_at;
  };
  const std::span<const TailRecord> records(all);
  const std::size_t first = cut_windows(records, 4, acc, sealed);
  EXPECT_EQ(first, 8u);  // through the record that sealed window 1
  EXPECT_EQ(got.size(), 2u);
  EXPECT_EQ(acc.total(), 0u);  // the next window was begun
  // The rest of the chunk cuts on from where the stop left it.
  stop_at = 0;
  const std::size_t rest = cut_windows(records.subspan(first), 4, acc, sealed);
  EXPECT_EQ(first + rest, all.size());
  EXPECT_EQ(got, want);
  // A stop at a chunk's last record still counts every record.
  got.clear();
  stop_at = 1;
  acc.begin_window();
  EXPECT_EQ(cut_windows(records.first(4), 4, acc, sealed), 4u);
  EXPECT_EQ(got.size(), 1u);
}

// serve's ingest restart: the reader drops its partial line and re-reads
// from its consumed offset, while the open window carries on.
TEST(CutWindows, OpenWindowSurvivesResetAt) {
  const std::string text = cut_trace_text();
  constexpr std::size_t kWindow = 9;
  const auto want = one_shot_windows(text, kWindow);
  const std::vector<TailRecord> all = one_shot(text);
  // Two bytes into the line after record i: mid-line, mid-window.
  for (const std::size_t i : {11u, 50u, 150u}) {
    const std::size_t cut_at = all[i].end_offset + 2;
    TraceTailReader reader;
    traffic::WindowAccumulator acc;
    std::vector<SealedWindow> got;
    const WindowSealed sealed = [&](std::uint64_t end_offset) {
      got.push_back(seal_of(acc, end_offset));
      return true;
    };
    std::vector<TailRecord> records;
    reader.feed(std::string_view(text).substr(0, cut_at), records);
    cut_windows(records, kWindow, acc, sealed);
    records.clear();
    ASSERT_GT(reader.buffered_bytes(), 0u) << cut_at;
    ASSERT_NE(acc.total(), 0u) << cut_at;
    reader.reset_at(reader.consumed_offset());
    reader.feed(std::string_view(text).substr(reader.consumed_offset()),
                records);
    reader.finish(records);
    cut_windows(records, kWindow, acc, sealed);
    EXPECT_EQ(got, want) << cut_at;
  }
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
  const auto parsed = read_trace(buf, {}).packets;
  const auto window = traffic::SparseCountMatrix::from_packets(parsed);
  EXPECT_EQ(window.total(), 100u);
}

}  // namespace
}  // namespace palu::io
