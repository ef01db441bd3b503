// Serve-subsystem suite: the incremental tail reader (chunk boundaries
// never charge the error budget), the bounded backpressure queue, the
// PALU_FAILPOINT spec parser, checkpoint durability and exact round
// trips, and in-process ServeDaemon runs — clean EOF service, the
// restore-equivalence acceptance property, and deterministic fault
// injection through all four serve failpoints.  Everything runs off
// fixed seeds and temp files; no subprocesses, no signals.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "palu/common/error.hpp"
#include "palu/common/failpoint.hpp"
#include "palu/common/result.hpp"
#include "palu/core/streaming.hpp"
#include "palu/graph/generators.hpp"
#include "palu/io/tail.hpp"
#include "palu/obs/metrics.hpp"
#include "palu/obs/names.hpp"
#include "palu/serve/checkpoint.hpp"
#include "palu/serve/daemon.hpp"
#include "palu/serve/options.hpp"
#include "palu/serve/queue.hpp"
#include "palu/stats/histogram.hpp"
#include "palu/traffic/quantities.hpp"
#include "palu/traffic/stream.hpp"
#include "palu/traffic/window_accumulator.hpp"

namespace palu {
namespace {

using io::TailRecord;
using io::TraceTailReader;
using serve::BoundedRecordQueue;

// ------------------------------------------------------------ fixtures

// A deterministic heavy-tailed packet stream: preferential-attachment
// underlying network driven by Pareto edge rates, the same shape the
// paper's windows are fit against.
std::vector<traffic::Packet> synth_packets(std::size_t n,
                                           std::uint64_t seed) {
  Rng grng(seed);
  const auto g = graph::barabasi_albert(grng, 400, 2);
  traffic::SyntheticTrafficGenerator gen(g, traffic::RateModel{},
                                         Rng(seed + 1));
  std::vector<traffic::Packet> out(n);
  gen.next_batch(out);
  return out;
}

std::string to_trace_text(const std::vector<traffic::Packet>& packets) {
  std::ostringstream out;
  for (const auto& p : packets) out << p.src << ' ' << p.dst << '\n';
  return out.str();
}

// Unique-per-test temp path under the build tree's cwd.
std::string temp_path(const std::string& stem) {
  return ::testing::TempDir() + "palu_serve_" + stem;
}

void write_file(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  ASSERT_TRUE(out.good()) << path;
  out << text;
  ASSERT_TRUE(out.good()) << path;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

class ServeTest : public ::testing::Test {
 protected:
  void TearDown() override { failpoints::disarm_all(); }
};

// ------------------------------------------------------- tail reader

// The regression the serve ingest path depends on: a writer that emits
// one byte at a time presents every prefix of every line as a "partial
// last line".  The batch reader would misparse each prefix and bleed the
// error budget; the tail reader must treat them as incomplete and parse
// each line exactly once, with zero drops, even under a zero budget.
TEST_F(ServeTest, TailReaderByteByByteWriterNeverChargesBudget) {
  const auto packets = synth_packets(200, 71);
  const std::string text = to_trace_text(packets);

  IngestOptions opts;
  opts.policy = ErrorPolicy::kSkip;
  opts.max_bad_lines = 0;  // any spurious "malformed" charge throws
  TraceTailReader reader(opts);

  std::vector<TailRecord> records;
  for (char byte : text) {
    ASSERT_NO_THROW(reader.feed(std::string_view(&byte, 1), records));
  }
  ASSERT_EQ(records.size(), packets.size());
  for (std::size_t i = 0; i < packets.size(); ++i) {
    EXPECT_EQ(records[i].packet, packets[i]) << "record " << i;
  }
  EXPECT_EQ(reader.report().lines_dropped, 0u);
  EXPECT_EQ(reader.report().lines_read, packets.size());
  EXPECT_EQ(reader.consumed_offset(), text.size());
  EXPECT_EQ(reader.buffered_bytes(), 0u);
}

TEST_F(ServeTest, TailReaderChunkBoundaryMidLine) {
  TraceTailReader reader;
  std::vector<TailRecord> records;
  EXPECT_EQ(reader.feed("12", records), 0u);
  EXPECT_EQ(reader.buffered_bytes(), 2u);
  EXPECT_EQ(reader.feed("3 45", records), 0u);
  EXPECT_EQ(reader.feed("6\n7 8\n", records), 2u);
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].packet, (traffic::Packet{123, 456}));
  EXPECT_EQ(records[1].packet, (traffic::Packet{7, 8}));
  // Offsets point one past each line's '\n'.
  EXPECT_EQ(records[0].end_offset, std::strlen("123 456\n"));
  EXPECT_EQ(records[1].end_offset, std::strlen("123 456\n7 8\n"));
}

TEST_F(ServeTest, TailReaderFinishFlushesUnterminatedTail) {
  TraceTailReader reader;
  std::vector<TailRecord> records;
  reader.feed("1 2\n3 4", records);
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(reader.buffered_bytes(), 3u);
  EXPECT_EQ(reader.finish(records), 1u);
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[1].packet, (traffic::Packet{3, 4}));
  // EOF terminates the line without a '\n' byte.
  EXPECT_EQ(reader.consumed_offset(), std::strlen("1 2\n3 4"));
  EXPECT_EQ(reader.buffered_bytes(), 0u);
}

TEST_F(ServeTest, TailReaderSkipsCommentsAndBlanks) {
  TraceTailReader reader;
  std::vector<TailRecord> records;
  reader.feed("# header\n\n  \n5 6\n", records);
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].packet, (traffic::Packet{5, 6}));
  EXPECT_EQ(reader.report().lines_read, 1u);
}

// end_offset is the crash-resume anchor: a second reader rebased at any
// record's end_offset and fed the remaining bytes must produce exactly
// the remaining records.
TEST_F(ServeTest, TailReaderEndOffsetIsExactResumeAnchor) {
  const auto packets = synth_packets(50, 97);
  const std::string text = to_trace_text(packets);
  TraceTailReader reader;
  std::vector<TailRecord> records;
  reader.feed(text, records);
  ASSERT_EQ(records.size(), packets.size());

  for (std::size_t cut : {std::size_t{0}, std::size_t{24},
                          packets.size() - 1}) {
    const std::uint64_t anchor = records[cut].end_offset;
    TraceTailReader resumed({}, anchor);
    std::vector<TailRecord> rest;
    resumed.feed(std::string_view(text).substr(anchor), rest);
    ASSERT_EQ(rest.size(), packets.size() - cut - 1) << "cut " << cut;
    for (std::size_t i = 0; i < rest.size(); ++i) {
      EXPECT_EQ(rest[i].packet, records[cut + 1 + i].packet);
      EXPECT_EQ(rest[i].end_offset, records[cut + 1 + i].end_offset);
    }
  }
}

TEST_F(ServeTest, TailReaderPolicyMatchesReadTrace) {
  // Strict: the malformed line throws with read_trace's semantics.
  {
    TraceTailReader reader;  // default policy is kStrict
    std::vector<TailRecord> records;
    reader.feed("1 2\n", records);
    EXPECT_THROW(reader.feed("bogus line\n", records), DataError);
  }
  // Skip: dropped and counted, stream continues.
  {
    IngestOptions opts;
    opts.policy = ErrorPolicy::kSkip;
    TraceTailReader reader(opts);
    std::vector<TailRecord> records;
    reader.feed("1 2\nbogus\n3 4\n", records);
    ASSERT_EQ(records.size(), 2u);
    EXPECT_EQ(reader.report().lines_dropped, 1u);
  }
  // Skip with an exhausted budget: throws once drops exceed it.
  {
    IngestOptions opts;
    opts.policy = ErrorPolicy::kSkip;
    opts.max_bad_lines = 1;
    TraceTailReader reader(opts);
    std::vector<TailRecord> records;
    reader.feed("junk one\n", records);
    EXPECT_THROW(reader.feed("junk two\n", records), DataError);
  }
}

TEST_F(ServeTest, TailReaderResetAtDropsPartialLine) {
  TraceTailReader reader;
  std::vector<TailRecord> records;
  reader.feed("1 2\n3 ", records);
  EXPECT_EQ(reader.buffered_bytes(), 2u);
  reader.reset_at(reader.consumed_offset());
  EXPECT_EQ(reader.buffered_bytes(), 0u);
  // Re-reading from the reset offset parses the line exactly once.
  reader.feed("3 4\n", records);
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[1].packet, (traffic::Packet{3, 4}));
}

// ------------------------------------------------------------- queue

// The daemon queues sealed windows, which own their buffers, so the
// queue tests run on a move-only payload: a copy anywhere in push or pop
// would not compile.
using Item = std::unique_ptr<std::uint64_t>;
using ItemQueue = serve::BoundedQueue<Item>;

Item item(std::uint64_t v) { return std::make_unique<std::uint64_t>(v); }

TEST_F(ServeTest, QueueFifoThenCloseDrains) {
  ItemQueue q(8, serve::BackpressurePolicy::kBlock);
  for (std::uint64_t i = 0; i < 3; ++i) {
    EXPECT_EQ(q.push(item(i)), ItemQueue::PushResult::kOk);
  }
  q.close();
  EXPECT_EQ(q.push(item(9)), ItemQueue::PushResult::kClosed);
  Item out;
  for (std::uint64_t i = 0; i < 3; ++i) {
    ASSERT_TRUE(q.pop(out));
    EXPECT_EQ(*out, i);
  }
  EXPECT_FALSE(q.pop(out));
}

TEST_F(ServeTest, QueueDropNewestShedsIncoming) {
  ItemQueue q(2, serve::BackpressurePolicy::kDropNewest);
  EXPECT_EQ(q.push(item(0)), ItemQueue::PushResult::kOk);
  EXPECT_EQ(q.push(item(1)), ItemQueue::PushResult::kOk);
  EXPECT_EQ(q.push(item(2)), ItemQueue::PushResult::kDroppedNewest);
  EXPECT_EQ(q.dropped(), 1u);
  EXPECT_EQ(q.depth(), 2u);
  q.close();
  Item out;
  ASSERT_TRUE(q.pop(out));
  EXPECT_EQ(*out, 0u);
  ASSERT_TRUE(q.pop(out));
  EXPECT_EQ(*out, 1u);
  EXPECT_FALSE(q.pop(out));
}

TEST_F(ServeTest, QueueDropOldestEvictsHead) {
  ItemQueue q(2, serve::BackpressurePolicy::kDropOldest);
  q.push(item(0));
  q.push(item(1));
  EXPECT_EQ(q.push(item(2)), ItemQueue::PushResult::kDroppedOldest);
  EXPECT_EQ(q.dropped(), 1u);
  q.close();
  Item out;
  ASSERT_TRUE(q.pop(out));
  EXPECT_EQ(*out, 1u);
  ASSERT_TRUE(q.pop(out));
  EXPECT_EQ(*out, 2u);
}

TEST_F(ServeTest, QueueBlockPolicyWaitsForConsumer) {
  ItemQueue q(1, serve::BackpressurePolicy::kBlock);
  ASSERT_EQ(q.push(item(0)), ItemQueue::PushResult::kOk);
  std::atomic<bool> second_admitted{false};
  std::thread producer([&] {
    const auto r = q.push(item(1));  // blocks until the pop below
    EXPECT_EQ(r, ItemQueue::PushResult::kOk);
    second_admitted.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(second_admitted.load());
  Item out;
  ASSERT_TRUE(q.pop(out));
  EXPECT_EQ(*out, 0u);
  producer.join();
  EXPECT_TRUE(second_admitted.load());
  ASSERT_TRUE(q.pop(out));
  EXPECT_EQ(*out, 1u);
}

TEST_F(ServeTest, QueueAbortUnblocksBothEnds) {
  ItemQueue q(1, serve::BackpressurePolicy::kBlock);
  q.push(item(0));
  std::thread producer([&] {
    EXPECT_EQ(q.push(item(1)), ItemQueue::PushResult::kClosed);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  q.abort();
  producer.join();
  Item out;
  EXPECT_FALSE(q.pop(out));  // aborted queues drop queued items too
  EXPECT_EQ(out, nullptr);
}

// The per-record form perfbench's reference pipeline runs on.
TEST_F(ServeTest, QueueCarriesTailRecords) {
  BoundedRecordQueue q(2, serve::BackpressurePolicy::kDropNewest);
  EXPECT_EQ(q.push({{1, 2}, 10}), BoundedRecordQueue::PushResult::kOk);
  EXPECT_EQ(q.push({{3, 4}, 20}), BoundedRecordQueue::PushResult::kOk);
  EXPECT_EQ(q.push({{5, 6}, 30}),
            BoundedRecordQueue::PushResult::kDroppedNewest);
  q.close();
  TailRecord rec;
  ASSERT_TRUE(q.pop(rec));
  EXPECT_EQ(rec.packet, (traffic::Packet{1, 2}));
  EXPECT_EQ(rec.end_offset, 10u);
  ASSERT_TRUE(q.pop(rec));
  EXPECT_EQ(rec.end_offset, 20u);
  EXPECT_FALSE(q.pop(rec));
}

TEST_F(ServeTest, ParseBackpressureRoundTrips) {
  using serve::BackpressurePolicy;
  EXPECT_EQ(serve::parse_backpressure("block"), BackpressurePolicy::kBlock);
  EXPECT_EQ(serve::parse_backpressure("drop-oldest"),
            BackpressurePolicy::kDropOldest);
  EXPECT_EQ(serve::parse_backpressure("drop-newest"),
            BackpressurePolicy::kDropNewest);
  EXPECT_THROW(serve::parse_backpressure("dropoldest"), InvalidArgument);
  for (auto p : {BackpressurePolicy::kBlock, BackpressurePolicy::kDropOldest,
                 BackpressurePolicy::kDropNewest}) {
    EXPECT_EQ(serve::parse_backpressure(serve::to_string(p)), p);
  }
}

// ----------------------------------------------------- failpoint spec

TEST_F(ServeTest, ArmFromSpecArmsWithFiresAndSkip) {
  failpoints::arm_from_spec("spec.test:2:1");
  // Hit 1 passes (skip), hits 2-3 fire, hit 4 passes (fires exhausted).
  EXPECT_NO_THROW(PALU_FAILPOINT("spec.test"));
  EXPECT_THROW(PALU_FAILPOINT("spec.test"), ConvergenceError);
  EXPECT_THROW(PALU_FAILPOINT("spec.test"), ConvergenceError);
  EXPECT_NO_THROW(PALU_FAILPOINT("spec.test"));
}

TEST_F(ServeTest, ArmFromSpecMultipleClauses) {
  failpoints::arm_from_spec("spec.a:1,spec.b");
  EXPECT_THROW(PALU_FAILPOINT("spec.a"), ConvergenceError);
  EXPECT_NO_THROW(PALU_FAILPOINT("spec.a"));
  EXPECT_THROW(PALU_FAILPOINT("spec.b"), ConvergenceError);
  EXPECT_THROW(PALU_FAILPOINT("spec.b"), ConvergenceError);  // unbounded
}

TEST_F(ServeTest, ArmFromSpecRejectsMalformedClauses) {
  EXPECT_THROW(failpoints::arm_from_spec(":3"), InvalidArgument);
  EXPECT_THROW(failpoints::arm_from_spec("site:"), InvalidArgument);
  EXPECT_THROW(failpoints::arm_from_spec("site:abc"), InvalidArgument);
  EXPECT_THROW(failpoints::arm_from_spec("site:1:xyz"), InvalidArgument);
  // A bare sign is not a number (it used to parse as 0 and silently arm
  // a never-firing failpoint), and a digit string past INT_MAX must be
  // rejected rather than overflow.
  EXPECT_THROW(failpoints::arm_from_spec("site:-"), InvalidArgument);
  EXPECT_THROW(failpoints::arm_from_spec("site:1:-"), InvalidArgument);
  EXPECT_THROW(failpoints::arm_from_spec("site:99999999999999999999"),
               InvalidArgument);
  EXPECT_THROW(failpoints::arm_from_spec("site:2147483648"),
               InvalidArgument);
  EXPECT_NO_THROW(failpoints::arm_from_spec("spec.max:2147483647"));
  // Empty clauses between commas are tolerated (trailing comma idiom).
  EXPECT_NO_THROW(failpoints::arm_from_spec("spec.c:1,"));
}

// -------------------------------------------------------- checkpoint

// Builds an estimator that has digested `windows` synthetic windows.
core::WindowedStreamingEstimator digested_estimator(std::size_t windows,
                                                    std::uint64_t seed) {
  const auto packets = synth_packets(windows * 2000, seed);
  core::WindowedStreamingEstimator est;
  traffic::WindowAccumulator acc;
  for (std::size_t w = 0; w < windows; ++w) {
    acc.begin_window();
    for (std::size_t i = 0; i < 2000; ++i) {
      const auto& p = packets[w * 2000 + i];
      acc.add(p.src, p.dst);
    }
    est.refit_window(acc.histogram(traffic::Quantity::kUndirectedDegree));
  }
  return est;
}

bool bitwise_equal(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

void expect_snapshot_equal(const core::StreamingFitSnapshot& a,
                           const core::StreamingFitSnapshot& b) {
  EXPECT_EQ(a.freshness, b.freshness);
  EXPECT_EQ(a.stage, b.stage);
  EXPECT_TRUE(bitwise_equal(a.fit.alpha, b.fit.alpha));
  EXPECT_TRUE(bitwise_equal(a.fit.c, b.fit.c));
  EXPECT_TRUE(bitwise_equal(a.fit.mu, b.fit.mu));
  EXPECT_TRUE(bitwise_equal(a.fit.u, b.fit.u));
  EXPECT_TRUE(bitwise_equal(a.fit.l, b.fit.l));
  EXPECT_TRUE(bitwise_equal(a.fit.tail_r_squared, b.fit.tail_r_squared));
  EXPECT_EQ(a.fit.tail_points, b.fit.tail_points);
  EXPECT_EQ(a.fit.mu_identifiable, b.fit.mu_identifiable);
  EXPECT_EQ(a.zm_valid, b.zm_valid);
  if (a.zm_valid && b.zm_valid) {
    EXPECT_TRUE(bitwise_equal(a.zm.alpha, b.zm.alpha));
    EXPECT_TRUE(bitwise_equal(a.zm.delta, b.zm.delta));
    EXPECT_EQ(a.zm.dmax, b.zm.dmax);
    EXPECT_TRUE(bitwise_equal(a.zm.objective, b.zm.objective));
    EXPECT_EQ(a.zm.converged, b.zm.converged);
  }
}

TEST_F(ServeTest, CheckpointRoundTripIsExact) {
  serve::Checkpoint ck;
  ck.input_offset = 123456789;
  ck.packets_ingested = 6000;
  ck.windows_published = 3;
  ck.window_packets = 2000;
  ck.quantity = "undirected_degree";
  ck.sliding_horizon = 4;
  ck.warm_start = true;
  ck.estimator = digested_estimator(3, 11).state();
  ck.estimator.consecutive_stale = 2;  // non-zero so the field must travel

  const std::string path = temp_path("roundtrip.ck");
  serve::save_checkpoint(path, ck);
  const serve::Checkpoint back = serve::load_checkpoint(path);

  EXPECT_EQ(back.input_offset, ck.input_offset);
  EXPECT_EQ(back.packets_ingested, ck.packets_ingested);
  EXPECT_EQ(back.windows_published, ck.windows_published);
  EXPECT_EQ(back.window_packets, ck.window_packets);
  EXPECT_EQ(back.quantity, ck.quantity);
  EXPECT_EQ(back.sliding_horizon, ck.sliding_horizon);
  EXPECT_EQ(back.warm_start, ck.warm_start);
  EXPECT_EQ(back.estimator.windows, ck.estimator.windows);
  EXPECT_EQ(back.estimator.stale_windows, ck.estimator.stale_windows);
  EXPECT_EQ(back.estimator.consecutive_stale,
            ck.estimator.consecutive_stale);
  expect_snapshot_equal(back.estimator.window_lane,
                        ck.estimator.window_lane);
  expect_snapshot_equal(back.estimator.sliding_lane,
                        ck.estimator.sliding_lane);
  ASSERT_EQ(back.estimator.horizon.size(), ck.estimator.horizon.size());
  for (std::size_t i = 0; i < ck.estimator.horizon.size(); ++i) {
    EXPECT_EQ(back.estimator.horizon[i].sorted(),
              ck.estimator.horizon[i].sorted());
  }
  std::remove(path.c_str());
}

TEST_F(ServeTest, CheckpointRejectsCorruption) {
  serve::Checkpoint ck;
  ck.window_packets = 100;
  ck.quantity = "undirected_degree";
  ck.sliding_horizon = 2;
  const std::string path = temp_path("corrupt.ck");
  serve::save_checkpoint(path, ck);
  const std::string good = read_file(path);

  EXPECT_THROW(serve::load_checkpoint(temp_path("no_such.ck")), DataError);

  std::string flipped = good;
  flipped[good.find("offset") + 7] = 'X';  // damage a payload byte
  write_file(path, flipped);
  EXPECT_THROW(serve::load_checkpoint(path), DataError);

  write_file(path, good.substr(0, good.size() / 2));  // truncate
  EXPECT_THROW(serve::load_checkpoint(path), DataError);

  write_file(path, good);  // intact again: loads
  EXPECT_NO_THROW(serve::load_checkpoint(path));
  std::remove(path.c_str());
}

// Regression: restore() used to zero the consecutive-staleness counter,
// so a daemon restored mid-stale-streak reported a staleness gauge that
// diverged from an uninterrupted run over the same windows.  The counter
// must survive the checkpoint round trip and keep counting from where
// the interrupted run left off.
TEST_F(ServeTest, RestorePreservesConsecutiveStaleness) {
  const auto packets = synth_packets(6 * 1500, 17);
  std::vector<stats::DegreeHistogram> windows;
  traffic::WindowAccumulator acc;
  for (std::size_t w = 0; w < 6; ++w) {
    acc.begin_window();
    for (std::size_t i = 0; i < 1500; ++i) {
      const auto& p = packets[w * 1500 + i];
      acc.add(p.src, p.dst);
    }
    windows.push_back(acc.histogram(traffic::Quantity::kUndirectedDegree));
  }

  // Every refit force-degraded: the streak grows by one per window.
  core::WindowedStreamingEstimator reference;
  for (const auto& w : windows) reference.refit_window(w, "fit timeout");
  ASSERT_EQ(reference.consecutive_stale(), 6u);

  // Interrupted run: cut after 3 stale windows, round-trip the state
  // through a checkpoint file, replay the remaining stale windows.
  core::WindowedStreamingEstimator before;
  for (std::size_t w = 0; w < 3; ++w)
    before.refit_window(windows[w], "fit timeout");
  ASSERT_EQ(before.consecutive_stale(), 3u);

  serve::Checkpoint ck;
  ck.window_packets = 1500;
  ck.quantity = "undirected_degree";
  ck.sliding_horizon = before.options().sliding_horizon;
  ck.estimator = before.state();
  const std::string path = temp_path("stale.ck");
  serve::save_checkpoint(path, ck);
  const serve::Checkpoint loaded = serve::load_checkpoint(path);
  std::remove(path.c_str());

  core::WindowedStreamingEstimator after;
  after.restore(loaded.estimator);
  EXPECT_EQ(after.consecutive_stale(), 3u);
  for (std::size_t w = 3; w < 6; ++w)
    after.refit_window(windows[w], "fit timeout");
  EXPECT_EQ(after.consecutive_stale(), reference.consecutive_stale());
  EXPECT_EQ(after.state().stale_windows, reference.state().stale_windows);
}

// The acceptance property (3 seeds): checkpoint the estimator at a
// random window boundary, restore into a fresh estimator, replay the
// remaining windows, and require every subsequent refit bit-identical
// to the uninterrupted run's.
TEST_F(ServeTest, CheckpointRestoreAtRandomBoundaryIsByteIdentical) {
  for (const std::uint64_t seed : {3u, 17u, 202u}) {
    constexpr std::size_t kWindows = 6;
    constexpr std::size_t kPerWindow = 1500;
    const auto packets = synth_packets(kWindows * kPerWindow, seed);

    std::vector<stats::DegreeHistogram> windows;
    traffic::WindowAccumulator acc;
    for (std::size_t w = 0; w < kWindows; ++w) {
      acc.begin_window();
      for (std::size_t i = 0; i < kPerWindow; ++i) {
        const auto& p = packets[w * kPerWindow + i];
        acc.add(p.src, p.dst);
      }
      windows.push_back(
          acc.histogram(traffic::Quantity::kUndirectedDegree));
    }

    // Uninterrupted reference run.
    core::WindowedStreamingEstimator reference;
    std::vector<core::StreamingRefit> ref_refits;
    for (const auto& w : windows) ref_refits.push_back(reference.refit_window(w));

    // Interrupted run: cut at a seed-derived boundary, round-trip the
    // state through an actual checkpoint file, replay the tail.
    const std::size_t cut = 1 + static_cast<std::size_t>(
                                    Rng(seed).uniform_index(kWindows - 1));
    core::WindowedStreamingEstimator before;
    for (std::size_t w = 0; w < cut; ++w) before.refit_window(windows[w]);

    serve::Checkpoint ck;
    ck.window_packets = kPerWindow;
    ck.quantity = "undirected_degree";
    ck.sliding_horizon = before.options().sliding_horizon;
    ck.estimator = before.state();
    const std::string path = temp_path("boundary.ck");
    serve::save_checkpoint(path, ck);
    const serve::Checkpoint loaded = serve::load_checkpoint(path);
    std::remove(path.c_str());

    core::WindowedStreamingEstimator after;
    after.restore(loaded.estimator);
    for (std::size_t w = cut; w < kWindows; ++w) {
      const auto got = after.refit_window(windows[w]);
      SCOPED_TRACE("seed " + std::to_string(seed) + " cut " +
                   std::to_string(cut) + " window " + std::to_string(w));
      EXPECT_EQ(got.window_index, ref_refits[w].window_index);
      EXPECT_EQ(got.fresh, ref_refits[w].fresh);
      expect_snapshot_equal(got.window, ref_refits[w].window);
      expect_snapshot_equal(got.sliding, ref_refits[w].sliding);
    }
  }
}

// ------------------------------------------------------------ daemon

serve::ServeOptions daemon_opts(const std::string& trace_path,
                                obs::Registry& registry,
                                std::ostringstream& out) {
  serve::ServeOptions opts;
  opts.input_path = trace_path;
  opts.window_packets = 1500;
  opts.metrics = &registry;
  opts.out = &out;
  opts.install_signal_handlers = false;
  opts.backoff_initial_ms = 1.0;  // keep fault-path tests fast
  opts.backoff_max_ms = 5.0;
  return opts;
}

std::vector<std::string> lines_of(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  return lines;
}

TEST_F(ServeTest, DaemonServesEveryWindowToEof) {
  const std::string trace = temp_path("eof.trace");
  write_file(trace, to_trace_text(synth_packets(6000, 5)));

  obs::Registry registry;
  std::ostringstream out;
  serve::ServeDaemon daemon(daemon_opts(trace, registry, out));
  EXPECT_EQ(daemon.run(), 0);
  EXPECT_EQ(daemon.windows_published(), 4u);  // 6000 / 1500

  const auto lines = lines_of(out.str());
  ASSERT_EQ(lines.size(), 4u);
  for (std::size_t i = 0; i < lines.size(); ++i) {
    EXPECT_EQ(lines[i].rfind("window=" + std::to_string(i) + " ", 0), 0u);
    EXPECT_NE(lines[i].find("degraded=- "), std::string::npos);
    EXPECT_NE(lines[i].find("w_state=fresh"), std::string::npos);
  }
  EXPECT_EQ(registry.counter(obs::names::kServePackets).value(), 6000u);
  EXPECT_EQ(registry.counter(obs::names::kServeWindowsFitted).value(), 4u);
  EXPECT_EQ(registry.counter(obs::names::kServeWindowsStale).value(), 0u);
  std::remove(trace.c_str());
}

TEST_F(ServeTest, DaemonStrictBadDataExitsThree) {
  const std::string trace = temp_path("bad.trace");
  write_file(trace, "1 2\nnot a packet\n3 4\n");

  obs::Registry registry;
  std::ostringstream out;
  auto opts = daemon_opts(trace, registry, out);
  opts.window_packets = 1;
  serve::ServeDaemon daemon(std::move(opts));
  EXPECT_EQ(daemon.run(), 3);
  EXPECT_FALSE(daemon.fatal_message().empty());
  std::remove(trace.c_str());
}

// The restore-equivalence acceptance check, in process: an interrupted
// run resumed from its checkpoint emits byte-identical result lines to
// the uninterrupted run from the boundary on.
TEST_F(ServeTest, DaemonRestoreResumesByteIdentical) {
  const std::string trace = temp_path("restore.trace");
  const std::string ck = temp_path("restore.ck");
  write_file(trace, to_trace_text(synth_packets(9000, 23)));

  obs::Registry reg_full;
  std::ostringstream full_out;
  serve::ServeDaemon full(daemon_opts(trace, reg_full, full_out));
  ASSERT_EQ(full.run(), 0);  // 6 windows

  obs::Registry reg_prefix;
  std::ostringstream prefix_out;
  auto prefix_opts = daemon_opts(trace, reg_prefix, prefix_out);
  prefix_opts.checkpoint_path = ck;
  prefix_opts.max_windows = 3;
  serve::ServeDaemon prefix(std::move(prefix_opts));
  ASSERT_EQ(prefix.run(), 0);

  obs::Registry reg_resume;
  std::ostringstream resume_out;
  auto resume_opts = daemon_opts(trace, reg_resume, resume_out);
  resume_opts.checkpoint_path = ck;
  resume_opts.restore = true;
  serve::ServeDaemon resumed(std::move(resume_opts));
  ASSERT_EQ(resumed.run(), 0);
  EXPECT_EQ(reg_resume.counter(obs::names::kServeRestores,
                               {{"outcome", "ok"}})
                .value(),
            1u);

  EXPECT_EQ(prefix_out.str() + resume_out.str(), full_out.str());
  std::remove(trace.c_str());
  std::remove(ck.c_str());
}

// serve is at-least-once across a crash: it publishes a window's line
// before it checkpoints that window, so --restore publishes again every
// window after the last good checkpoint.  Here the checkpoint after
// window 2 and the final flush both fail; the resumed run must repeat the
// prefix run's window=2 line byte for byte and then continue exactly as
// the uninterrupted run does.
TEST_F(ServeTest, DaemonRestoreRepublishesWindowsAfterLastCheckpoint) {
  const std::string trace = temp_path("alo.trace");
  const std::string ck = temp_path("alo.ck");
  write_file(trace, to_trace_text(synth_packets(9000, 43)));
  std::remove(ck.c_str());

  obs::Registry reg_full;
  std::ostringstream full_out;
  serve::ServeDaemon full(daemon_opts(trace, reg_full, full_out));
  ASSERT_EQ(full.run(), 0);  // 6 windows

  // The checkpoints after windows 0 and 1 land; the two after them fail.
  failpoints::arm("serve.checkpoint", /*fires=*/2, /*skip=*/2);
  obs::Registry reg_prefix;
  std::ostringstream prefix_out;
  auto prefix_opts = daemon_opts(trace, reg_prefix, prefix_out);
  prefix_opts.checkpoint_path = ck;
  prefix_opts.max_windows = 3;
  serve::ServeDaemon prefix(std::move(prefix_opts));
  ASSERT_EQ(prefix.run(), 0);
  failpoints::disarm_all();
  EXPECT_EQ(reg_prefix.counter(obs::names::kServeCheckpointWrites).value(),
            2u);
  EXPECT_EQ(
      reg_prefix.counter(obs::names::kServeCheckpointFailures).value(), 2u);

  obs::Registry reg_resume;
  std::ostringstream resume_out;
  auto resume_opts = daemon_opts(trace, reg_resume, resume_out);
  resume_opts.checkpoint_path = ck;
  resume_opts.restore = true;
  serve::ServeDaemon resumed(std::move(resume_opts));
  ASSERT_EQ(resumed.run(), 0);

  const auto full_lines = lines_of(full_out.str());
  const auto prefix_lines = lines_of(prefix_out.str());
  const auto resume_lines = lines_of(resume_out.str());
  ASSERT_EQ(full_lines.size(), 6u);
  ASSERT_EQ(prefix_lines.size(), 3u);
  ASSERT_EQ(resume_lines.size(), 4u);
  EXPECT_EQ(prefix_lines[2].rfind("window=2 ", 0), 0u);
  EXPECT_EQ(resume_lines[0], prefix_lines[2]);
  EXPECT_EQ(resume_lines,
            std::vector<std::string>(full_lines.begin() + 2,
                                     full_lines.end()));
  std::remove(trace.c_str());
  std::remove(ck.c_str());
}

TEST_F(ServeTest, DaemonFitFailpointDegradesThenRecovers) {
  const std::string trace = temp_path("fitfp.trace");
  write_file(trace, to_trace_text(synth_packets(6000, 29)));

  failpoints::arm_from_spec("serve.fit:2");
  obs::Registry registry;
  std::ostringstream out;
  serve::ServeDaemon daemon(daemon_opts(trace, registry, out));
  EXPECT_EQ(daemon.run(), 0);

  const auto lines = lines_of(out.str());
  ASSERT_EQ(lines.size(), 4u);
  EXPECT_NE(lines[0].find("degraded=injected"), std::string::npos);
  EXPECT_NE(lines[1].find("degraded=injected"), std::string::npos);
  EXPECT_NE(lines[2].find("degraded=- "), std::string::npos);
  EXPECT_NE(lines[3].find("degraded=- "), std::string::npos);
  EXPECT_NE(lines[2].find("w_state=fresh"), std::string::npos);
  EXPECT_EQ(registry.counter(obs::names::kServeWindowsStale).value(), 2u);
  EXPECT_EQ(registry.counter(obs::names::kServeWindowsFitted).value(), 4u);
  std::remove(trace.c_str());
}

TEST_F(ServeTest, DaemonIngestFailpointRestartIsLossless) {
  const std::string trace = temp_path("ingfp.trace");
  write_file(trace, to_trace_text(synth_packets(6000, 31)));

  obs::Registry reg_clean;
  std::ostringstream clean_out;
  serve::ServeDaemon clean(daemon_opts(trace, reg_clean, clean_out));
  ASSERT_EQ(clean.run(), 0);

  failpoints::arm_from_spec("serve.ingest:1");
  obs::Registry reg_faulty;
  std::ostringstream faulty_out;
  serve::ServeDaemon faulty(daemon_opts(trace, reg_faulty, faulty_out));
  EXPECT_EQ(faulty.run(), 0);
  EXPECT_EQ(faulty_out.str(), clean_out.str());
  EXPECT_EQ(reg_faulty
                .counter(obs::names::kServeStageRestarts,
                         {{"stage", "ingest"}})
                .value(),
            1u);
  std::remove(trace.c_str());
}

// A restart mid-file: serve.ingest fires after three 64 KiB reads, with a
// partial line buffered and a partial window open.  The stage reopens the
// file, seeks to the consumed offset and publishes the clean run's lines,
// whether or not it follows the file.
TEST_F(ServeTest, DaemonIngestRestartMidFileIsLossless) {
  const std::string trace = temp_path("ingmid.trace");
  const std::string text = to_trace_text(synth_packets(60000, 47));
  write_file(trace, text);
  constexpr std::size_t kRead = 3 * 65536;
  ASSERT_GT(text.size(), kRead + 65536);
  ASSERT_NE(text[kRead - 1], '\n');
  ASSERT_NE(std::count(text.begin(), text.begin() + kRead, '\n') % 1500, 0);

  obs::Registry reg_clean;
  std::ostringstream clean_out;
  serve::ServeDaemon clean(daemon_opts(trace, reg_clean, clean_out));
  ASSERT_EQ(clean.run(), 0);
  ASSERT_EQ(clean.windows_published(), 40u);

  for (const bool follow : {false, true}) {
    failpoints::arm_from_spec("serve.ingest:1:3");
    obs::Registry registry;
    std::ostringstream out;
    auto opts = daemon_opts(trace, registry, out);
    opts.follow = follow;
    opts.max_windows = 40;  // a followed file never ends
    opts.poll_interval_ms = 1.0;
    serve::ServeDaemon faulty(std::move(opts));
    EXPECT_EQ(faulty.run(), 0) << follow;
    EXPECT_EQ(out.str(), clean_out.str()) << follow;
    EXPECT_EQ(registry.counter(obs::names::kServePackets).value(), 60000u)
        << follow;
    EXPECT_EQ(registry
                  .counter(obs::names::kServeStageRestarts,
                           {{"stage", "ingest"}})
                  .value(),
              1u)
        << follow;
    failpoints::disarm_all();
  }
  std::remove(trace.c_str());
}

TEST_F(ServeTest, DaemonIngestFailpointUnboundedGivesUp) {
  const std::string trace = temp_path("ingup.trace");
  write_file(trace, to_trace_text(synth_packets(3000, 37)));

  failpoints::arm_from_spec("serve.ingest");
  obs::Registry registry;
  std::ostringstream out;
  auto opts = daemon_opts(trace, registry, out);
  opts.max_stage_restarts = 3;
  serve::ServeDaemon daemon(std::move(opts));
  EXPECT_EQ(daemon.run(), 1);
  EXPECT_FALSE(daemon.fatal_message().empty());
  EXPECT_EQ(registry
                .counter(obs::names::kServeStageRestarts,
                         {{"stage", "ingest"}})
                .value(),
            3u);
  std::remove(trace.c_str());
}

TEST_F(ServeTest, DaemonCheckpointFailpointKeepsServing) {
  const std::string trace = temp_path("ckfp.trace");
  const std::string ck = temp_path("ckfp.ck");
  write_file(trace, to_trace_text(synth_packets(6000, 41)));

  failpoints::arm_from_spec("serve.checkpoint");
  obs::Registry registry;
  std::ostringstream out;
  auto opts = daemon_opts(trace, registry, out);
  opts.checkpoint_path = ck;
  serve::ServeDaemon daemon(std::move(opts));
  EXPECT_EQ(daemon.run(), 0);
  EXPECT_EQ(daemon.windows_published(), 4u);
  EXPECT_GE(registry.counter(obs::names::kServeCheckpointFailures).value(),
            4u);
  EXPECT_EQ(registry.counter(obs::names::kServeCheckpointWrites).value(),
            0u);
  EXPECT_TRUE(read_file(ck).empty());  // never written
  std::remove(trace.c_str());
}

TEST_F(ServeTest, DaemonRestoreFailpointFallsBackToFreshStart) {
  const std::string trace = temp_path("refp.trace");
  const std::string ck = temp_path("refp.ck");
  write_file(trace, to_trace_text(synth_packets(6000, 43)));

  {  // produce a perfectly valid checkpoint at window 2
    obs::Registry registry;
    std::ostringstream out;
    auto opts = daemon_opts(trace, registry, out);
    opts.checkpoint_path = ck;
    opts.max_windows = 2;
    serve::ServeDaemon daemon(std::move(opts));
    ASSERT_EQ(daemon.run(), 0);
  }

  failpoints::arm_from_spec("serve.restore");
  obs::Registry registry;
  std::ostringstream out;
  auto opts = daemon_opts(trace, registry, out);
  opts.checkpoint_path = ck;
  opts.restore = true;
  serve::ServeDaemon daemon(std::move(opts));
  EXPECT_EQ(daemon.run(), 0);
  // Fresh start: the run begins at window 0, not at the checkpoint.
  const auto lines = lines_of(out.str());
  ASSERT_GE(lines.size(), 1u);
  EXPECT_EQ(lines[0].rfind("window=0 ", 0), 0u);
  EXPECT_EQ(registry
                .counter(obs::names::kServeRestores, {{"outcome", "failed"}})
                .value(),
            1u);
  std::remove(trace.c_str());
  std::remove(ck.c_str());
}

// The checkpoint's FNV-1a trailer, recomputed so a test can hand-edit a
// payload and still present a file that passes the checksum.
std::string with_checksum(const std::string& payload) {
  std::uint64_t h = 1469598103934665603ULL;
  for (const char c : payload) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;
  }
  char sum[32];
  std::snprintf(sum, sizeof sum, "checksum %016llx\n",
                static_cast<unsigned long long>(h));
  return payload + sum;
}

// A checkpoint written before the profile-likelihood fit (format v2: a
// warm-base flag after each lane's stage, ladder stage tokens) is intact
// but no longer restorable: the daemon counts a failed restore and starts
// fresh at window 0.
TEST_F(ServeTest, DaemonTakesFreshStartFromV2Checkpoint) {
  const std::string trace = temp_path("v2.trace");
  const std::string ck = temp_path("v2.ck");
  write_file(trace, to_trace_text(synth_packets(6000, 59)));
  {
    obs::Registry registry;
    std::ostringstream out;
    auto opts = daemon_opts(trace, registry, out);
    opts.checkpoint_path = ck;
    opts.max_windows = 2;
    serve::ServeDaemon daemon(std::move(opts));
    ASSERT_EQ(daemon.run(), 0);
  }

  // Rewrite the v3 file the run left into its v2 form.
  std::istringstream v3(read_file(ck));
  std::string payload;
  std::string line;
  while (std::getline(v3, line) && line.rfind("checksum ", 0) != 0) {
    if (line == "palu-serve-checkpoint v3") {
      line = "palu-serve-checkpoint v2";
    } else if (line.rfind("lane ", 0) == 0) {
      // lane <name> <freshness> <stage> ... → ... levmar 0 ...
      std::size_t at = 0;
      for (int k = 0; k < 3; ++k) at = line.find(' ', at) + 1;
      line = line.substr(0, at) + "levmar 0" +
             line.substr(line.find(' ', at));
    }
    payload += line + '\n';
  }
  write_file(ck, with_checksum(payload));
  try {
    serve::load_checkpoint(ck);
    ADD_FAILURE() << "a v2 checkpoint loaded";
  } catch (const DataError& e) {
    EXPECT_NE(std::string(e.what()).find("unknown format version"),
              std::string::npos)
        << e.what();
  }

  obs::Registry registry;
  std::ostringstream out;
  auto opts = daemon_opts(trace, registry, out);
  opts.checkpoint_path = ck;
  opts.restore = true;
  serve::ServeDaemon daemon(std::move(opts));
  EXPECT_EQ(daemon.run(), 0);
  const auto lines = lines_of(out.str());
  ASSERT_EQ(lines.size(), 4u);
  EXPECT_EQ(lines[0].rfind("window=0 ", 0), 0u);
  EXPECT_EQ(registry
                .counter(obs::names::kServeRestores, {{"outcome", "failed"}})
                .value(),
            1u);
  EXPECT_EQ(registry
                .counter(obs::names::kServeRestores, {{"outcome", "ok"}})
                .value(),
            0u);
  std::remove(trace.c_str());
  std::remove(ck.c_str());
}

TEST_F(ServeTest, DaemonRejectsMismatchedCheckpointFingerprint) {
  const std::string trace = temp_path("fp.trace");
  const std::string ck = temp_path("fp.ck");
  write_file(trace, to_trace_text(synth_packets(6000, 47)));

  {
    obs::Registry registry;
    std::ostringstream out;
    auto opts = daemon_opts(trace, registry, out);
    opts.checkpoint_path = ck;
    opts.max_windows = 2;
    serve::ServeDaemon daemon(std::move(opts));
    ASSERT_EQ(daemon.run(), 0);
  }

  // Same checkpoint, different N_V: restoring would be silently wrong,
  // so the daemon must count a failed restore and start fresh.
  obs::Registry registry;
  std::ostringstream out;
  auto opts = daemon_opts(trace, registry, out);
  opts.checkpoint_path = ck;
  opts.restore = true;
  opts.window_packets = 1000;
  serve::ServeDaemon daemon(std::move(opts));
  EXPECT_EQ(daemon.run(), 0);
  const auto lines = lines_of(out.str());
  ASSERT_GE(lines.size(), 1u);
  EXPECT_EQ(lines[0].rfind("window=0 ", 0), 0u);
  EXPECT_EQ(registry
                .counter(obs::names::kServeRestores, {{"outcome", "failed"}})
                .value(),
            1u);
  std::remove(trace.c_str());
  std::remove(ck.c_str());
}

// Follow-mode drain: the daemon tails a file that never ends; a
// request_stop() (what SIGINT/SIGTERM deliver) must drain the queue,
// publish nothing half-finished, flush a final checkpoint, and return 0.
TEST_F(ServeTest, DaemonRequestStopDrainsAndCheckpoints) {
  const std::string trace = temp_path("drain.trace");
  const std::string ck = temp_path("drain.ck");
  write_file(trace, to_trace_text(synth_packets(4500, 53)));

  obs::Registry registry;
  std::ostringstream out;
  auto opts = daemon_opts(trace, registry, out);
  opts.follow = true;  // EOF polls instead of finishing
  opts.poll_interval_ms = 5.0;
  opts.checkpoint_path = ck;
  serve::ServeDaemon daemon(std::move(opts));

  std::thread runner([&] { EXPECT_EQ(daemon.run(), 0); });
  // Wait (bounded) for the three full windows to be served.
  for (int i = 0; i < 2000 && daemon.windows_published() < 3; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(daemon.windows_published(), 3u);
  daemon.request_stop();
  runner.join();

  EXPECT_EQ(lines_of(out.str()).size(), 3u);
  // The final checkpoint reflects the last completed boundary.
  const serve::Checkpoint saved = serve::load_checkpoint(ck);
  EXPECT_EQ(saved.windows_published, 3u);
  EXPECT_EQ(saved.estimator.windows, 3u);
  std::remove(trace.c_str());
  std::remove(ck.c_str());
}

// A result-line sink whose flush blocks until released: pins the fit
// stage inside its first publish so a test can pile complete windows
// into the queue before requesting a stop.
class GateBuf : public std::stringbuf {
 public:
  void release() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      open_ = true;
    }
    cv_.notify_all();
  }
  bool blocked() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return blocked_;
  }

 protected:
  int sync() override {
    std::unique_lock<std::mutex> lock(mutex_);
    blocked_ = true;
    cv_.wait(lock, [this] { return open_; });
    blocked_ = false;
    return std::stringbuf::sync();
  }

 private:
  mutable std::mutex mutex_;
  std::condition_variable cv_;
  bool open_ = false;
  bool blocked_ = false;
};

// The hard half of the drain contract: a stop that arrives while the
// queue still holds complete windows must not discard them.  The fit
// stage keeps popping to the queue's close and publishes every complete
// window before the daemon exits 0.  (The easy half — stop with an
// already-empty queue — is DaemonRequestStopDrainsAndCheckpoints.)
TEST_F(ServeTest, DaemonStopWithQueuedWindowsDrainsThemAll) {
  const std::string trace = temp_path("drainq.trace");
  const std::string ck = temp_path("drainq.ck");
  write_file(trace, to_trace_text(synth_packets(4500, 61)));

  GateBuf gate;
  std::ostream gated_out(&gate);
  obs::Registry registry;
  serve::ServeOptions opts;
  opts.input_path = trace;
  opts.window_packets = 1500;
  opts.metrics = &registry;
  opts.out = &gated_out;
  opts.install_signal_handlers = false;
  opts.follow = true;  // EOF polls, so only a stop ends ingest
  opts.poll_interval_ms = 5.0;
  opts.checkpoint_path = ck;
  serve::ServeDaemon daemon(std::move(opts));

  std::thread runner([&] { EXPECT_EQ(daemon.run(), 0); });
  // Wait (bounded) until the fit stage is pinned inside window 0's
  // publish and the ingest stage has queued the other two full windows.
  auto& packets = registry.counter(obs::names::kServePackets);
  for (int i = 0;
       i < 2000 && !(gate.blocked() && packets.value() >= 4500); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ASSERT_TRUE(gate.blocked());
  ASSERT_GE(packets.value(), 4500u);

  daemon.request_stop();  // windows 1 and 2 are complete in the queue
  gate.release();
  runner.join();

  EXPECT_EQ(daemon.windows_published(), 3u);
  EXPECT_EQ(lines_of(gate.str()).size(), 3u);
  const serve::Checkpoint saved = serve::load_checkpoint(ck);
  EXPECT_EQ(saved.windows_published, 3u);
  EXPECT_EQ(saved.estimator.windows, 3u);
  std::remove(trace.c_str());
  std::remove(ck.c_str());
}

// Whole-window backpressure: with the fit stage pinned inside its first
// publish and room for one sealed window in the queue, the ingest stage
// seals the rest of the trace and a drop policy sheds whole windows.  A
// shed window publishes no line, so window= stays contiguous; every
// sealed window is either published or shed; the dropped counter counts
// N_V packets per shed window.
TEST_F(ServeTest, DaemonShedsWholeWindows) {
  constexpr std::uint64_t kWindow = 1500;
  constexpr std::uint64_t kSealed = 8;
  const std::string text = to_trace_text(synth_packets(kWindow * kSealed, 67));
  // End offset of each sealed window: one past its last line.
  std::vector<std::uint64_t> ends;
  std::uint64_t lines = 0;
  for (std::size_t at = 0; at < text.size(); ++at) {
    if (text[at] == '\n' && ++lines % kWindow == 0) ends.push_back(at + 1);
  }
  ASSERT_EQ(ends.size(), kSealed);

  for (const auto policy : {serve::BackpressurePolicy::kDropNewest,
                            serve::BackpressurePolicy::kDropOldest}) {
    const std::string name(serve::to_string(policy));
    SCOPED_TRACE(name);
    const std::string trace = temp_path("shed_" + name + ".trace");
    write_file(trace, text);

    GateBuf gate;
    std::ostream gated_out(&gate);
    obs::Registry registry;
    serve::ServeOptions opts;
    opts.input_path = trace;
    opts.window_packets = kWindow;
    opts.queue_capacity = kWindow;  // one sealed window
    opts.backpressure = policy;
    opts.metrics = &registry;
    opts.out = &gated_out;
    opts.install_signal_handlers = false;
    serve::ServeDaemon daemon(std::move(opts));

    std::thread runner([&] { EXPECT_EQ(daemon.run(), 0); });
    // Wait (bounded) until the fit stage is pinned inside its first
    // publish and the ingest stage has sealed every window.
    auto& packets = registry.counter(obs::names::kServePackets);
    const auto ready = [&] {
      return gate.blocked() && packets.value() >= kWindow * kSealed;
    };
    for (int i = 0; i < 2000 && !ready(); ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    ASSERT_TRUE(gate.blocked());
    ASSERT_EQ(packets.value(), kWindow * kSealed);
    gate.release();
    runner.join();

    const auto published = lines_of(gate.str());
    const std::uint64_t dropped =
        registry.counter(obs::names::kServeQueueDropped, {{"policy", name}})
            .value();
    ASSERT_EQ(dropped % kWindow, 0u);
    const std::uint64_t shed = dropped / kWindow;
    // One window pinned in its publish, at most one queued behind it.
    EXPECT_GE(shed, kSealed - 2);
    EXPECT_EQ(published.size() + shed, kSealed);
    EXPECT_EQ(daemon.windows_published(), published.size());
    for (std::size_t i = 0; i < published.size(); ++i) {
      EXPECT_EQ(published[i].rfind("window=" + std::to_string(i) + " ", 0),
                0u)
          << published[i];
    }
    // drop-newest never evicts the first sealed window; drop-oldest never
    // evicts the last.
    ASSERT_FALSE(published.empty());
    const bool newest = policy == serve::BackpressurePolicy::kDropNewest;
    const std::string& kept = newest ? published.front() : published.back();
    const std::uint64_t kept_end = newest ? ends.front() : ends.back();
    EXPECT_NE(kept.find(" offset=" + std::to_string(kept_end) + " "),
              std::string::npos)
        << kept;
    std::remove(trace.c_str());
  }
}

TEST_F(ServeTest, DaemonWritesSnapshotFiles) {
  const std::string trace = temp_path("snap.trace");
  const std::string snap = temp_path("snap.json");
  write_file(trace, to_trace_text(synth_packets(3000, 59)));

  obs::Registry registry;
  std::ostringstream out;
  auto opts = daemon_opts(trace, registry, out);
  opts.snapshot_path = snap;
  opts.snapshot_interval_ms = 10.0;
  serve::ServeDaemon daemon(std::move(opts));
  EXPECT_EQ(daemon.run(), 0);

  const std::string json = read_file(snap);
  EXPECT_NE(json.find("palu_serve_windows_fitted_total"),
            std::string::npos);
  const std::string prom =
      read_file(snap.substr(0, snap.size() - 5) + ".prom");
  EXPECT_NE(prom.find("palu_serve_packets_total"), std::string::npos);
  EXPECT_GE(registry.counter(obs::names::kServeSnapshotWrites).value(), 1u);
  std::remove(trace.c_str());
  std::remove(snap.c_str());
}

}  // namespace
}  // namespace palu
