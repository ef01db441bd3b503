// Columnar window store suite (DESIGN.md §5j): format primitives, writer
// canonicalization, and the two acceptance properties of capture/replay —
// (1) replaying a captured sweep is byte-identical to the original
// WindowSweepResult for every quantity and seed, and
// (2) a capture killed mid-file is detected at open and cleanly truncated
// to its intact prefix under the ErrorPolicy budget machinery, never a
// crash.  Includes the io.capture_write / io.replay_read failpoints and
// the serve daemon's --record tee.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "palu/common/error.hpp"
#include "palu/common/failpoint.hpp"
#include "palu/common/result.hpp"
#include "palu/graph/generators.hpp"
#include "palu/obs/metrics.hpp"
#include "palu/obs/names.hpp"
#include "palu/serve/daemon.hpp"
#include "palu/serve/options.hpp"
#include "palu/stats/log_binning.hpp"
#include "palu/store/format.hpp"
#include "palu/store/reader.hpp"
#include "palu/store/writer.hpp"
#include "palu/testing/fault_injection.hpp"
#include "palu/traffic/quantities.hpp"
#include "palu/traffic/stream.hpp"
#include "palu/traffic/window_accumulator.hpp"
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

void expect_identical(const stats::DegreeHistogram& a,
                      const stats::DegreeHistogram& b,
                      const std::string& context) {
  EXPECT_EQ(a.total(), b.total()) << context;
  EXPECT_EQ(a.weighted_total(), b.weighted_total()) << context;
  EXPECT_EQ(a.sorted(), b.sorted()) << context;
}

// Fresh store directory per test, inside gtest's temp root.
std::string store_dir(const std::string& stem) {
  const std::string dir = ::testing::TempDir() + "palu_store_" + stem;
  std::filesystem::remove_all(dir);
  return dir;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

void write_file(const std::string& path, const std::string& bytes) {
  std::filesystem::create_directories(
      std::filesystem::path(path).parent_path());
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  ASSERT_TRUE(out.good()) << path;
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out.good()) << path;
}

IngestOptions skip_opts(std::size_t budget = ~std::size_t{0}) {
  IngestOptions opts;
  opts.policy = ErrorPolicy::kSkip;
  opts.max_bad_lines = budget;
  return opts;
}

class StoreTest : public ::testing::Test {
 protected:
  void TearDown() override { failpoints::disarm_all(); }
};

// ---------------------------------------------------------------------
// format primitives
// ---------------------------------------------------------------------

TEST(StoreFormat, VarintRoundTripsAcrossWidths) {
  const std::uint64_t values[] = {0,
                                  1,
                                  127,
                                  128,
                                  16383,
                                  16384,
                                  0xDEADBEEFULL,
                                  ~std::uint64_t{0}};
  std::vector<unsigned char> buf;
  for (const std::uint64_t v : values) {
    buf.clear();
    store::put_varint(buf, v);
    EXPECT_LE(buf.size(), store::kMaxVarintBytes);
    std::uint64_t back = 0;
    const unsigned char* end =
        store::get_varint(buf.data(), buf.data() + buf.size(), back);
    ASSERT_NE(end, nullptr) << v;
    EXPECT_EQ(end, buf.data() + buf.size()) << v;
    EXPECT_EQ(back, v);
  }
}

TEST(StoreFormat, VarintRejectsTruncationAndOverlength) {
  std::vector<unsigned char> buf;
  store::put_varint(buf, ~std::uint64_t{0});  // 10 bytes
  std::uint64_t v = 0;
  // Every strict prefix is truncated.
  for (std::size_t n = 0; n < buf.size(); ++n) {
    EXPECT_EQ(store::get_varint(buf.data(), buf.data() + n, v), nullptr);
  }
  // An 11-byte continuation run can encode nothing.
  const std::vector<unsigned char> overlong(11, 0x80);
  EXPECT_EQ(store::get_varint(overlong.data(),
                              overlong.data() + overlong.size(), v),
            nullptr);
}

TEST(StoreFormat, ZigzagIsAnInvolutionOnDeltas) {
  for (const std::int64_t d : {std::int64_t{0}, std::int64_t{1},
                               std::int64_t{-1}, std::int64_t{12345},
                               std::int64_t{-12345},
                               std::int64_t{1} << 62,
                               -(std::int64_t{1} << 62)}) {
    EXPECT_EQ(store::zigzag_decode(store::zigzag_encode(d)), d);
    // Small magnitudes must stay small so one-byte varints dominate.
    if (d >= -64 && d < 64) {
      EXPECT_LT(store::zigzag_encode(d), 128u);
    }
  }
}

// ---------------------------------------------------------------------
// writer canonicalization + reader round trip
// ---------------------------------------------------------------------

TEST_F(StoreTest, WriterCanonicalizesUnsortedDuplicatedZeroPaddedInput) {
  const std::string dir = store_dir("canonical");
  {
    store::WriterOptions wopts;
    wopts.node_domain = 100;
    wopts.seed = 42;
    store::WindowStoreWriter writer(dir, wopts);
    // Out of order, reversed endpoints, a duplicate pair split across
    // directions, zero rows, and a self-pair.
    const std::vector<traffic::EdgePacketCounts> raw = {
        {9, 3, 2, 5},    // reversed: canonical (3, 9, 5, 2)
        {1, 2, 0, 0},    // zero row: dropped
        {7, 7, 4, 0},    // self-pair
        {2, 1, 3, 1},    // canonical (1, 2, 1, 3)
        {3, 9, 1, 1},    // coalesces with the reversed record
        {1, 2, 0, 0},    // another zero row
    };
    writer.append(0, 1234, raw);
    writer.finish();
    const auto stats = writer.stats();
    EXPECT_EQ(stats.blocks, 1u);
    EXPECT_EQ(stats.records, 3u);
  }
  store::WindowStoreReader reader(dir);
  ASSERT_EQ(reader.num_windows(), 1u);
  EXPECT_EQ(reader.header().seed, 42u);
  EXPECT_EQ(reader.header().node_domain, 100u);
  std::vector<std::byte> buf;
  std::vector<traffic::EdgePacketCounts> out;
  EXPECT_EQ(reader.read_window(0, buf, out), 1234u);
  const std::vector<traffic::EdgePacketCounts> expected = {
      {1, 2, 1, 3}, {3, 9, 6, 3}, {7, 7, 4, 0}};
  EXPECT_EQ(out, expected);
  EXPECT_TRUE(reader.open_report().clean());
}

TEST_F(StoreTest, EmptyStoreAndEmptyWindowsRoundTrip) {
  const std::string dir = store_dir("empty");
  {
    store::WriterOptions wopts;
    wopts.node_domain = 10;
    store::WindowStoreWriter writer(dir, wopts);
    const std::vector<traffic::EdgePacketCounts> none;
    writer.append(0, 500, none);  // a window that saw no traffic
    writer.finish();
    writer.finish();  // idempotent
    EXPECT_THROW(writer.append(1, 1, none), Error);
  }
  store::WindowStoreReader reader(dir);
  ASSERT_EQ(reader.num_windows(), 1u);
  std::vector<std::byte> buf;
  std::vector<traffic::EdgePacketCounts> out{{1, 1, 1, 0}};
  EXPECT_EQ(reader.read_window(0, buf, out), 500u);
  EXPECT_TRUE(out.empty());
}

TEST_F(StoreTest, DomainWidensToAppendedDataAtFinish) {
  const std::string dir = store_dir("widen");
  {
    store::WriterOptions wopts;
    wopts.node_domain = 1;  // the serve recorder's placeholder
    store::WindowStoreWriter writer(dir, wopts);
    const std::vector<traffic::EdgePacketCounts> w0 = {{4, 9000, 3, 1}};
    const std::vector<traffic::EdgePacketCounts> w1 = {{2, 5, 1, 0}};
    writer.append(0, 10, w0);
    writer.append(1, 10, w1);
    writer.finish();
  }
  store::WindowStoreReader reader(dir);
  EXPECT_EQ(reader.header().node_domain, 9001u);
}

TEST_F(StoreTest, ReaderRejectsNonStores) {
  EXPECT_THROW(store::WindowStoreReader("/nonexistent/store/dir"),
               DataError);
  const std::string dir = store_dir("notastore");
  write_file(store::WindowStoreWriter::store_file(dir), "short");
  EXPECT_THROW((store::WindowStoreReader(dir)), DataError);
  std::string junk(200, '\xAB');
  write_file(store::WindowStoreWriter::store_file(dir), junk);
  EXPECT_THROW((store::WindowStoreReader(dir)), DataError);
}

// ---------------------------------------------------------------------
// capture -> replay fidelity (the tentpole acceptance property)
// ---------------------------------------------------------------------

traffic::SweepOptions sweep_opts(bool counts,
                                 traffic::WindowCaptureSink* capture =
                                     nullptr) {
  traffic::SweepOptions opts;
  if (counts) opts.synthesis = traffic::SynthesisMode::kMultinomial;
  opts.capture = capture;
  return opts;
}

void expect_sweep_identical(const traffic::WindowSweepResult& a,
                            const traffic::WindowSweepResult& b,
                            const std::string& context) {
  expect_identical(a.merged, b.merged, context);
  EXPECT_EQ(a.max_value, b.max_value) << context;
  EXPECT_EQ(a.windows, b.windows) << context;
  EXPECT_EQ(a.ensemble.mean(), b.ensemble.mean()) << context;
  EXPECT_EQ(a.ensemble.stddev(), b.ensemble.stddev()) << context;
}

TEST_F(StoreTest, CountsSweepReplaysByteIdenticalAcrossSeeds) {
  Rng gen_rng(7);
  const auto g = graph::erdos_renyi(gen_rng, 600, 0.02);
  ThreadPool pool(2);
  for (const std::uint64_t seed : {3ull, 17ull, 91ull}) {
    // One capture per seed: the store is quantity-agnostic (full pair
    // counts), so every quantity below replays from the same bytes.
    const std::string dir = store_dir("rt_" + std::to_string(seed));
    store::WriterOptions wopts;
    wopts.node_domain = g.num_nodes();
    wopts.seed = seed;
    store::WindowStoreWriter writer(dir, wopts);
    const auto captured = traffic::sweep_windows(
        g, traffic::RateModel{}, 5000, 6,
        traffic::Quantity::kUndirectedDegree, seed, pool,
        sweep_opts(/*counts=*/true, &writer));
    writer.finish();
    // The capture tee must not perturb the sweep it observes.
    const auto baseline_ud = traffic::sweep_windows(
        g, traffic::RateModel{}, 5000, 6,
        traffic::Quantity::kUndirectedDegree, seed, pool,
        sweep_opts(/*counts=*/true));
    expect_sweep_identical(captured, baseline_ud,
                           "capture tee, seed " + std::to_string(seed));
    // <= 8 stored bytes per canonical (pair, count) record.
    const auto stats = writer.stats();
    ASSERT_GT(stats.records, 0u);
    EXPECT_LE(static_cast<double>(stats.payload_bytes) /
                  static_cast<double>(stats.records),
              8.0);

    store::WindowStoreReader reader(dir);
    ASSERT_EQ(reader.num_windows(), 6u);
    EXPECT_EQ(reader.header().node_domain, g.num_nodes());
    for (const auto q : kEveryQuantity) {
      const auto baseline = traffic::sweep_windows(
          g, traffic::RateModel{}, 5000, 6, q, seed, pool,
          sweep_opts(/*counts=*/true));
      const auto replayed = traffic::sweep_windows(
          reader, 6, q, pool, sweep_opts(/*counts=*/false));
      expect_sweep_identical(replayed, baseline,
                             std::string(traffic::quantity_name(q)) +
                                 " seed " + std::to_string(seed));
    }
  }
}

TEST_F(StoreTest, PacketFastPathCaptureReplaysIdentically) {
  // Packet-mode windows export from the hash-mode accumulator (per-cell
  // records the writer coalesces); the replay must still be exact.
  Rng gen_rng(11);
  const auto g = graph::erdos_renyi(gen_rng, 400, 0.02);
  ThreadPool pool(2);
  const std::string dir = store_dir("packet");
  store::WriterOptions wopts;
  wopts.node_domain = g.num_nodes();
  store::WindowStoreWriter writer(dir, wopts);
  const auto captured = traffic::sweep_windows(
      g, traffic::RateModel{}, 4000, 5, traffic::Quantity::kLinkPackets,
      23, pool, sweep_opts(/*counts=*/false, &writer));
  writer.finish();
  store::WindowStoreReader reader(dir);
  for (const auto q : kEveryQuantity) {
    const auto baseline =
        traffic::sweep_windows(g, traffic::RateModel{}, 4000, 5, q, 23,
                               pool, sweep_opts(/*counts=*/false));
    const auto replayed =
        traffic::sweep_windows(reader, 5, q, pool, sweep_opts(false));
    expect_sweep_identical(replayed, baseline,
                           "packet capture, " +
                               std::string(traffic::quantity_name(q)));
  }
}

// ---------------------------------------------------------------------
// torn tails, corrupt blocks, short manifests
// ---------------------------------------------------------------------

// A 5-window store plus its manifest geometry, for surgical truncation.
struct SealedStore {
  std::string dir;
  std::string file;
  std::string bytes;
  std::vector<store::ManifestEntry> manifest;  // ascending window index
};

SealedStore make_sealed_store(const std::string& stem) {
  SealedStore s;
  s.dir = store_dir(stem);
  store::WriterOptions wopts;
  wopts.node_domain = 64;
  store::WindowStoreWriter writer(s.dir, wopts);
  Rng rng(5);
  std::vector<traffic::EdgePacketCounts> records;
  for (std::size_t t = 0; t < 5; ++t) {
    records.clear();
    while (records.size() < 40) {
      NodeId u = rng.uniform_index(64);
      NodeId v = rng.uniform_index(64);
      if (u > v) std::swap(u, v);
      const bool dup =
          std::any_of(records.begin(), records.end(),
                      [&](const traffic::EdgePacketCounts& r) {
                        return r.u == u && r.v == v;
                      });
      if (dup) continue;
      records.push_back({u, v, rng.uniform_index(9) + 1, 0});
    }
    writer.append(t, 1000 + t, records);
  }
  writer.finish();
  s.file = store::WindowStoreWriter::store_file(s.dir);
  s.bytes = read_file(s.file);
  store::WindowStoreReader reader(s.dir);
  s.manifest = reader.manifest();
  return s;
}

TEST_F(StoreTest, TornTailAtBlockBoundaryRecoversThePrefix) {
  const auto s = make_sealed_store("torn_boundary");
  // Kill the capture right after block 3: no manifest, no trailer.
  const auto& m3 = s.manifest[3];
  write_file(s.file,
             s.bytes.substr(0, static_cast<std::size_t>(m3.offset)));
  // Strict: typed failure, not a crash.
  EXPECT_THROW(store::WindowStoreReader(s.dir), DataError);
  // Skip: the intact prefix is recovered and the torn tail charged.
  obs::Registry registry;
  auto opts = skip_opts();
  opts.metrics = &registry;
  store::WindowStoreReader reader(s.dir, opts);
  ASSERT_EQ(reader.num_windows(), 3u);
  EXPECT_FALSE(reader.open_report().clean());
  EXPECT_EQ(reader.open_report().lines_dropped, 1u);
  std::vector<std::byte> buf;
  std::vector<traffic::EdgePacketCounts> out;
  for (std::size_t t = 0; t < 3; ++t) {
    EXPECT_EQ(reader.read_window(t, buf, out), 1000u + t);
    EXPECT_EQ(out.size(), 40u);
  }
  const auto snap = registry.snapshot();
  std::uint64_t torn = 0;
  for (const auto& c : snap.counters) {
    if (c.name == obs::names::kStoreTornTails) torn = c.value;
  }
  EXPECT_EQ(torn, 1u);
}

TEST_F(StoreTest, TornTailMidBlockRecoversWholeBlocksOnly) {
  const auto s = make_sealed_store("torn_midblock");
  const auto& m2 = s.manifest[2];
  write_file(s.file, s.bytes.substr(0, static_cast<std::size_t>(
                                           m2.offset + m2.block_bytes / 2)));
  store::WindowStoreReader reader(s.dir, skip_opts());
  EXPECT_EQ(reader.num_windows(), 2u);
  EXPECT_EQ(reader.open_report().lines_dropped, 1u);
}

TEST_F(StoreTest, TornTailExceedingBudgetThrowsEvenUnderSkip) {
  const auto s = make_sealed_store("torn_budget");
  write_file(s.file, s.bytes.substr(0, static_cast<std::size_t>(
                                           s.manifest[1].offset)));
  EXPECT_THROW(store::WindowStoreReader(s.dir, skip_opts(/*budget=*/0)),
               DataError);
}

TEST_F(StoreTest, ShortManifestFallsBackToBlockScan) {
  const auto s = make_sealed_store("short_manifest");
  // Chop into the manifest region: trailer gone, entries incomplete.
  write_file(s.file, s.bytes.substr(0, s.bytes.size() - 30));
  EXPECT_THROW(store::WindowStoreReader(s.dir), DataError);
  store::WindowStoreReader reader(s.dir, skip_opts());
  // Every block is intact, so recovery finds all five windows.
  EXPECT_EQ(reader.num_windows(), 5u);
  EXPECT_EQ(reader.open_report().lines_dropped, 1u);
}

TEST_F(StoreTest, CorruptBlockChecksumIsATypedPerWindowError) {
  const auto s = make_sealed_store("corrupt");
  // Flip one payload byte inside block 2; the manifest stays valid.
  std::string bytes = s.bytes;
  const std::size_t victim = static_cast<std::size_t>(
      s.manifest[2].offset + store::kBlockHeaderBytes + 5);
  bytes[victim] = static_cast<char>(bytes[victim] ^ 0x40);
  write_file(s.file, bytes);

  obs::Registry registry;
  IngestOptions opts;
  opts.metrics = &registry;
  store::WindowStoreReader reader(s.dir, opts);  // manifest intact
  ASSERT_EQ(reader.num_windows(), 5u);
  std::vector<std::byte> buf;
  std::vector<traffic::EdgePacketCounts> out;
  EXPECT_EQ(reader.read_window(1, buf, out), 1001u);
  EXPECT_THROW(reader.read_window(2, buf, out), DataError);
  EXPECT_EQ(reader.read_window(3, buf, out), 1003u);
  std::uint64_t failures = 0;
  for (const auto& c : registry.snapshot().counters) {
    if (c.name == obs::names::kStoreChecksumFailures) failures = c.value;
  }
  EXPECT_EQ(failures, 1u);

  // Replay sweep: the corrupt window charges max_failed_windows exactly
  // like a synthesis failure...
  ThreadPool pool(1);
  auto sweep_o = sweep_opts(false);
  sweep_o.max_failed_windows = 1;
  const auto swept = traffic::sweep_windows(
      reader, 5, traffic::Quantity::kUndirectedDegree, pool, sweep_o);
  ASSERT_EQ(swept.failures.size(), 1u);
  EXPECT_EQ(swept.failures[0].window, 2u);
  EXPECT_EQ(swept.windows, 4u);
  // ...and a zero budget rethrows with the window index attached.
  try {
    traffic::sweep_windows(reader, 5,
                           traffic::Quantity::kUndirectedDegree, pool,
                           sweep_opts(false));
    FAIL() << "corrupt block must surface under a zero failure budget";
  } catch (const traffic::SweepWindowError& e) {
    EXPECT_EQ(e.window(), 2u);
  }
}

// ---------------------------------------------------------------------
// failpoints
// ---------------------------------------------------------------------

TEST_F(StoreTest, CaptureWriteFailpointChargesTheWindowBudget) {
  Rng gen_rng(7);
  const auto g = graph::erdos_renyi(gen_rng, 300, 0.02);
  ThreadPool pool(1);  // FIFO: windows append in index order
  const std::string dir = store_dir("fp_capture");
  store::WriterOptions wopts;
  wopts.node_domain = g.num_nodes();
  store::WindowStoreWriter writer(dir, wopts);
  testing::FailpointGuard guard;
  failpoints::arm("io.capture_write", /*fires=*/1, /*skip=*/1);
  auto opts = sweep_opts(/*counts=*/true, &writer);
  opts.max_failed_windows = 1;
  const auto swept = traffic::sweep_windows(
      g, traffic::RateModel{}, 2000, 4,
      traffic::Quantity::kUndirectedDegree, 9, pool, opts);
  writer.finish();
  ASSERT_EQ(swept.failures.size(), 1u);
  EXPECT_EQ(swept.failures[0].window, 1u);
  // The surviving three windows replay cleanly.
  store::WindowStoreReader reader(dir);
  EXPECT_EQ(reader.num_windows(), 3u);
  const auto replayed = traffic::sweep_windows(
      reader, 3, traffic::Quantity::kUndirectedDegree, pool,
      sweep_opts(false));
  EXPECT_EQ(replayed.windows, 3u);
}

TEST_F(StoreTest, ReplayReadFailpointChargesTheWindowBudget) {
  const auto s = make_sealed_store("fp_replay");
  store::WindowStoreReader reader(s.dir);
  ThreadPool pool(1);
  testing::FailpointGuard guard;
  failpoints::arm("io.replay_read", /*fires=*/1, /*skip=*/2);
  auto opts = sweep_opts(false);
  opts.max_failed_windows = 1;
  const auto swept = traffic::sweep_windows(
      reader, 5, traffic::Quantity::kSourcePackets, pool, opts);
  ASSERT_EQ(swept.failures.size(), 1u);
  EXPECT_EQ(swept.failures[0].window, 2u);
  EXPECT_EQ(swept.windows, 4u);

  failpoints::arm("io.replay_read", /*fires=*/1, /*skip=*/0);
  EXPECT_THROW(
      traffic::sweep_windows(reader, 5, traffic::Quantity::kSourcePackets,
                             pool, sweep_opts(false)),
      traffic::SweepWindowError);
}

// ---------------------------------------------------------------------
// serve --record
// ---------------------------------------------------------------------

TEST_F(StoreTest, ServeRecordedWindowsMatchDirectAccumulation) {
  // The daemon tees every fitted window into the store; the recorded
  // pair counts must equal accumulating the same trace slices directly,
  // and the header domain must cover the trace's ids.
  Rng grng(19);
  const auto g = graph::barabasi_albert(grng, 300, 2);
  traffic::SyntheticTrafficGenerator gen(g, traffic::RateModel{}, Rng(20));
  std::vector<traffic::Packet> packets(6000);
  gen.next_batch(packets);
  const std::string trace = ::testing::TempDir() + "palu_store_serve.txt";
  {
    std::ofstream out(trace, std::ios::trunc);
    for (const auto& p : packets) out << p.src << ' ' << p.dst << '\n';
  }
  const std::string dir = store_dir("serve_record");

  serve::ServeOptions opts;
  opts.input_path = trace;
  opts.window_packets = 2000;
  opts.record_path = dir;
  opts.install_signal_handlers = false;
  std::ostringstream lines;
  opts.out = &lines;
  obs::Registry registry;
  opts.metrics = &registry;
  serve::ServeDaemon daemon(std::move(opts));
  ASSERT_EQ(daemon.run(), 0);
  ASSERT_EQ(daemon.windows_published(), 3u);

  store::WindowStoreReader reader(dir);
  ASSERT_EQ(reader.num_windows(), 3u);
  NodeId max_id = 0;
  for (const auto& p : packets) max_id = std::max({max_id, p.src, p.dst});
  EXPECT_GE(reader.header().node_domain, max_id + 1);

  std::vector<std::byte> buf;
  std::vector<traffic::EdgePacketCounts> recorded;
  for (std::size_t t = 0; t < 3; ++t) {
    EXPECT_EQ(reader.read_window(t, buf, recorded), 2000u);
    traffic::WindowAccumulator from_store;
    from_store.begin_window();
    from_store.ingest_counts(recorded);
    traffic::WindowAccumulator direct;
    direct.begin_window();
    direct.add_packets(std::span<const traffic::Packet>(
        packets.data() + t * 2000, 2000));
    EXPECT_EQ(from_store.total(), direct.total()) << "window " << t;
    for (const auto q : kEveryQuantity) {
      expect_identical(from_store.histogram(q), direct.histogram(q),
                       "serve window " + std::to_string(t) + " " +
                           std::string(traffic::quantity_name(q)));
    }
  }
}

}  // namespace
}  // namespace palu
