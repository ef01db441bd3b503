#include "palu/store/writer.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cerrno>
#include <cstring>
#include <filesystem>
#include <limits>
#include <utility>

#include "palu/common/error.hpp"
#include "palu/common/failpoint.hpp"
#include "palu/obs/metrics.hpp"
#include "palu/obs/names.hpp"

namespace palu::store {

namespace {

std::string errno_text() {
  return std::strerror(errno) != nullptr ? std::strerror(errno) : "?";
}

// append's radix order reads ids in 11-bit digits: a pass scatters into
// 2048 buckets, and the bench's ids (below 2^18) take two digits each.
constexpr unsigned kDigitBits = 11;
constexpr std::size_t kDigitBuckets = std::size_t{1} << kDigitBits;
constexpr NodeId kDigitMask = kDigitBuckets - 1;
// Digits of a u64 id: the most passes one endpoint can take.
constexpr unsigned kMaxDigits = (64 + kDigitBits - 1) / kDigitBits;

// A byte sink for put_varint/put_u32/put_u64 over memory already sized
// for what it receives: the encoder writes through a pointer, with no
// capacity check per byte.
struct ByteCursor {
  using value_type = unsigned char;
  unsigned char* p;
  void push_back(unsigned char b) { *p++ = b; }
};

// Digits an id up to `max_id` needs: 0 when every id is 0.
unsigned digits_of(NodeId max_id) {
  return (static_cast<unsigned>(std::bit_width(max_id)) + kDigitBits - 1) /
         kDigitBits;
}

// Stable LSD radix sort of `recs` by (u, v): the digits of v, low to high,
// then those of u, over only the digits `max_u` and `max_v` reach.  The
// passes alternate between `recs` and `scratch`; returns whichever holds
// the sorted records.  `scratch` and `counts` are reused from call to call.
const traffic::EdgePacketCounts* sort_by_pair(
    std::vector<traffic::EdgePacketCounts>& recs,
    std::vector<traffic::EdgePacketCounts>& scratch,
    std::vector<std::size_t>& counts, NodeId max_u, NodeId max_v) {
  using traffic::EdgePacketCounts;
  const std::size_t n = recs.size();
  const unsigned v_digits = digits_of(max_v);
  const unsigned passes = v_digits + digits_of(max_u);
  if (n < 2 || passes == 0) return recs.data();
  // Pass p reads the digit (r.*field[p] >> shift[p]) & kDigitMask.
  std::array<NodeId EdgePacketCounts::*, 2 * kMaxDigits> field{};
  std::array<unsigned, 2 * kMaxDigits> shift{};
  for (unsigned p = 0; p < passes; ++p) {
    const bool of_v = p < v_digits;
    field[p] = of_v ? &EdgePacketCounts::v : &EdgePacketCounts::u;
    shift[p] = kDigitBits * (of_v ? p : p - v_digits);
  }
  // Every pass's digit counts in one read of the records.
  counts.assign(std::size_t{passes} * kDigitBuckets, 0);
  for (const EdgePacketCounts& r : recs) {
    for (unsigned p = 0; p < passes; ++p) {
      ++counts[p * kDigitBuckets + ((r.*field[p] >> shift[p]) & kDigitMask)];
    }
  }
  // Blocks of one capture differ in size by a few percent, so the scratch
  // grows with headroom: a reallocation for each slightly larger block
  // left the freed one resident (1.3 MB of peak RSS over the bench trace).
  if (scratch.capacity() < n) scratch.reserve(n + n / 8);
  scratch.resize(n);
  EdgePacketCounts* src = recs.data();
  EdgePacketCounts* dst = scratch.data();
  for (unsigned p = 0; p < passes; ++p) {
    std::size_t* next = counts.data() + std::size_t{p} * kDigitBuckets;
    const auto f = field[p];
    const unsigned s = shift[p];
    std::size_t at = 0;
    for (std::size_t b = 0; b < kDigitBuckets; ++b) {
      at += std::exchange(next[b], at);
    }
    for (std::size_t i = 0; i < n; ++i) {
      dst[next[(src[i].*f >> s) & kDigitMask]++] = src[i];
    }
    std::swap(src, dst);
  }
  return src;
}

}  // namespace

std::string WindowStoreWriter::store_file(const std::string& dir) {
  return (std::filesystem::path(dir) / "windows.palustore").string();
}

WindowStoreWriter::WindowStoreWriter(const std::string& dir,
                                     const WriterOptions& opts)
    : blocks_written_(
          (opts.metrics != nullptr ? *opts.metrics : obs::default_registry())
              .counter(obs::names::kStoreBlocksWritten)),
      bytes_written_(
          (opts.metrics != nullptr ? *opts.metrics : obs::default_registry())
              .counter(obs::names::kStoreBytesWritten)) {
  PALU_CHECK(opts.node_domain >= 1,
             "WindowStoreWriter: node_domain must be >= 1");
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) {
    throw DataError("store: cannot create directory '" + dir +
                    "': " + ec.message());
  }
  const std::string path = store_file(dir);
  std::lock_guard<std::mutex> lock(mutex_);
  file_ = std::fopen(path.c_str(), "wb");
  if (file_ == nullptr) {
    throw DataError("store: cannot create '" + path + "': " + errno_text());
  }
  node_domain_ = opts.node_domain;
  encode_buf_.clear();
  put_u64(encode_buf_, kFileMagic);
  put_u32(encode_buf_, kEndianTag);
  put_u32(encode_buf_, kFormatVersion);
  put_u64(encode_buf_, opts.node_domain);
  put_u64(encode_buf_, opts.seed);
  put_u64(encode_buf_, 0);  // reserved
  write_bytes(encode_buf_.data(), encode_buf_.size());
  offset_ = kFileHeaderBytes;
  stats_.file_bytes = kFileHeaderBytes;
}

WindowStoreWriter::~WindowStoreWriter() {
  try {
    finish();
  } catch (...) {
    // Destructors must not throw; an unsealable store is exactly the
    // torn-tail shape the reader's recovery path handles.
  }
  std::lock_guard<std::mutex> lock(mutex_);
  if (file_ != nullptr) {
    std::fclose(file_);
    file_ = nullptr;
  }
}

void WindowStoreWriter::write_bytes(const void* data, std::size_t n)
    PALU_REQUIRES(mutex_) {
  if (n == 0) return;
  if (std::fwrite(data, 1, n, file_) != n) {
    throw DataError("store: write failed: " + errno_text());
  }
}

void WindowStoreWriter::append(
    std::size_t window_index, Count n_valid,
    std::span<const traffic::EdgePacketCounts> records) {
  std::lock_guard<std::mutex> lock(mutex_);
  PALU_CHECK(file_ != nullptr && !finished_,
             "WindowStoreWriter::append: store already finished");
  PALU_FAILPOINT("io.capture_write");

  // Canonicalize: keep only rows that saw traffic, lower endpoint first,
  // sorted by (u, v) in linear time, one record per unordered pair.  Zero
  // rows are the counts path's full-support emissions; dropping them is
  // content-neutral (they contribute to no histogram or marginal).
  sort_buf_.clear();
  sort_buf_.reserve(records.size());
  NodeId max_u = 0;
  NodeId max_v = 0;
  for (const traffic::EdgePacketCounts& r : records) {
    if (r.forward + r.backward == 0) continue;
    const traffic::EdgePacketCounts c =
        r.u <= r.v ? r
                   : traffic::EdgePacketCounts{r.v, r.u, r.backward,
                                               r.forward};
    max_u = std::max(max_u, c.u);
    max_v = std::max(max_v, c.v);
    sort_buf_.push_back(c);
  }
  const traffic::EdgePacketCounts* sorted =
      sort_by_pair(sort_buf_, radix_buf_, digit_counts_, max_u, max_v);
  // Canonical records have v >= u, so v alone bounds the id domain.  It
  // saturates at 2^64 − 1: id 2^64 − 1 is a valid trace token, and v + 1
  // would wrap to 0.  An empty block leaves max_v at 0, and the domain is
  // at least 1 already.
  node_domain_ = std::max<std::uint64_t>(
      node_domain_,
      max_v == std::numeric_limits<NodeId>::max() ? max_v : max_v + 1);

  // Encode behind a slot for the block header, coalescing each run of one
  // pair as it is reached: per record (Δu varint, zigzag Δv varint,
  // forward, backward), delta base (0, 0) per block.  encode_buf_ keeps
  // its largest size, so the bytes go through a cursor, and a block no
  // larger than an earlier one does not grow it.
  constexpr std::size_t kMaxRecordBytes = 4 * kMaxVarintBytes;
  if (encode_buf_.size() < kBlockHeaderBytes) {
    encode_buf_.resize(kBlockHeaderBytes);
  }
  const std::size_t n = sort_buf_.size();
  std::size_t end = kBlockHeaderBytes;
  std::size_t kept = 0;
  NodeId prev_u = 0;
  NodeId prev_v = 0;
  for (std::size_t i = 0; i < n; ++kept) {
    traffic::EdgePacketCounts r = sorted[i];
    for (++i; i < n && sorted[i].u == r.u && sorted[i].v == r.v; ++i) {
      r.forward += sorted[i].forward;
      r.backward += sorted[i].backward;
    }
    if (encode_buf_.size() < end + kMaxRecordBytes) {
      encode_buf_.resize(end + kMaxRecordBytes);
    }
    ByteCursor out{encode_buf_.data() + end};
    put_varint(out, r.u - prev_u);
    // Δv wraps in unsigned arithmetic: ids on both sides of 2^63 would
    // overflow a signed subtraction.
    put_varint(out, zigzag_encode(static_cast<std::int64_t>(r.v - prev_v)));
    put_varint(out, r.forward);
    put_varint(out, r.backward);
    end = static_cast<std::size_t>(out.p - encode_buf_.data());
    prev_u = r.u;
    prev_v = r.v;
  }
  const std::size_t payload_bytes = end - kBlockHeaderBytes;
  ByteCursor header{encode_buf_.data()};
  put_u32(header, kBlockMagic);
  put_u32(header, kAllQuantitiesMask);
  put_u64(header, window_index);
  put_u64(header, n_valid);
  put_u32(header, static_cast<std::uint32_t>(kept));
  put_u32(header, static_cast<std::uint32_t>(payload_bytes));
  put_u64(header,
          checksum64(encode_buf_.data() + kBlockHeaderBytes, payload_bytes));
  write_bytes(encode_buf_.data(), end);

  const std::uint64_t block_bytes = end;
  manifest_.push_back(ManifestEntry{window_index, offset_, block_bytes});
  offset_ += block_bytes;
  ++stats_.blocks;
  stats_.records += kept;
  stats_.payload_bytes += payload_bytes;
  stats_.file_bytes += block_bytes;
  blocks_written_.inc();
  bytes_written_.inc(block_bytes);
}

void WindowStoreWriter::finish() {
  std::lock_guard<std::mutex> lock(mutex_);
  if (finished_ || file_ == nullptr) return;

  std::sort(manifest_.begin(), manifest_.end(),
            [](const ManifestEntry& a, const ManifestEntry& b) {
              return a.window_index < b.window_index;
            });
  const std::uint64_t manifest_offset = offset_;
  encode_buf_.clear();
  put_u32(encode_buf_, kManifestMagic);
  put_u32(encode_buf_, 0);  // reserved
  put_u64(encode_buf_, manifest_.size());
  std::vector<unsigned char> entries;
  entries.reserve(manifest_.size() * kManifestEntryBytes);
  for (const ManifestEntry& e : manifest_) {
    put_u64(entries, e.window_index);
    put_u64(entries, e.offset);
    put_u64(entries, e.block_bytes);
  }
  put_u64(entries, checksum64(entries.data(), entries.size()));
  write_bytes(encode_buf_.data(), encode_buf_.size());
  write_bytes(entries.data(), entries.size());

  encode_buf_.clear();
  put_u64(encode_buf_, manifest_offset);
  put_u64(encode_buf_, manifest_.size());
  put_u64(encode_buf_, kTrailerMagic);
  write_bytes(encode_buf_.data(), encode_buf_.size());

  const std::uint64_t tail_bytes =
      kManifestHeaderBytes + entries.size() + kTrailerBytes;
  offset_ += tail_bytes;
  stats_.file_bytes += tail_bytes;
  bytes_written_.inc(tail_bytes);

  // Seal the header's node domain, widened over the appended data (a
  // producer that could not know the domain up front passed 1).
  if (std::fseek(file_, kFileHeaderDomainOffset, SEEK_SET) != 0) {
    throw DataError("store: seek failed: " + errno_text());
  }
  encode_buf_.clear();
  put_u64(encode_buf_, node_domain_);
  write_bytes(encode_buf_.data(), encode_buf_.size());

  if (std::fflush(file_) != 0) {
    throw DataError("store: flush failed: " + errno_text());
  }
  std::FILE* f = std::exchange(file_, nullptr);
  finished_ = true;
  if (std::fclose(f) != 0) {
    throw DataError("store: close failed: " + errno_text());
  }
}

WindowStoreWriter::Stats WindowStoreWriter::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

}  // namespace palu::store
