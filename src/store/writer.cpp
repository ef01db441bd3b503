#include "palu/store/writer.hpp"

#include <algorithm>
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
  // sorted by (u, v), one record per unordered pair.  Zero rows are the
  // counts path's full-support emissions; dropping them is content-neutral
  // (they contribute to no histogram or marginal).
  sort_buf_.clear();
  sort_buf_.reserve(records.size());
  for (const traffic::EdgePacketCounts& r : records) {
    if (r.forward + r.backward == 0) continue;
    if (r.u <= r.v) {
      sort_buf_.push_back(r);
    } else {
      sort_buf_.push_back({r.v, r.u, r.backward, r.forward});
    }
  }
  std::sort(sort_buf_.begin(), sort_buf_.end(),
            [](const traffic::EdgePacketCounts& a,
               const traffic::EdgePacketCounts& b) {
              return a.u != b.u ? a.u < b.u : a.v < b.v;
            });
  std::size_t kept = 0;
  for (std::size_t i = 0; i < sort_buf_.size(); ++i) {
    if (kept > 0 && sort_buf_[kept - 1].u == sort_buf_[i].u &&
        sort_buf_[kept - 1].v == sort_buf_[i].v) {
      sort_buf_[kept - 1].forward += sort_buf_[i].forward;
      sort_buf_[kept - 1].backward += sort_buf_[i].backward;
    } else {
      sort_buf_[kept++] = sort_buf_[i];
    }
  }
  sort_buf_.resize(kept);
  // Canonical records have v >= u, so v alone bounds the id domain.  It
  // saturates at 2^64 − 1: id 2^64 − 1 is a valid trace token, and v + 1
  // would wrap to 0.
  for (const traffic::EdgePacketCounts& r : sort_buf_) {
    const NodeId past =
        r.v == std::numeric_limits<NodeId>::max() ? r.v : r.v + 1;
    node_domain_ = std::max<std::uint64_t>(node_domain_, past);
  }

  // Encode: per-record (Δu varint, zigzag Δv varint, forward, backward),
  // delta base (0, 0) per block.
  encode_buf_.clear();
  NodeId prev_u = 0;
  NodeId prev_v = 0;
  for (const traffic::EdgePacketCounts& r : sort_buf_) {
    put_varint(encode_buf_, r.u - prev_u);
    put_varint(encode_buf_,
               zigzag_encode(static_cast<std::int64_t>(r.v) -
                             static_cast<std::int64_t>(prev_v)));
    put_varint(encode_buf_, r.forward);
    put_varint(encode_buf_, r.backward);
    prev_u = r.u;
    prev_v = r.v;
  }
  const std::uint64_t checksum =
      checksum64(encode_buf_.data(), encode_buf_.size());

  std::vector<unsigned char> header;
  header.reserve(kBlockHeaderBytes);
  put_u32(header, kBlockMagic);
  put_u32(header, kAllQuantitiesMask);
  put_u64(header, window_index);
  put_u64(header, n_valid);
  put_u32(header, static_cast<std::uint32_t>(kept));
  put_u32(header, static_cast<std::uint32_t>(encode_buf_.size()));
  put_u64(header, checksum);

  write_bytes(header.data(), header.size());
  write_bytes(encode_buf_.data(), encode_buf_.size());

  const std::uint64_t block_bytes = kBlockHeaderBytes + encode_buf_.size();
  manifest_.push_back(ManifestEntry{window_index, offset_, block_bytes});
  offset_ += block_bytes;
  ++stats_.blocks;
  stats_.records += kept;
  stats_.payload_bytes += encode_buf_.size();
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
