#include "palu/store/reader.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

#include "palu/common/error.hpp"
#include "palu/common/failpoint.hpp"
#include "palu/obs/metrics.hpp"
#include "palu/obs/names.hpp"
#include "palu/obs/span.hpp"
#include "palu/store/writer.hpp"

namespace palu::store {

namespace {

obs::Registry& pick(obs::Registry* r) {
  return r != nullptr ? *r : obs::default_registry();
}

/// Full positioned read; throws DataError on I/O error or short read.
void pread_exact(int fd, void* dst, std::size_t n, std::uint64_t offset,
                 const std::string& path) {
  auto* p = static_cast<unsigned char*>(dst);
  while (n > 0) {
    const ::ssize_t got = ::pread(fd, p, n, static_cast<::off_t>(offset));
    if (got < 0) {
      if (errno == EINTR) continue;
      throw DataError("store: read failed on '" + path +
                      "': " + std::strerror(errno));
    }
    if (got == 0) {
      throw DataError("store: short read on '" + path +
                      "' (file truncated?)");
    }
    p += got;
    n -= static_cast<std::size_t>(got);
    offset += static_cast<std::uint64_t>(got);
  }
}

/// Unchecked varint decode for the hot loop: the caller guarantees at
/// least kMaxVarintBytes of readable tail (checksum-verified payload, so
/// the bytes are exactly what the writer emitted).  The first three
/// widths are unrolled with constant shifts: 1-byte values (sorted-pair
/// u deltas, small packet counts) take one compare and no loop, and the
/// 2/3-byte zigzag v deltas avoid the loop-carried shift dependency of
/// the generic decoder.
inline std::uint64_t decode_varint_fast(const unsigned char*& p) noexcept {
  const unsigned char* q = p;
  const std::uint64_t b0 = q[0];
  if (b0 < 0x80) {
    p = q + 1;
    return b0;
  }
  const std::uint64_t b1 = q[1];
  if (b1 < 0x80) {
    p = q + 2;
    return (b0 & 0x7F) | (b1 << 7);
  }
  const std::uint64_t b2 = q[2];
  if (b2 < 0x80) {
    p = q + 3;
    return (b0 & 0x7F) | ((b1 & 0x7F) << 7) | (b2 << 14);
  }
  std::uint64_t x =
      (b0 & 0x7F) | ((b1 & 0x7F) << 7) | ((b2 & 0x7F) << 14);
  unsigned shift = 21;
  q += 3;
  for (;;) {
    const std::uint64_t b = *q++;
    x |= (b & 0x7F) << shift;
    if (b < 0x80) {
      p = q;
      return x;
    }
    shift += 7;
  }
}

struct BlockView {
  BlockHeader header;
  const unsigned char* payload = nullptr;
};

/// Parses and validates a block's fixed header from `data` (which must
/// hold `bytes` readable bytes).  Returns false (no throw) when the bytes
/// do not look like an intact block — the open-time recovery scan uses
/// this to find the last clean block before a torn tail.
bool parse_block(const unsigned char* data, std::uint64_t bytes,
                 BlockView& out) noexcept {
  if (bytes < kBlockHeaderBytes) return false;
  if (get_u32(data) != kBlockMagic) return false;
  out.header.quantity_mask = get_u32(data + 4);
  out.header.window_index = get_u64(data + 8);
  out.header.n_valid = get_u64(data + 16);
  out.header.record_count = get_u32(data + 24);
  out.header.payload_bytes = get_u32(data + 28);
  out.header.payload_checksum = get_u64(data + 32);
  if (out.header.payload_bytes > bytes - kBlockHeaderBytes) return false;
  out.payload = data + kBlockHeaderBytes;
  if (checksum64(out.payload, out.header.payload_bytes) !=
      out.header.payload_checksum) {
    return false;
  }
  return true;
}

}  // namespace

WindowStoreReader::WindowStoreReader(const std::string& dir,
                                     const IngestOptions& opts)
    : path_(WindowStoreWriter::store_file(dir)),
      blocks_read_(pick(opts.metrics).counter(obs::names::kStoreBlocksRead)),
      bytes_read_(pick(opts.metrics).counter(obs::names::kStoreBytesRead)),
      checksum_failures_(
          pick(opts.metrics).counter(obs::names::kStoreChecksumFailures)),
      torn_tails_(pick(opts.metrics).counter(obs::names::kStoreTornTails)),
      decode_ns_(pick(opts.metrics).histogram(obs::names::kStoreDecodeNs)) {
  fd_ = ::open(path_.c_str(), O_RDONLY);
  if (fd_ < 0) {
    throw DataError("store: cannot open '" + path_ +
                    "': " + std::strerror(errno));
  }
  try {
    const ::off_t end = ::lseek(fd_, 0, SEEK_END);
    if (end < 0) {
      throw DataError("store: cannot size '" + path_ +
                      "': " + std::strerror(errno));
    }
    const auto file_size = static_cast<std::uint64_t>(end);
    if (file_size < kFileHeaderBytes) {
      throw DataError("store: '" + path_ + "' is not a window store " +
                      "(file shorter than the header)");
    }
    unsigned char head[kFileHeaderBytes];
    pread_exact(fd_, head, kFileHeaderBytes, 0, path_);
    if (get_u64(head) != kFileMagic) {
      throw DataError("store: '" + path_ +
                      "' is not a window store (bad magic)");
    }
    if (get_u32(head + 8) != kEndianTag) {
      throw DataError("store: '" + path_ +
                      "' was written on a different-endian host");
    }
    if (get_u32(head + 12) != kFormatVersion) {
      throw DataError("store: '" + path_ + "' has format version " +
                      std::to_string(get_u32(head + 12)) +
                      ", this build reads version " +
                      std::to_string(kFormatVersion));
    }
    header_.node_domain = get_u64(head + 16);
    header_.seed = get_u64(head + 24);
    if (header_.node_domain == 0) {
      throw DataError("store: '" + path_ + "' declares an empty node domain");
    }
    load_manifest(file_size, opts);
  } catch (...) {
    ::close(fd_);
    fd_ = -1;
    throw;
  }
}

WindowStoreReader::~WindowStoreReader() {
  if (fd_ >= 0) ::close(fd_);
}

void WindowStoreReader::load_manifest(std::uint64_t file_size,
                                      const IngestOptions& opts) {
  if (file_size < kFileHeaderBytes + kTrailerBytes) {
    recover_blocks(file_size, opts, "file ends before the trailer");
    return;
  }
  unsigned char trailer[kTrailerBytes];
  pread_exact(fd_, trailer, kTrailerBytes, file_size - kTrailerBytes, path_);
  if (get_u64(trailer + 16) != kTrailerMagic) {
    recover_blocks(file_size, opts, "trailer magic missing");
    return;
  }
  const std::uint64_t manifest_offset = get_u64(trailer);
  const std::uint64_t num_blocks = get_u64(trailer + 8);
  const std::uint64_t manifest_bytes =
      kManifestHeaderBytes + num_blocks * kManifestEntryBytes + 8;
  if (manifest_offset < kFileHeaderBytes ||
      manifest_offset + manifest_bytes != file_size - kTrailerBytes) {
    recover_blocks(file_size, opts, "trailer does not frame the manifest");
    return;
  }
  std::vector<unsigned char> buf(manifest_bytes);
  pread_exact(fd_, buf.data(), buf.size(), manifest_offset, path_);
  if (get_u32(buf.data()) != kManifestMagic ||
      get_u64(buf.data() + 8) != num_blocks) {
    recover_blocks(file_size, opts, "manifest header corrupt");
    return;
  }
  const unsigned char* entries = buf.data() + kManifestHeaderBytes;
  const std::uint64_t entry_bytes = num_blocks * kManifestEntryBytes;
  if (checksum64(entries, entry_bytes) != get_u64(entries + entry_bytes)) {
    checksum_failures_.inc();
    recover_blocks(file_size, opts, "manifest checksum mismatch");
    return;
  }
  manifest_.reserve(num_blocks);
  for (std::uint64_t i = 0; i < num_blocks; ++i) {
    const unsigned char* e = entries + i * kManifestEntryBytes;
    ManifestEntry m{get_u64(e), get_u64(e + 8), get_u64(e + 16)};
    if (m.offset < kFileHeaderBytes || m.block_bytes < kBlockHeaderBytes ||
        m.offset + m.block_bytes > manifest_offset) {
      manifest_.clear();
      recover_blocks(file_size, opts,
                     "manifest entry " + std::to_string(i) +
                         " points outside the block region");
      return;
    }
    manifest_.push_back(m);
  }
  std::sort(manifest_.begin(), manifest_.end(),
            [](const ManifestEntry& a, const ManifestEntry& b) {
              return a.window_index < b.window_index;
            });
  report_.lines_read = manifest_.size();
  report_.records_kept = manifest_.size();
}

void WindowStoreReader::recover_blocks(std::uint64_t file_size,
                                       const IngestOptions& opts,
                                       const std::string& why) {
  torn_tails_.inc();
  if (opts.policy == ErrorPolicy::kStrict) {
    throw DataError("store: '" + path_ + "' has a torn tail (" + why +
                    "); re-open with --on-error skip to recover the "
                    "intact prefix");
  }
  // Scan the contiguous prefix of intact blocks.  Each candidate block is
  // read whole and checksum-verified, so a recovered store never serves a
  // silently corrupt window.
  std::vector<unsigned char> buf;
  std::uint64_t off = kFileHeaderBytes;
  while (off + kBlockHeaderBytes <= file_size) {
    unsigned char head[kBlockHeaderBytes];
    pread_exact(fd_, head, kBlockHeaderBytes, off, path_);
    if (get_u32(head) != kBlockMagic) break;
    const std::uint64_t payload_bytes = get_u32(head + 28);
    if (off + kBlockHeaderBytes + payload_bytes > file_size) break;
    buf.resize(kBlockHeaderBytes + payload_bytes);
    pread_exact(fd_, buf.data(), buf.size(), off, path_);
    BlockView view;
    if (!parse_block(buf.data(), buf.size(), view)) break;
    manifest_.push_back(ManifestEntry{view.header.window_index, off,
                                      static_cast<std::uint64_t>(buf.size())});
    off += buf.size();
  }
  std::sort(manifest_.begin(), manifest_.end(),
            [](const ManifestEntry& a, const ManifestEntry& b) {
              return a.window_index < b.window_index;
            });
  const std::uint64_t torn_bytes = file_size - off;
  report_.lines_read = manifest_.size() + 1;
  report_.records_kept = manifest_.size();
  report_.lines_dropped = 1;
  report_.first_error =
      IngestError{manifest_.size(),
                  "torn tail: " + std::to_string(torn_bytes) +
                      " bytes after the last intact block (" + why + ")",
                  ""};
  if (report_.lines_dropped > opts.max_bad_lines) {
    throw DataError("store: '" + path_ +
                    "' torn-tail recovery exceeds the error budget "
                    "(max_bad_lines = " +
                    std::to_string(opts.max_bad_lines) + ")");
  }
}

Count WindowStoreReader::read_window(
    std::size_t index, std::vector<std::byte>& buf,
    std::vector<traffic::EdgePacketCounts>& out) {
  PALU_CHECK(index < manifest_.size(),
             "WindowStoreReader::read_window: index out of range");
  PALU_FAILPOINT("io.replay_read");
  const ManifestEntry& m = manifest_[index];
  buf.resize(m.block_bytes);
  pread_exact(fd_, buf.data(), m.block_bytes, m.offset, path_);
  bytes_read_.inc(m.block_bytes);

  const auto* data = reinterpret_cast<const unsigned char*>(buf.data());
  BlockView view;
  if (!parse_block(data, m.block_bytes, view)) {
    checksum_failures_.inc();
    throw DataError("store: block for window " +
                    std::to_string(m.window_index) + " in '" + path_ +
                    "' is corrupt (bad magic, size, or checksum)");
  }
  if (view.header.window_index != m.window_index ||
      kBlockHeaderBytes + std::uint64_t{view.header.payload_bytes} !=
          m.block_bytes) {
    checksum_failures_.inc();
    throw DataError("store: block for window " +
                    std::to_string(m.window_index) + " in '" + path_ +
                    "' does not match its manifest entry");
  }

  obs::TraceSpan decode_span(decode_ns_);
  out.clear();
  out.reserve(view.header.record_count);
  const unsigned char* p = view.payload;
  const unsigned char* end = p + view.header.payload_bytes;
  // The fast path decodes without bounds checks; safety comes from
  // batching instead of a per-record `end - p` compare (which would sit
  // on the pointer-carried critical path and costs ~35% of the decode).
  // A batch of K records reads at most K * kMaxRecordBytes bytes, so any
  // K <= (end - p) / kMaxRecordBytes cannot overrun even if every varint
  // is maximal; the few records too close to `end` for that guarantee
  // fall back to the checked decoder.  The payload checksum has already
  // been verified, so in-bounds bytes are exactly what the writer
  // emitted.
  constexpr std::size_t kMaxRecordBytes = 4 * kMaxVarintBytes;
  NodeId u = 0;
  std::int64_t v = 0;
  std::uint32_t decoded = 0;
  for (;;) {
    const std::uint64_t batch = std::min<std::uint64_t>(
        view.header.record_count - decoded,
        static_cast<std::uint64_t>(end - p) / kMaxRecordBytes);
    if (batch == 0) break;
    for (std::uint64_t i = 0; i < batch; ++i) {
      u += decode_varint_fast(p);
      v += zigzag_decode(decode_varint_fast(p));
      const Count forward = decode_varint_fast(p);
      const Count backward = decode_varint_fast(p);
      out.push_back(traffic::EdgePacketCounts{u, static_cast<NodeId>(v),
                                              forward, backward});
    }
    decoded += static_cast<std::uint32_t>(batch);
  }
  while (decoded < view.header.record_count) {
    std::uint64_t du = 0, dv = 0, forward = 0, backward = 0;
    p = get_varint(p, end, du);
    if (p != nullptr) p = get_varint(p, end, dv);
    if (p != nullptr) p = get_varint(p, end, forward);
    if (p != nullptr) p = get_varint(p, end, backward);
    if (p == nullptr) break;
    u += du;
    v += zigzag_decode(dv);
    out.push_back(
        traffic::EdgePacketCounts{u, static_cast<NodeId>(v), forward,
                                  backward});
    ++decoded;
  }
  if (decoded != view.header.record_count || p != end) {
    checksum_failures_.inc();
    throw DataError("store: block for window " +
                    std::to_string(m.window_index) + " in '" + path_ +
                    "' decoded to " + std::to_string(decoded) +
                    " records, header says " +
                    std::to_string(view.header.record_count));
  }
  blocks_read_.inc();
  return view.header.n_valid;
}

}  // namespace palu::store
