// Append-only columnar window store writer (DESIGN.md §5j).
//
// One store directory holds one `windows.palustore` file: a block per
// captured window, delta/varint-encoded per-pair packet counts, an
// lane-folded FNV checksum per block, and a manifest + trailer written by
// finish() so readers can seek any window directly.  The writer is the
// library's WindowCaptureSink: sweep workers and the serve daemon tee
// windows into it concurrently; all file and encoder state is guarded
// by one mutex.  append sits on `capture --trace`'s critical path, so it
// orders a block in linear time (a radix sort over the bits the block's
// ids use) and encodes into reused buffers.
#pragma once

#include <cstdint>
#include <cstdio>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "palu/common/thread_annotations.hpp"
#include "palu/common/types.hpp"
#include "palu/store/format.hpp"
#include "palu/traffic/window_source.hpp"

namespace palu::obs {
class Registry;
class Counter;
}  // namespace palu::obs

namespace palu::store {

/// Provenance and sink configuration for a capture.
struct WriterOptions {
  /// Node-id domain of the producer (graph node count), recorded in the
  /// file header for provenance.  Must be >= 1.  The writer widens it at
  /// finish() to cover every appended endpoint id (saturating at
  /// 2^64 − 1), so a producer that cannot know the domain up front (the
  /// serve recorder ingesting an arbitrary trace) passes 1 and lets the
  /// data set it.
  NodeId node_domain = 0;
  /// Producer RNG seed, stored for provenance only.
  std::uint64_t seed = 0;
  /// Metrics sink for the palu_store_* write families; nullptr routes to
  /// obs::default_registry().
  obs::Registry* metrics = nullptr;
};

class WindowStoreWriter final : public traffic::WindowCaptureSink {
 public:
  /// Creates `dir` if missing and opens a fresh store file inside it,
  /// truncating any previous capture.  Throws palu::DataError when the
  /// directory or file cannot be created, palu::InvalidArgument on a
  /// zero node_domain.
  WindowStoreWriter(const std::string& dir, const WriterOptions& opts);

  /// Best-effort finish(): a writer destroyed without finish() still
  /// tries to seal the store (errors are swallowed — destructors must
  /// not throw; a killed process leaves the torn tail the reader's
  /// recovery path is built for).
  ~WindowStoreWriter() override;

  WindowStoreWriter(const WindowStoreWriter&) = delete;
  WindowStoreWriter& operator=(const WindowStoreWriter&) = delete;

  /// Archives one window as a checksummed block.  Records may arrive
  /// unsorted, in either endpoint order, with duplicate unordered pairs
  /// (one per direction) and zero-count rows; the writer canonicalizes
  /// (sort by (u, v), coalesce, drop zeros) before encoding.  Linear in
  /// the record count, with at most 12 sort passes for any ids (4 for ids
  /// below 2^22).  Thread-safe.  Throws palu::DataError on a write
  /// failure.
  void append(std::size_t window_index, Count n_valid,
              std::span<const traffic::EdgePacketCounts> records) override;

  /// Seals the store: writes the manifest (sorted by window index) and
  /// trailer, flushes, and closes the file.  Idempotent; append() after
  /// finish() throws.  Throws palu::DataError on a write failure.
  void finish();

  /// Cumulative capture totals (thread-safe snapshot).
  struct Stats {
    std::uint64_t blocks = 0;
    std::uint64_t records = 0;         ///< canonical records encoded
    std::uint64_t payload_bytes = 0;   ///< encoded payload, no headers
    std::uint64_t file_bytes = 0;      ///< everything written so far
  };
  Stats stats() const;

  /// The store file path inside a store directory.
  static std::string store_file(const std::string& dir);

 private:
  void write_bytes(const void* data, std::size_t n)
      PALU_REQUIRES(mutex_);

  mutable std::mutex mutex_;
  std::FILE* file_ PALU_GUARDED_BY(mutex_) = nullptr;
  bool finished_ PALU_GUARDED_BY(mutex_) = false;
  std::uint64_t offset_ PALU_GUARDED_BY(mutex_) = 0;
  std::uint64_t node_domain_ PALU_GUARDED_BY(mutex_) = 1;
  std::vector<ManifestEntry> manifest_ PALU_GUARDED_BY(mutex_);
  // append's canonical records, and the radix sort's second buffer and
  // digit counts; all reused from block to block.
  std::vector<traffic::EdgePacketCounts> sort_buf_ PALU_GUARDED_BY(mutex_);
  std::vector<traffic::EdgePacketCounts> radix_buf_ PALU_GUARDED_BY(mutex_);
  std::vector<std::size_t> digit_counts_ PALU_GUARDED_BY(mutex_);
  std::vector<unsigned char> encode_buf_ PALU_GUARDED_BY(mutex_);
  Stats stats_ PALU_GUARDED_BY(mutex_);

  obs::Counter& blocks_written_ PALU_GUARDED_BY(mutex_);
  obs::Counter& bytes_written_ PALU_GUARDED_BY(mutex_);
};

}  // namespace palu::store
