// Streaming window-store reader: the replay half of palu::store.
//
// Opening a store validates the file header and loads the manifest; a
// missing or corrupt manifest (torn tail from a killed capture) throws a
// typed palu::DataError under ErrorPolicy::kStrict, or is recovered under
// kSkip/kRepair by scanning the contiguous prefix of intact, checksummed
// blocks and charging the torn tail to the IngestReport error budget.
//
// read_window is the hot replay path: one positioned read per block
// (pread on a shared fd — thread-safe across sweep workers for distinct
// windows), checksum verify, then a tuned varint/delta decode straight
// into the caller's EdgePacketCounts buffer, ready for
// WindowAccumulator::ingest_counts.  Metric handles are resolved once at
// open; the per-block cost is one counter add and one histogram observe.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "palu/common/result.hpp"
#include "palu/common/types.hpp"
#include "palu/store/format.hpp"
#include "palu/traffic/window_source.hpp"

namespace palu::obs {
class Registry;
class Counter;
class Histogram;
}  // namespace palu::obs

namespace palu::store {

class WindowStoreReader final : public traffic::WindowSource {
 public:
  /// Opens the store in `dir` (see WindowStoreWriter::store_file).
  /// `opts.policy` governs torn-tail handling as described above;
  /// `opts.metrics` routes the palu_store_* read families (nullptr =
  /// obs::default_registry()).  Throws palu::DataError on a file that is
  /// not a window store, a version/endianness mismatch, a strict-mode
  /// torn tail, or a recovery that exceeds `opts.max_bad_lines`.
  explicit WindowStoreReader(const std::string& dir,
                             const IngestOptions& opts = {});
  ~WindowStoreReader() override;

  WindowStoreReader(const WindowStoreReader&) = delete;
  WindowStoreReader& operator=(const WindowStoreReader&) = delete;

  // ---- traffic::WindowSource ----
  std::size_t num_windows() const override { return manifest_.size(); }
  /// Reads and decodes stored window `index` (ascending window-index
  /// order).  Returns the block's valid-packet total N_V; `out` holds
  /// the canonical sorted (u,v,count) records.  Thread-safe for
  /// concurrent calls.  Throws palu::DataError on a checksum mismatch or
  /// malformed payload.
  Count read_window(std::size_t index, std::vector<std::byte>& buf,
                    std::vector<traffic::EdgePacketCounts>& out) override;

  // ---- metadata ----
  const FileHeader& header() const noexcept { return header_; }
  /// Manifest entries in ascending window-index order (read_window's
  /// index space).
  const std::vector<ManifestEntry>& manifest() const noexcept {
    return manifest_;
  }
  /// Outcome of the open-time validation/recovery pass.
  const IngestReport& open_report() const noexcept { return report_; }

 private:
  void load_manifest(std::uint64_t file_size, const IngestOptions& opts);
  void recover_blocks(std::uint64_t file_size, const IngestOptions& opts,
                      const std::string& why);

  int fd_ = -1;
  std::string path_;
  FileHeader header_;
  std::vector<ManifestEntry> manifest_;
  IngestReport report_;

  obs::Counter& blocks_read_;
  obs::Counter& bytes_read_;
  obs::Counter& checksum_failures_;
  obs::Counter& torn_tails_;
  obs::Histogram& decode_ns_;
};

}  // namespace palu::store
