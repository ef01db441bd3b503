// Crash-recovery state for the serve daemon.
//
// A checkpoint captures everything needed to resume estimation at a
// window boundary: the input-stream byte offset of the boundary, the
// complete WindowedStreamingEstimator state (both lanes plus the sliding
// horizon histograms), and a fingerprint of the configuration that
// produced it.  Restoring a checkpoint and replaying the stream from
// `input_offset` yields fits byte-identical to an uninterrupted run —
// doubles are serialized as C99 hexfloats so the round trip is exact.
//
// Durability: save() writes to `path + ".tmp"`, fsyncs, and renames, so
// a crash mid-write leaves the previous checkpoint intact (crash-only
// design: the daemon never needs a clean shutdown to restart safely).
// load() verifies a trailing FNV-1a checksum and the format version, and
// throws palu::DataError on any corruption — the daemon treats that as
// "no checkpoint" and starts fresh rather than dying.
#pragma once

#include <cstdint>
#include <string>

#include "palu/core/streaming.hpp"

namespace palu::serve {

struct Checkpoint {
  /// Input-stream byte offset of the window boundary this state is
  /// consistent with; resuming seeks here.
  std::uint64_t input_offset = 0;
  /// Packets of the windows fitted up to the boundary, N_V each; shed
  /// windows are not counted (diagnostics only).
  std::uint64_t packets_ingested = 0;
  /// Published window lines up to the boundary.
  std::uint64_t windows_published = 0;

  // Configuration fingerprint: a checkpoint only restores into a daemon
  // with the same windowing setup (estimation state under a different
  // N_V or quantity would be silently wrong).
  std::uint64_t window_packets = 0;
  std::string quantity;
  std::size_t sliding_horizon = 0;
  bool warm_start = true;

  core::StreamingState estimator;
};

/// Atomically writes `ck` to `path` (tmp + fsync + rename).  Throws
/// palu::Error when the file cannot be written.
void save_checkpoint(const std::string& path, const Checkpoint& ck);

/// Reads and verifies a checkpoint.  Throws palu::DataError on a
/// missing, truncated, corrupt, or version-mismatched file.
Checkpoint load_checkpoint(const std::string& path);

}  // namespace palu::serve
