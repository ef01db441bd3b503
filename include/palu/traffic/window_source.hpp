// Abstract window providers and consumers for the sweep pipeline.
//
// A WindowSource replaces synthesis: sweep_windows pulls pre-computed
// per-pair packet counts for each window index instead of sampling them
// from a graph.  A WindowCaptureSink is the inverse tee — the sweep (or
// the serve daemon) pushes every accumulated window into it so a later
// run can replay the exact same ensemble without re-synthesis.  Both
// interfaces live in the traffic layer so the pipeline depends only on
// the contract; the columnar on-disk implementation is palu::store.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "palu/common/types.hpp"
#include "palu/traffic/packet.hpp"

namespace palu::traffic {

/// Supplier of stored windows, addressed by window index.
///
/// Thread-safety contract: `read_window` may be called concurrently from
/// multiple sweep workers for *distinct* indices; implementations must not
/// share mutable per-call state across calls (callers pass their own
/// scratch buffers).
class WindowSource {
 public:
  virtual ~WindowSource() = default;

  /// Number of stored windows (valid indices are [0, num_windows())).
  virtual std::size_t num_windows() const = 0;

  /// Decodes window `index` into `out` as (u,v,count) records sorted by
  /// (u, v) with forward + backward >= 1 for every record, using `buf` as
  /// reusable byte scratch.  Returns the window's valid-packet total
  /// N_V.  Throws palu::DataError on a corrupt or missing block.
  virtual Count read_window(std::size_t index, std::vector<std::byte>& buf,
                            std::vector<EdgePacketCounts>& out) = 0;
};

/// Consumer of accumulated windows (capture tee).
///
/// Thread-safety contract: `append` may be called concurrently from
/// multiple sweep workers; implementations serialize internally.
/// Records may arrive unsorted and may include zero-count rows (full
/// support emissions from the counts path); sinks canonicalize.
class WindowCaptureSink {
 public:
  virtual ~WindowCaptureSink() = default;

  /// Archives one window.  `window_index` orders the replay; `n_valid` is
  /// the window's valid-packet total N_V.
  virtual void append(std::size_t window_index, Count n_valid,
                      std::span<const EdgePacketCounts> records) = 0;
};

}  // namespace palu::traffic
