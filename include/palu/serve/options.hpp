// Configuration surface of the streaming estimation daemon.
//
// Every knob of `palu_tool serve` lives here so the daemon is fully
// scriptable from tests (construct ServeOptions directly, no CLI) and
// the CLI layer is a thin flag parser.  Durations are millisecond
// doubles; 0 disables the feature where noted.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>

#include "palu/common/result.hpp"
#include "palu/core/streaming.hpp"
#include "palu/traffic/quantities.hpp"

namespace palu::obs {
class Registry;
}

namespace palu::serve {

/// What the ingest stage does when the bounded queue is full.
enum class BackpressurePolicy {
  kBlock,       ///< ingest waits for the fit stage (lossless, default)
  kDropOldest,  ///< evict the oldest queued item to admit the new one
  kDropNewest,  ///< discard the incoming item
};

/// "block" | "drop-oldest" | "drop-newest"; throws palu::InvalidArgument
/// on anything else.
BackpressurePolicy parse_backpressure(std::string_view text);

/// Inverse of parse_backpressure.
std::string_view to_string(BackpressurePolicy policy) noexcept;

struct ServeOptions {
  // --- input -----------------------------------------------------------
  /// Packet-trace path; "-" reads stdin (pipe mode).
  std::string input_path = "-";
  /// Tail-follow a growing file: at EOF, poll for appended bytes instead
  /// of finishing.  Ignored for stdin (a pipe ends when the writer does).
  bool follow = false;
  /// Per-line malformed-input policy (read_trace semantics).
  IngestOptions ingest;

  // --- windowing and fitting -------------------------------------------
  /// N_V: packets per tumbling window.
  std::uint64_t window_packets = 100000;
  /// Which Fig-1 quantity each window histograms.
  traffic::Quantity quantity = traffic::Quantity::kUndirectedDegree;
  /// Estimator knobs (sliding horizon, warm start, fit options).
  core::StreamingOptions streaming;
  /// Stop after this many fitted windows; 0 = run until EOF or signal.
  std::uint64_t max_windows = 0;
  /// Per-window fit deadline in ms; a window whose refit overruns is
  /// served from the previous published fit, tagged degraded=deadline.
  /// 0 disables (and keeps output fully deterministic).
  double fit_deadline_ms = 0.0;

  // --- queue ------------------------------------------------------------
  /// Packet budget of the ingest → fit queue.  The queue holds sealed
  /// windows, max(1, queue_capacity / window_packets) of them.
  std::size_t queue_capacity = 65536;
  /// A full queue blocks ingest or sheds one whole sealed window, which
  /// publishes no line.
  BackpressurePolicy backpressure = BackpressurePolicy::kBlock;

  // --- checkpoint / restore --------------------------------------------
  /// Checkpoint file; empty disables checkpointing.
  std::string checkpoint_path;
  /// Write a checkpoint every this many window boundaries (>= 1).
  std::uint64_t checkpoint_every = 1;
  /// Restore from checkpoint_path before serving (fresh start when the
  /// file is missing, corrupt, or from an incompatible configuration).
  bool restore = false;

  // --- observability ----------------------------------------------------
  /// Metrics snapshot file (JSON; a sibling .prom is written alongside);
  /// empty disables interval snapshots.
  std::string snapshot_path;
  double snapshot_interval_ms = 1000.0;
  /// Metrics sink; nullptr routes to obs::default_registry().
  obs::Registry* metrics = nullptr;
  /// Result-line sink; nullptr means std::cout.
  std::ostream* out = nullptr;

  // --- recording --------------------------------------------------------
  /// Window-store directory (palu::store): every fitted window's pair
  /// counts are archived so the run can be replayed with `palu_tool
  /// replay`.  Empty disables recording.  The store is truncated at
  /// startup (including under --restore); a recording failure logs to
  /// stderr and disables the recorder — it never takes the daemon down.
  std::string record_path;

  // --- supervision ------------------------------------------------------
  /// Restarts a stage may consume without making progress before the
  /// daemon gives up (exit 1).
  std::uint64_t max_stage_restarts = 5;
  double backoff_initial_ms = 10.0;
  double backoff_max_ms = 1000.0;
  /// Tail-follow and supervisor poll tick.
  double poll_interval_ms = 50.0;
  /// SIGINT/SIGTERM drain budget: how long the fit stage gets to empty
  /// the queue before it is aborted.
  double drain_deadline_ms = 5000.0;
  /// Install SIGINT/SIGTERM handlers in run() (tests use request_stop()).
  bool install_signal_handlers = true;
};

}  // namespace palu::serve
