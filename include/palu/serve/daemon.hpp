// The crash-only streaming estimation daemon behind `palu_tool serve`.
//
// Three actors, two threads plus the caller:
//
//   ingest thread:  tails the input (file tail / pipe / stdin) through a
//                   TraceTailReader into the daemon's one
//                   WindowAccumulator; at every N_V boundary it
//                   histograms the window (and exports its pair counts
//                   under --record), then pushes the sealed window into
//                   the bounded queue under the backpressure policy.
//   fit thread:     pops sealed windows and refits both lanes of the
//                   WindowedStreamingEstimator (warm-started, the lanes'
//                   ZM fits on the pool), publishes one result line,
//                   checkpoints, and appends the window's records.
//   supervisor:     the caller's thread inside run() — wakes on a tick
//                   and whenever a stage finishes, folds signals in,
//                   enforces the drain deadline, writes metrics
//                   snapshots on an interval, and finalizes state.
//
// Only whole windows cross threads.  `queue_capacity` is a packet
// budget: the queue holds max(1, queue_capacity / window_packets) sealed
// windows, and a drop policy sheds one whole window, which publishes no
// line (window= numbers fitted windows only, so it stays contiguous).
// The queue depth gauge and the dropped counter count packets, N_V per
// window.  The partial window is ingest-thread state, so an ingest
// restart resumes it.
//
// Delivery is at-least-once across a crash: boundary() publishes a
// window's line before it checkpoints, so a --restore publishes again
// every window published after the last checkpoint — at most
// checkpoint_every of them, more only if checkpoint writes failed.  The
// repeated lines are byte-identical to the first ones (the fit is
// deterministic given the restored state), so consumers dedupe on
// `window=`.
//
// Both worker stages run under run_stage(): a palu::DataError is fatal
// (bad input, exit 3), any other failure restarts the stage with capped
// exponential backoff, and a stage that keeps failing without making
// progress gives the daemon up with exit 1.  Fit failures are not stage
// failures: the estimator degrades to stale-but-tagged parameters and
// the service keeps running.  Four failpoints (serve.ingest, serve.fit,
// serve.checkpoint, serve.restore) make every one of those paths
// deterministically testable.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "palu/common/thread_annotations.hpp"
#include "palu/core/streaming.hpp"
#include "palu/io/tail.hpp"
#include "palu/obs/metrics.hpp"
#include "palu/serve/checkpoint.hpp"
#include "palu/serve/options.hpp"
#include "palu/serve/queue.hpp"
#include "palu/store/writer.hpp"
#include "palu/traffic/window_accumulator.hpp"

namespace palu::serve {

class ServeDaemon {
 public:
  explicit ServeDaemon(ServeOptions opts);

  ServeDaemon(const ServeDaemon&) = delete;
  ServeDaemon& operator=(const ServeDaemon&) = delete;

  /// Runs the daemon to completion (EOF, --max-windows, signal, or a
  /// fatal failure).  Returns the process exit code under the documented
  /// contract: 0 clean, 1 a stage gave up after max_stage_restarts,
  /// 3 unrecoverable input data error.
  int run();

  /// Asks the daemon to drain and exit (what SIGINT/SIGTERM trigger);
  /// callable from any thread.
  void request_stop() noexcept { stop_.store(true); }

  /// Result lines published so far (monotone while running).
  std::uint64_t windows_published() const noexcept {
    return published_.load();
  }

  /// Estimator state; stable only after run() returns.
  const core::WindowedStreamingEstimator& estimator() const noexcept {
    return estimator_;
  }

  /// Why the daemon exited non-zero (empty on clean exit).
  const std::string& fatal_message() const noexcept {
    return fatal_message_;
  }

 private:
  /// Counts the finished stages, so the supervisor's tick wait ends as
  /// soon as one finishes.
  class StageSignal {
   public:
    /// Called by a stage as its last act.
    void notify() PALU_EXCLUDES(mutex_) {
      {
        std::lock_guard<std::mutex> lock(mutex_);
        ++finished_;
      }
      cv_.notify_one();
    }

    /// Waits up to `timeout` for the count to move past `seen`; returns
    /// the count.
    int wait_for(int seen, std::chrono::milliseconds timeout)
        PALU_EXCLUDES(mutex_) {
      std::unique_lock<std::mutex> lock(mutex_);
      cv_.wait_for(lock, timeout, [&] { return finished_ != seen; });
      return finished_;
    }

   private:
    std::mutex mutex_;
    std::condition_variable cv_;
    int finished_ PALU_GUARDED_BY(mutex_) = 0;
  };

  bool stopping() const noexcept;
  void fatal(int code, const std::string& message);
  void run_stage(const char* name, obs::Counter& restarts,
                 const std::function<std::uint64_t()>& progress,
                 const std::function<void()>& body);
  void interruptible_sleep_ms(double ms);

  // What crosses from ingest to fit: one complete N_V-packet window.
  struct SealedWindow {
    stats::DegreeHistogram histogram;
    /// Stream offset one past the window's last line.
    std::uint64_t end_offset = 0;
    /// The window's pair counts (--record only).
    std::vector<traffic::EdgePacketCounts> records;
  };

  void ingest_stage();
  void ingest_body();
  bool deliver(std::vector<io::TailRecord>& records);
  bool seal_window(std::uint64_t end_offset);
  void set_queue_depth();

  void fit_stage();
  void fit_body();
  void boundary(const SealedWindow& window);
  void publish_line(std::size_t index, std::uint64_t offset,
                    const core::StreamingRefit& refit,
                    const char* degraded);

  Checkpoint make_checkpoint() const;
  void do_checkpoint();
  void try_restore();
  void write_snapshot();

  void supervise();

  ServeOptions opts_;
  obs::Registry& registry_;
  core::WindowedStreamingEstimator estimator_;
  BoundedQueue<SealedWindow> queue_;
  std::unique_ptr<io::TraceTailReader> reader_;

  // Cross-thread coordination.
  std::atomic<bool> stop_{false};
  std::atomic<bool> ingest_done_{false};
  std::atomic<bool> fit_done_{false};
  StageSignal stage_finished_;
  std::atomic<int> fatal_exit_{0};
  std::atomic<std::uint64_t> published_{0};
  std::atomic<std::uint64_t> packets_read_{0};
  /// Whether ingest exports each window's pair counts for the recorder.
  std::atomic<bool> recording_{false};

  // Ingest-thread state: the open window.  It survives an ingest
  // restart, which re-reads from the reader's consumed offset.
  traffic::WindowAccumulator acc_;

  // Fit-thread state (touched by run() only before start / after join).
  std::uint64_t last_boundary_offset_ = 0;
  std::uint64_t windows_since_checkpoint_ = 0;
  std::optional<core::StreamingRefit> last_published_;
  std::uint64_t resume_offset_ = 0;
  std::string fatal_message_;

  // Window recorder (--record): owned by the fit thread after start;
  // reset on the first append failure so recording can never take the
  // daemon down.
  std::unique_ptr<store::WindowStoreWriter> recorder_;

  // Metric handles, resolved once against the selected registry.
  obs::Counter& packets_counter_;
  obs::Counter& windows_counter_;
  obs::Counter& stale_counter_;
  obs::Counter& deadline_counter_;
  obs::Gauge& queue_depth_gauge_;
  obs::Counter& drop_oldest_counter_;
  obs::Counter& drop_newest_counter_;
  obs::Counter& ingest_restarts_;
  obs::Counter& fit_restarts_;
  obs::Counter& checkpoint_writes_;
  obs::Counter& checkpoint_failures_;
  obs::Gauge& checkpoint_age_gauge_;
  obs::Counter& restore_ok_;
  obs::Counter& restore_failed_;
  obs::Gauge& staleness_gauge_;
  obs::Counter& snapshot_writes_;
};

}  // namespace palu::serve
