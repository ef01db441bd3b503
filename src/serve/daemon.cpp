#include "palu/serve/daemon.hpp"

#include <poll.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <thread>
#include <utility>

#include "palu/common/error.hpp"
#include "palu/common/failpoint.hpp"
#include "palu/obs/export.hpp"
#include "palu/obs/names.hpp"

namespace palu::serve {
namespace {

using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0)
      .count();
}

// One flag for the whole process: POSIX signal dispositions are global,
// so a second concurrent daemon would share it anyway.  Tests run with
// install_signal_handlers = false and use request_stop().
std::atomic<bool> g_signal_stop{false};

extern "C" void serve_signal_handler(int) {
  g_signal_stop.store(true);
}

// --queue is a packet budget; the queue holds whole sealed windows.  A
// zero-packet window is rejected in the constructor body.
std::size_t window_capacity(const ServeOptions& opts) {
  const std::uint64_t window = std::max<std::uint64_t>(opts.window_packets, 1);
  return opts.queue_capacity / window;
}

obs::Registry& pick_registry(const ServeOptions& opts) {
  return opts.metrics != nullptr ? *opts.metrics : obs::default_registry();
}

// Snapshot files are written tmp + rename so a concurrent scraper never
// reads a torn file; unlike checkpoints they are advisory, so a failed
// write degrades silently (the previous snapshot stays in place).
bool write_file_atomically(const std::string& path,
                           const std::function<void(std::ostream&)>& fill) {
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) return false;
    fill(out);
    if (!out) return false;
  }
  return std::rename(tmp.c_str(), path.c_str()) == 0;
}

}  // namespace

ServeDaemon::ServeDaemon(ServeOptions opts)
    : opts_(std::move(opts)),
      registry_(pick_registry(opts_)),
      estimator_(opts_.streaming),
      queue_(window_capacity(opts_), opts_.backpressure),
      packets_counter_(registry_.counter(obs::names::kServePackets)),
      windows_counter_(registry_.counter(obs::names::kServeWindowsFitted)),
      stale_counter_(registry_.counter(obs::names::kServeWindowsStale)),
      deadline_counter_(
          registry_.counter(obs::names::kServeDeadlineMisses)),
      queue_depth_gauge_(registry_.gauge(obs::names::kServeQueueDepth)),
      drop_oldest_counter_(registry_.counter(
          obs::names::kServeQueueDropped, {{"policy", "drop-oldest"}})),
      drop_newest_counter_(registry_.counter(
          obs::names::kServeQueueDropped, {{"policy", "drop-newest"}})),
      ingest_restarts_(registry_.counter(obs::names::kServeStageRestarts,
                                         {{"stage", "ingest"}})),
      fit_restarts_(registry_.counter(obs::names::kServeStageRestarts,
                                      {{"stage", "fit"}})),
      checkpoint_writes_(
          registry_.counter(obs::names::kServeCheckpointWrites)),
      checkpoint_failures_(
          registry_.counter(obs::names::kServeCheckpointFailures)),
      checkpoint_age_gauge_(
          registry_.gauge(obs::names::kServeCheckpointAge)),
      restore_ok_(registry_.counter(obs::names::kServeRestores,
                                    {{"outcome", "ok"}})),
      restore_failed_(registry_.counter(obs::names::kServeRestores,
                                        {{"outcome", "failed"}})),
      staleness_gauge_(registry_.gauge(obs::names::kServeStaleness)),
      snapshot_writes_(
          registry_.counter(obs::names::kServeSnapshotWrites)) {
  if (opts_.window_packets == 0) {
    throw InvalidArgument("serve: --window must be >= 1 packet");
  }
  if (opts_.checkpoint_every == 0) opts_.checkpoint_every = 1;
}

bool ServeDaemon::stopping() const noexcept {
  return stop_.load() || g_signal_stop.load() || fatal_exit_.load() != 0;
}

void ServeDaemon::fatal(int code, const std::string& message) {
  int expected = 0;
  if (fatal_exit_.compare_exchange_strong(expected, code)) {
    fatal_message_ = message;
  }
  stop_.store(true);
  // The hammer, not close(): a fatal daemon must not sit through a long
  // queue drain, and the blocked peer stage has to wake up now.
  queue_.abort();
}

void ServeDaemon::interruptible_sleep_ms(double ms) {
  const auto t0 = Clock::now();
  while (!stopping() && ms_since(t0) < ms) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
}

void ServeDaemon::run_stage(
    const char* name, obs::Counter& restarts,
    const std::function<std::uint64_t()>& progress,
    const std::function<void()>& body) {
  double backoff_ms = opts_.backoff_initial_ms;
  std::uint64_t failures_without_progress = 0;
  std::uint64_t last_progress = progress();
  while (!stopping()) {
    try {
      body();
      return;  // clean completion (EOF, drain, max windows)
    } catch (const DataError& e) {
      // Unrecoverable input: retrying would re-read the same bad bytes.
      fatal(3, std::string("serve: ") + name + " stage: " + e.what());
      return;
    } catch (const std::exception& e) {
      const std::uint64_t now_progress = progress();
      if (now_progress != last_progress) {
        // The stage moved between failures — the fault is transient, so
        // the give-up and backoff clocks both rewind.
        failures_without_progress = 0;
        backoff_ms = opts_.backoff_initial_ms;
        last_progress = now_progress;
      }
      if (++failures_without_progress > opts_.max_stage_restarts) {
        fatal(1, std::string("serve: ") + name + " stage gave up after " +
                     std::to_string(opts_.max_stage_restarts) +
                     " restarts without progress: " + e.what());
        return;
      }
      restarts.inc();
      std::fprintf(stderr, "serve: %s stage failed (%s); restart in %gms\n",
                   name, e.what(), backoff_ms);
      interruptible_sleep_ms(backoff_ms);
      backoff_ms = std::min(backoff_ms * 2.0, opts_.backoff_max_ms);
    }
  }
}

// ---------------------------------------------------------------- ingest

void ServeDaemon::set_queue_depth() {
  queue_depth_gauge_.set(
      static_cast<std::int64_t>(queue_.depth() * opts_.window_packets));
}

bool ServeDaemon::seal_window(std::uint64_t end_offset) {
  SealedWindow window;
  window.histogram = acc_.histogram(opts_.quantity);
  window.end_offset = end_offset;
  if (recording_.load()) acc_.export_counts(window.records);
  acc_.begin_window();
  // A shed window counts its N_V packets; drop-oldest admits this one
  // and evicts the queue head instead.
  switch (queue_.push(std::move(window))) {
    case BoundedQueue<SealedWindow>::PushResult::kClosed:
      return false;
    case BoundedQueue<SealedWindow>::PushResult::kDroppedNewest:
      drop_newest_counter_.inc(opts_.window_packets);
      break;
    case BoundedQueue<SealedWindow>::PushResult::kDroppedOldest:
      drop_oldest_counter_.inc(opts_.window_packets);
      break;
    case BoundedQueue<SealedWindow>::PushResult::kOk:
      break;
  }
  set_queue_depth();
  return true;
}

bool ServeDaemon::deliver(std::vector<io::TailRecord>& records) {
  // Counts the packets that reached the accumulator (the ingest restart
  // meter reads this count); a closed queue ends the stream.
  std::uint64_t added = 0;
  bool open = true;
  for (const io::TailRecord& rec : records) {
    acc_.add(rec.packet.src, rec.packet.dst);
    ++added;
    if (acc_.total() == opts_.window_packets &&
        !seal_window(rec.end_offset)) {
      open = false;
      break;
    }
  }
  packets_counter_.inc(added);
  packets_read_.fetch_add(added);
  records.clear();
  return open;
}

void ServeDaemon::ingest_body() {
  const bool is_stdin = opts_.input_path == "-";
  std::ifstream file;
  if (!is_stdin) {
    // (Re)entry after a restart resumes at the last fully consumed line;
    // any partial fragment is dropped and re-read from the file.
    reader_->reset_at(reader_->consumed_offset());
    file.open(opts_.input_path, std::ios::binary);
    if (!file) {
      throw DataError("serve: cannot open input '" + opts_.input_path +
                      "'");
    }
    file.seekg(static_cast<std::streamoff>(reader_->consumed_offset()));
    if (!file) {
      throw DataError("serve: cannot seek input '" + opts_.input_path +
                      "' to offset " +
                      std::to_string(reader_->consumed_offset()));
    }
  }

  std::vector<io::TailRecord> records;
  char buf[65536];
  while (!stopping()) {
    // Probe before any byte is read: a firing ingest failpoint must not
    // consume (and thereby lose) stream data on the restart path.
    PALU_FAILPOINT("serve.ingest");
    if (is_stdin) {
      struct pollfd pfd {
        STDIN_FILENO, POLLIN, 0
      };
      const int pr =
          ::poll(&pfd, 1, static_cast<int>(opts_.poll_interval_ms));
      if (pr < 0) {
        if (errno == EINTR) continue;
        throw Error(std::string("serve: poll on stdin failed: ") +
                    std::strerror(errno));
      }
      if (pr == 0) continue;  // timeout: recheck the stop flag
      const ssize_t n = ::read(STDIN_FILENO, buf, sizeof buf);
      if (n < 0) {
        if (errno == EINTR) continue;
        throw Error(std::string("serve: read on stdin failed: ") +
                    std::strerror(errno));
      }
      if (n == 0) {  // pipe closed: the stream is complete
        reader_->finish(records);
        deliver(records);
        return;
      }
      reader_->feed({buf, static_cast<std::size_t>(n)}, records);
      if (!deliver(records)) return;
    } else {
      file.read(buf, sizeof buf);
      const std::streamsize n = file.gcount();
      if (n > 0) {
        reader_->feed({buf, static_cast<std::size_t>(n)}, records);
        if (!deliver(records)) return;
      }
      if (file.eof()) {
        if (!opts_.follow) {
          reader_->finish(records);
          deliver(records);
          return;
        }
        // Tail mode: the file may grow; clear eof and poll.
        file.clear();
        interruptible_sleep_ms(opts_.poll_interval_ms);
      } else if (file.fail()) {
        throw Error("serve: read failed on '" + opts_.input_path + "'");
      }
    }
  }
}

void ServeDaemon::ingest_stage() {
  run_stage("ingest", ingest_restarts_,
            [this] { return packets_read_.load(); },
            [this] { ingest_body(); });
  queue_.close();
  ingest_done_.store(true);
  stage_finished_.notify();
}

// ------------------------------------------------------------------- fit

void ServeDaemon::publish_line(std::size_t index, std::uint64_t offset,
                               const core::StreamingRefit& refit,
                               const char* degraded) {
  std::string line = "window=" + std::to_string(index) +
                     " offset=" + std::to_string(offset) +
                     " degraded=" + degraded;
  char buf[96];
  const auto add_num = [&](const char* key, double v) {
    std::snprintf(buf, sizeof buf, " %s=%.17g", key, v);
    line += buf;
  };
  const auto add_lane = [&](const char* prefix,
                            const core::StreamingFitSnapshot& lane) {
    line += ' ';
    line += prefix;
    line += "_state=";
    line += core::to_string(lane.freshness);
    line += ' ';
    line += prefix;
    line += "_stage=";
    line += fit::to_string(lane.stage);
    std::string key(prefix);
    const std::size_t base = key.size();
    const auto field = [&](const char* suffix, double v) {
      key.resize(base);
      key += suffix;
      add_num(key.c_str(), v);
    };
    field("_alpha", lane.fit.alpha);
    field("_c", lane.fit.c);
    field("_mu", lane.fit.mu);
    field("_u", lane.fit.u);
    field("_l", lane.fit.l);
    field("_zm_alpha", lane.zm.alpha);
    field("_zm_delta", lane.zm.delta);
  };
  add_lane("w", refit.window);
  add_lane("s", refit.sliding);
  std::ostream& out = opts_.out != nullptr ? *opts_.out : std::cout;
  out << line << '\n' << std::flush;
}

void ServeDaemon::boundary(const SealedWindow& window) {
  // An armed serve.fit failpoint degrades this window instead of killing
  // the stage: the estimator records it like any un-fittable window.
  std::string forced;
  bool forced_injected = false;
  try {
    PALU_FAILPOINT("serve.fit");
  } catch (const std::exception& e) {
    forced = e.what();
    forced_injected = failpoints::is_failpoint_error(e);
  }

  const bool deadline_on = opts_.fit_deadline_ms > 0.0;
  const auto t0 = Clock::now();
  core::StreamingRefit refit =
      estimator_.refit_window(window.histogram, forced);
  const bool deadline_miss =
      deadline_on && ms_since(t0) > opts_.fit_deadline_ms;

  const char* degraded = "-";
  const core::StreamingRefit* to_publish = &refit;
  if (deadline_miss) {
    // Serve the previous published fit, tagged, rather than a result
    // that arrived too late to be trusted as live.
    degraded = "deadline";
    deadline_counter_.inc();
    if (last_published_) to_publish = &*last_published_;
  } else if (!forced.empty()) {
    degraded = forced_injected ? "injected" : "forced";
  } else if (!refit.fresh) {
    degraded = "fit";
  }
  publish_line(refit.window_index, window.end_offset, *to_publish, degraded);
  if (!deadline_miss) last_published_ = refit;

  published_.fetch_add(1);
  windows_counter_.inc();
  if (!refit.fresh || deadline_miss) stale_counter_.inc();
  staleness_gauge_.set(
      static_cast<std::int64_t>(estimator_.consecutive_stale()));

  last_boundary_offset_ = window.end_offset;
  if (!opts_.checkpoint_path.empty()) {
    ++windows_since_checkpoint_;
    checkpoint_age_gauge_.set(
        static_cast<std::int64_t>(windows_since_checkpoint_));
    if (windows_since_checkpoint_ >= opts_.checkpoint_every) {
      do_checkpoint();
    }
  }

  // Archive the fitted window.  A recording failure (disk full, armed
  // io.capture_write failpoint) disables the recorder and keeps serving:
  // recording is an output tee, never a reason to stop estimating.
  if (recorder_ != nullptr) {
    try {
      recorder_->append(refit.window_index, opts_.window_packets,
                        window.records);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "serve: recording disabled: %s\n", e.what());
      recorder_.reset();
      recording_.store(false);
    }
  }
}

void ServeDaemon::fit_body() {
  SealedWindow window;
  // A stop request does NOT end this loop: the drain contract
  // (options.hpp drain_deadline_ms) is that windows queued at
  // SIGINT/SIGTERM are still fitted.  On stop the ingest stage exits and
  // close()s the queue, so pop() returns false once the backlog is
  // consumed; the supervisor's drain-deadline abort() bounds the drain.
  // Only a fatal abort skips straight out.
  while (fatal_exit_.load() == 0) {
    if (!queue_.pop(window)) return;  // stream drained or aborted
    set_queue_depth();
    boundary(window);
    if (opts_.max_windows != 0 && published_.load() >= opts_.max_windows) {
      stop_.store(true);
      return;
    }
  }
}

void ServeDaemon::fit_stage() {
  run_stage("fit", fit_restarts_, [this] { return published_.load(); },
            [this] { fit_body(); });
  fit_done_.store(true);
  stage_finished_.notify();
}

// --------------------------------------------------- checkpoint / restore

Checkpoint ServeDaemon::make_checkpoint() const {
  Checkpoint ck;
  ck.input_offset = last_boundary_offset_;
  ck.packets_ingested = published_.load() * opts_.window_packets;
  ck.windows_published = published_.load();
  ck.window_packets = opts_.window_packets;
  ck.quantity = std::string(traffic::quantity_name(opts_.quantity));
  ck.sliding_horizon = opts_.streaming.sliding_horizon;
  ck.warm_start = opts_.streaming.warm_start;
  ck.estimator = estimator_.state();
  return ck;
}

void ServeDaemon::do_checkpoint() {
  try {
    PALU_FAILPOINT("serve.checkpoint");
    save_checkpoint(opts_.checkpoint_path, make_checkpoint());
    windows_since_checkpoint_ = 0;
    checkpoint_age_gauge_.set(0);
    checkpoint_writes_.inc();
  } catch (const std::exception& e) {
    // Degrade: the previous checkpoint (if any) stays valid on disk, so
    // a later crash recovers to an older boundary instead of none.
    checkpoint_failures_.inc();
    std::fprintf(stderr, "serve: checkpoint write failed: %s\n", e.what());
  }
}

void ServeDaemon::try_restore() {
  try {
    PALU_FAILPOINT("serve.restore");
    Checkpoint ck = load_checkpoint(opts_.checkpoint_path);
    if (ck.window_packets != opts_.window_packets ||
        ck.quantity != traffic::quantity_name(opts_.quantity) ||
        ck.sliding_horizon != opts_.streaming.sliding_horizon ||
        ck.warm_start != opts_.streaming.warm_start) {
      throw DataError(
          "serve: checkpoint configuration fingerprint mismatch "
          "(was the daemon reconfigured between runs?)");
    }
    resume_offset_ = ck.input_offset;
    last_boundary_offset_ = ck.input_offset;
    published_.store(ck.windows_published);
    estimator_.restore(std::move(ck.estimator));
    // The gauge normally updates at window boundaries; seed it from the
    // restored state so a resume that sees no further boundary still
    // exports the same staleness as the uninterrupted run it replaces.
    staleness_gauge_.set(
        static_cast<std::int64_t>(estimator_.consecutive_stale()));
    restore_ok_.inc();
    std::fprintf(stderr,
                 "serve: restored checkpoint at offset %llu (%llu windows)\n",
                 static_cast<unsigned long long>(resume_offset_),
                 static_cast<unsigned long long>(published_.load()));
  } catch (const std::exception& e) {
    // A missing/corrupt/mismatched checkpoint is a fresh start, never a
    // startup failure: the crash-only contract is that restart always
    // yields a serving daemon.
    restore_failed_.inc();
    resume_offset_ = 0;
    std::fprintf(stderr, "serve: restore failed (%s); starting fresh\n",
                 e.what());
  }
}

// ------------------------------------------------------------ supervisor

void ServeDaemon::write_snapshot() {
  if (opts_.snapshot_path.empty()) return;
  const obs::RegistrySnapshot snap = registry_.snapshot();
  const bool json_ok = write_file_atomically(
      opts_.snapshot_path,
      [&](std::ostream& out) { obs::write_json(out, snap); });
  const bool prom_ok = write_file_atomically(
      obs::prom_path_for(opts_.snapshot_path),
      [&](std::ostream& out) { obs::write_prometheus(out, snap); });
  if (json_ok && prom_ok) snapshot_writes_.inc();
}

void ServeDaemon::supervise() {
  auto last_snapshot = Clock::now();
  std::optional<Clock::time_point> drain_started;
  const auto tick = std::chrono::milliseconds(static_cast<int>(
      std::max(1.0, std::min(50.0, opts_.poll_interval_ms))));
  int stages_seen = 0;
  while (!(ingest_done_.load() && fit_done_.load())) {
    // A finished stage ends the wait early: the daemon exits, or stops a
    // producer whose consumer is gone, without sitting out the tick.
    stages_seen = stage_finished_.wait_for(stages_seen, tick);
    if (stopping() && !drain_started) {
      stop_.store(true);  // fold a signal into the internal flag
      drain_started = Clock::now();
    }
    if (fit_done_.load() && !ingest_done_.load()) {
      // The consumer is gone (max windows or fatal): a blocked producer
      // must not keep the daemon alive.
      stop_.store(true);
      queue_.abort();
    }
    if (drain_started &&
        ms_since(*drain_started) > opts_.drain_deadline_ms) {
      queue_.abort();
    }
    if (!opts_.snapshot_path.empty() &&
        ms_since(last_snapshot) >= opts_.snapshot_interval_ms) {
      write_snapshot();
      last_snapshot = Clock::now();
    }
  }
}

int ServeDaemon::run() {
  // Unconditionally: a daemon that installs no handlers must not inherit
  // a stop left behind by a signal-stopped predecessor in this process.
  g_signal_stop.store(false);
  if (opts_.install_signal_handlers) {
    std::signal(SIGINT, serve_signal_handler);
    std::signal(SIGTERM, serve_signal_handler);
  }

  if (opts_.restore && !opts_.checkpoint_path.empty()) try_restore();
  reader_ =
      std::make_unique<io::TraceTailReader>(opts_.ingest, resume_offset_);
  acc_.begin_window();
  if (!opts_.record_path.empty()) {
    // The daemon cannot know the trace's node domain up front; the
    // writer widens the placeholder to the recorded data at finish().
    store::WriterOptions wopts;
    wopts.node_domain = 1;
    wopts.metrics = &registry_;
    recorder_ = std::make_unique<store::WindowStoreWriter>(
        opts_.record_path, wopts);
    recording_.store(true);
  }

  std::thread ingest([this] { ingest_stage(); });
  std::thread fit([this] { fit_stage(); });
  supervise();
  ingest.join();
  fit.join();

  // Final state flush: the last boundary's checkpoint (if one is due)
  // and a terminal metrics snapshot, so a drained daemon leaves the same
  // artifacts a running one serves.
  if (!opts_.checkpoint_path.empty() && windows_since_checkpoint_ > 0 &&
      fatal_exit_.load() == 0) {
    do_checkpoint();
  }
  write_snapshot();
  // Seal the recording (manifest + trailer) even on a fatal exit: the
  // windows fitted so far are intact, and a torn tail is only for runs
  // the process never got to finish.
  if (recorder_ != nullptr) {
    try {
      recorder_->finish();
    } catch (const std::exception& e) {
      std::fprintf(stderr, "serve: record finish failed: %s\n", e.what());
    }
    recorder_.reset();
  }
  if (opts_.out != nullptr) {
    opts_.out->flush();
  } else {
    std::cout.flush();
  }

  const int code = fatal_exit_.load();
  if (code != 0) {
    std::fprintf(stderr, "serve: fatal: %s\n", fatal_message_.c_str());
  }
  return code;
}

}  // namespace palu::serve
