// Incremental packet-trace reading — the library's one trace line parser.
//
// `palu_tool serve` tails a growing file, a pipe, or stdin: data arrive
// in arbitrary chunks whose boundaries do not respect line breaks.
// TraceTailReader therefore buffers bytes and only parses complete
// (newline-terminated) lines: a partial last line is "incomplete, retry
// with more bytes", never a budget charge.  Each line goes through one
// ErrorPolicy gate with IngestReport accounting and the palu_ingest_*
// counters (reader label "trace_tail").  io::read_trace is this reader
// fed from a stream in fixed chunks, under its own label "read_trace".
//
// Every emitted record carries the stream byte offset one past its line,
// so a consumer that persists `end_offset` can crash, reopen the file,
// seek, and resume with no duplicated and no dropped packets — the
// anchor the serve checkpoint is built on.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "palu/common/result.hpp"
#include "palu/io/trace.hpp"
#include "palu/traffic/packet.hpp"

namespace palu::io {

/// One parsed packet plus its resume anchor.
struct TailRecord {
  traffic::Packet packet;
  /// Stream offset one past this record's line (including the '\n').
  /// Seeking here and re-reading yields the stream minus everything up
  /// to and including this record.
  std::uint64_t end_offset = 0;
};

class TraceTailReader {
 public:
  /// `base_offset` is the stream position the first fed byte corresponds
  /// to (non-zero after a checkpoint-restore seek).
  explicit TraceTailReader(const IngestOptions& opts = {},
                           std::uint64_t base_offset = 0);
  ~TraceTailReader();

  TraceTailReader(const TraceTailReader&) = delete;
  TraceTailReader& operator=(const TraceTailReader&) = delete;

  /// Consumes one chunk, appending a TailRecord per complete packet line
  /// to `out`.  Returns the number of records appended.  Throws
  /// palu::DataError on a kStrict malformed line or an exhausted error
  /// budget.
  std::size_t feed(std::string_view chunk, std::vector<TailRecord>& out);

  /// Flushes the trailing partial line, treating end-of-stream as its
  /// terminator.  Call once when the stream is known to be complete; a
  /// follow-mode reader never calls this.
  std::size_t finish(std::vector<TailRecord>& out);

  /// Stream offset one past the last fully consumed line — the exact
  /// position to seek to when resuming.  Bytes past it are the buffered
  /// partial line.
  std::uint64_t consumed_offset() const noexcept { return consumed_; }

  /// Bytes held back as a partial line.
  std::size_t buffered_bytes() const noexcept { return buffer_.size(); }

  /// Drops the partial-line buffer and rebases the reader at `offset`
  /// (stage restart: the owner re-reads from consumed_offset()).
  void reset_at(std::uint64_t offset);

  /// Cumulative per-line accounting across all feeds.
  const IngestReport& report() const noexcept;

 private:
  // read_trace's reader: the same parser under the "read_trace" label.
  friend IngestReport read_trace(std::istream& in, const IngestOptions& opts,
                                 const PacketSink& sink);
  TraceTailReader(const char* reader_label, const IngestOptions& opts);

  // Reads the run of well-formed lines at `p` whose '\n' lies before
  // `end`, one scan each; returns where the run stops.
  const char* scan_run(const char* p, const char* end,
                       std::vector<TailRecord>& out);
  // A line the scan declined: the ErrorPolicy gate's full path.
  std::size_t consume_line(std::string_view line,
                           std::vector<TailRecord>& out);

  struct Gate;  // wraps the internal IngestGate without leaking it here
  std::unique_ptr<Gate> gate_;
  std::string buffer_;
  std::uint64_t consumed_ = 0;
};

}  // namespace palu::io
