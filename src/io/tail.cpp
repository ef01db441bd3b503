#include "palu/io/tail.hpp"

#include <cstring>
#include <utility>

#include "palu/common/error.hpp"
#include "ingest_gate.hpp"
#include "trace_line.hpp"

namespace palu::io {

// The internal IngestGate keeps references to the options and the report,
// so both must live alongside it with stable addresses.
struct TraceTailReader::Gate {
  Gate(const char* label, const IngestOptions& o)
      : opts(o), gate(label, opts, report) {}

  IngestOptions opts;
  IngestReport report;
  detail::IngestGate gate;
  std::size_t line_number = 0;
};

TraceTailReader::TraceTailReader(const IngestOptions& opts,
                                 std::uint64_t base_offset)
    : gate_(std::make_unique<Gate>("trace_tail", opts)),
      consumed_(base_offset) {}

TraceTailReader::TraceTailReader(const char* reader_label,
                                 const IngestOptions& opts)
    : gate_(std::make_unique<Gate>(reader_label, opts)) {}

TraceTailReader::~TraceTailReader() = default;

const IngestReport& TraceTailReader::report() const noexcept {
  return gate_->report;
}

std::size_t TraceTailReader::consume_line(std::string_view line,
                                          std::vector<TailRecord>& out) {
  ++gate_->line_number;
  const std::string_view body = detail::trim(line);
  if (body.empty() || body.front() == '#') return 0;
  ++gate_->report.lines_read;
  const auto packet = gate_->gate.accept(
      gate_->line_number, detail::parse_packet_line(body), body, line);
  if (!packet) return 0;
  out.push_back(TailRecord{*packet, consumed_});
  return 1;
}

const char* TraceTailReader::scan_run(const char* p, const char* end,
                                      std::vector<TailRecord>& out) {
  // The run's accounting lives in locals and is added once, on every
  // exit: a push_back that throws still leaves it exact.
  std::uint64_t offset = consumed_;
  std::size_t lines = 0;
  const auto account = [&] {
    consumed_ = offset;
    gate_->line_number += lines;
    gate_->report.lines_read += lines;
    gate_->gate.kept(lines);
  };
  try {
    for (;;) {
      traffic::Packet packet{};
      const char* const nl = detail::scan_packet_line(p, end, packet);
      if (nl == nullptr || nl == end) break;
      offset += static_cast<std::uint64_t>(nl - p) + 1;
      ++lines;
      out.push_back(TailRecord{packet, offset});
      p = nl + 1;
    }
  } catch (...) {
    account();
    throw;
  }
  account();
  return p;
}

std::size_t TraceTailReader::feed(std::string_view chunk,
                                  std::vector<TailRecord>& out) {
  const std::size_t before = out.size();
  const char* p = chunk.data();
  const char* const end = p + chunk.size();
  while (p != end) {
    if (buffer_.empty()) {
      p = scan_run(p, end, out);
      if (p == end) break;
    }
    // A declined line, or the rest of one split across chunks.
    const auto* nl = static_cast<const char*>(
        std::memchr(p, '\n', static_cast<std::size_t>(end - p)));
    if (nl == nullptr) {
      // No terminator yet: the fragment is an incomplete line, not a
      // malformed one.  Hold it back until more bytes arrive.
      buffer_.append(p, end);
      break;
    }
    std::string_view line;
    if (buffer_.empty()) {
      line = std::string_view(p, static_cast<std::size_t>(nl - p));
    } else {
      buffer_.append(p, nl);
      line = buffer_;
    }
    consumed_ += line.size() + 1;  // the line and its '\n'
    consume_line(line, out);
    buffer_.clear();
    p = nl + 1;
  }
  return out.size() - before;
}

std::size_t TraceTailReader::finish(std::vector<TailRecord>& out) {
  if (buffer_.empty()) return 0;
  std::string line = std::move(buffer_);
  buffer_.clear();
  consumed_ += line.size();  // end-of-stream terminates the line
  return consume_line(line, out);
}

void TraceTailReader::reset_at(std::uint64_t offset) {
  buffer_.clear();
  consumed_ = offset;
}

std::size_t cut_windows(std::span<const TailRecord> records, Count n_valid,
                        traffic::WindowAccumulator& window,
                        const WindowSealed& sealed) {
  for (std::size_t i = 0; i < records.size(); ++i) {
    window.add(records[i].packet.src, records[i].packet.dst);
    if (window.total() != n_valid) continue;
    const bool go_on = sealed(records[i].end_offset);
    window.begin_window();
    if (!go_on) return i + 1;
  }
  return records.size();
}

}  // namespace palu::io
