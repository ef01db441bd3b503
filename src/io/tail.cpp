#include "palu/io/tail.hpp"

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
  traffic::Packet scanned{};
  if (detail::scan_packet_line(line, scanned)) {
    ++gate_->report.lines_read;
    gate_->gate.kept();
    out.push_back(TailRecord{scanned, consumed_});
    return 1;
  }
  const std::string_view body = detail::trim(line);
  if (body.empty() || body.front() == '#') return 0;
  ++gate_->report.lines_read;
  const auto packet = gate_->gate.accept(
      gate_->line_number, detail::parse_packet_line(body), body, line);
  if (!packet) return 0;
  out.push_back(TailRecord{*packet, consumed_});
  return 1;
}

std::size_t TraceTailReader::feed(std::string_view chunk,
                                  std::vector<TailRecord>& out) {
  std::size_t emitted = 0;
  while (!chunk.empty()) {
    const std::size_t nl = chunk.find('\n');
    if (nl == std::string_view::npos) {
      // No terminator yet: the fragment is an incomplete line, not a
      // malformed one.  Hold it back until more bytes arrive.
      buffer_.append(chunk);
      break;
    }
    std::string_view line;
    if (buffer_.empty()) {
      line = chunk.substr(0, nl);
    } else {
      buffer_.append(chunk.substr(0, nl));
      line = buffer_;
    }
    consumed_ += line.size() + 1;  // the line and its '\n'
    emitted += consume_line(line, out);
    buffer_.clear();
    chunk.remove_prefix(nl + 1);
  }
  return emitted;
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

}  // namespace palu::io
