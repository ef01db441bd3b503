#include "palu/io/trace.hpp"

#include <algorithm>
#include <array>
#include <charconv>
#include <cstdint>
#include <string>
#include <string_view>

#include "palu/common/error.hpp"
#include "palu/io/parse.hpp"
#include "palu/io/tail.hpp"
#include "ingest_gate.hpp"
#include "trace_line.hpp"

namespace palu::io {

using detail::trim;

IngestReport read_trace(std::istream& in, const IngestOptions& opts,
                        const PacketSink& sink) {
  TraceTailReader reader("read_trace", opts);
  std::vector<TailRecord> records;
  std::vector<traffic::Packet> packets;
  const auto hand_off = [&] {
    packets.clear();
    for (const TailRecord& r : records) packets.push_back(r.packet);
    records.clear();
    if (!packets.empty()) sink(packets);
  };
  std::vector<char> chunk(std::size_t{1} << 16);
  while (in) {
    in.read(chunk.data(), static_cast<std::streamsize>(chunk.size()));
    reader.feed({chunk.data(), static_cast<std::size_t>(in.gcount())},
                records);
    hand_off();
  }
  reader.finish(records);  // end of stream terminates the last line
  hand_off();
  return reader.report();
}

TraceReadResult read_trace(std::istream& in, const IngestOptions& opts) {
  TraceReadResult out;
  out.report = read_trace(in, opts, [&](std::span<const traffic::Packet> p) {
    out.packets.insert(out.packets.end(), p.begin(), p.end());
  });
  return out;
}

std::vector<traffic::Packet> read_trace(std::istream& in) {
  return read_trace(in, IngestOptions{}).packets;
}

namespace {

// Writes "a b" lines through std::to_chars into one reused buffer, handed
// to the stream a block at a time: the bytes `out << a << ' ' << b` would
// write, without a locale-aware formatter per id.  A stream that fails
// keeps its failbit or badbit, as it would from operator<<.  Call flush()
// after the last line.
class PairLineWriter {
 public:
  explicit PairLineWriter(std::ostream& out) : out_(out) {}

  void line(std::uint64_t a, std::uint64_t b) {
    // Two 20-digit ids, a blank and a '\n'.
    constexpr std::size_t kMaxLine = 42;
    if (buf_.size() - used_ < kMaxLine) flush();
    char* p = buf_.data() + used_;
    char* const end = buf_.data() + buf_.size();
    p = std::to_chars(p, end, a).ptr;
    *p++ = ' ';
    p = std::to_chars(p, end, b).ptr;
    *p++ = '\n';
    used_ = static_cast<std::size_t>(p - buf_.data());
  }

  void flush() {
    out_.write(buf_.data(), static_cast<std::streamsize>(used_));
    used_ = 0;
  }

 private:
  std::ostream& out_;
  std::array<char, std::size_t{1} << 16> buf_;
  std::size_t used_ = 0;
};

}  // namespace

void write_trace(std::ostream& out,
                 std::span<const traffic::Packet> pkts) {
  out << "# palu packet trace: one 'src dst' pair per line\n";
  PairLineWriter lines(out);
  for (const traffic::Packet& p : pkts) lines.line(p.src, p.dst);
  lines.flush();
}

void write_edge_list(std::ostream& out, const graph::Graph& g) {
  out << "# nodes=" << g.num_nodes() << '\n';
  PairLineWriter lines(out);
  for (const graph::Edge& e : g.edges()) lines.line(e.u, e.v);
  lines.flush();
}

EdgeListReadResult read_edge_list(std::istream& in,
                                  const IngestOptions& opts) {
  EdgeListReadResult out;
  detail::IngestGate gate("read_edge_list", opts, out.report);
  std::vector<graph::Edge> edges;
  std::vector<std::size_t> edge_lines;     // for the declared-range check
  std::vector<bool> edge_was_repaired;
  NodeId declared_nodes = 0;
  bool have_declaration = false;
  NodeId max_endpoint = 0;
  const auto add_edge = [&](const traffic::Packet& p, std::size_t line_no,
                            bool repaired) {
    max_endpoint = std::max({max_endpoint, p.src, p.dst});
    edges.push_back(graph::Edge{p.src, p.dst});
    edge_lines.push_back(line_no);
    edge_was_repaired.push_back(repaired);
  };
  std::string line;
  std::size_t line_number = 0;
  while (std::getline(in, line)) {
    ++line_number;
    traffic::Packet scanned{};
    const char* const line_end = line.data() + line.size();
    if (detail::scan_packet_line(line.data(), line_end, scanned) ==
        line_end) {
      ++out.report.lines_read;
      gate.kept();
      add_edge(scanned, line_number, false);
      continue;
    }
    const std::string_view body = trim(line);
    if (body.empty()) continue;
    if (body.front() == '#') {
      const std::size_t pos = body.find("nodes=");
      if (pos != std::string_view::npos) {
        const auto n = parse_u64(trim(body.substr(pos + 6)));
        if (n.ok()) {
          declared_nodes = n.value();
          have_declaration = true;
        } else if (opts.policy == ErrorPolicy::kStrict) {
          throw DataError("read_edge_list: malformed line " +
                          std::to_string(line_number) + ": " + n.error() +
                          " (line: '" + line + "')");
        }
        // Under skip/repair a bad declaration is ignored; the node count
        // falls back to max endpoint + 1.
      }
      continue;
    }
    ++out.report.lines_read;
    // The gate counts a salvaged line as repaired; the declared-range check
    // below needs to know which edges were.
    const std::size_t repaired_before = out.report.lines_repaired;
    const auto packet = gate.accept(
        line_number, detail::parse_packet_line(body), body, line);
    if (!packet) continue;
    add_edge(*packet, line_number,
             out.report.lines_repaired != repaired_before);
  }
  if (have_declaration) {
    // Endpoints past the declaration are data errors discovered late; the
    // per-line accounting is unwound for each offending edge.  Only the
    // report is unwound: the ingest counters already recorded the line's
    // first disposition and stay monotone — the gate's drop() below adds
    // the reclassification as a separate event.
    std::vector<graph::Edge> in_range;
    in_range.reserve(edges.size());
    for (std::size_t i = 0; i < edges.size(); ++i) {
      if (edges[i].u < declared_nodes && edges[i].v < declared_nodes) {
        in_range.push_back(edges[i]);
        continue;
      }
      const std::string message =
          "endpoint " +
          std::to_string(std::max(edges[i].u, edges[i].v)) +
          " exceeds the declared node count " +
          std::to_string(declared_nodes);
      if (edge_was_repaired[i]) {
        --out.report.lines_repaired;
      } else {
        --out.report.records_kept;
      }
      gate.drop(edge_lines[i], message,
                std::to_string(edges[i].u) + " " +
                    std::to_string(edges[i].v));
    }
    edges = std::move(in_range);
  }
  const NodeId nodes =
      have_declaration ? declared_nodes
                       : (edges.empty() ? 0 : max_endpoint + 1);
  out.graph = graph::Graph(nodes, std::move(edges));
  return out;
}

graph::Graph read_edge_list(std::istream& in) {
  return read_edge_list(in, IngestOptions{}).graph;
}

}  // namespace palu::io
