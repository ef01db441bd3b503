// Plain-text packet traces: the library's ingestion path for real data.
//
// Format: one packet per line, "src dst" as unsigned 64-bit ids, blank
// lines and '#'-prefixed comments ignored.  This is the de-facto exchange
// format of anonymized flow logs once IPs are mapped to integer ids; a
// WIDE/CAIDA-style capture exported this way drops straight into the
// Section II window pipeline.
//
// There is one trace line parser, io::TraceTailReader (io/tail.hpp).
// read_trace feeds it the stream in 64 KiB chunks under its own reader
// label ("read_trace"); its streaming form hands each chunk's records to
// a sink as they are parsed, so a caller that cuts windows while reading
// (io::cut_windows) holds one open window however long the trace is.
//
// Real captures are noisy, so every reader takes a policy: under
// ErrorPolicy::kStrict (the IngestOptions default) the first malformed
// line throws; under kSkip malformed lines are counted and dropped, under
// kRepair the reader salvages the first two unsigned integer tokens it can
// find on the line (bit-flipped separators, glued third columns) and only
// drops lines with nothing salvageable.  Both enforce
// IngestOptions::max_bad_lines as an error budget.  The edge-list
// overload without options is exactly kStrict.
#pragma once

#include <istream>
#include <ostream>
#include <span>
#include <vector>

#include "palu/common/result.hpp"
#include "palu/graph/graph.hpp"
#include "palu/io/tail.hpp"
#include "palu/traffic/packet.hpp"

namespace palu::io {

/// Packets plus the structured account of what was read/dropped/repaired.
struct TraceReadResult {
  std::vector<traffic::Packet> packets;
  IngestReport report;
};

/// Policy-aware trace reader.  kStrict throws on the first malformed line;
/// kSkip and kRepair throw only when the error budget is exhausted.
TraceReadResult read_trace(std::istream& in, const IngestOptions& opts);

/// Streaming form of the policy-aware reader: same policy, errors and
/// accounting, but the accepted records go to `sink` as they are parsed
/// instead of into one vector.  Returns the ingest account.
IngestReport read_trace(std::istream& in, const IngestOptions& opts,
                        const RecordSink& sink);

/// Writes packets one per line, with a format header comment.
void write_trace(std::ostream& out, std::span<const traffic::Packet> pkts);

/// Writes a graph as "u v" edge lines, preceded by a "# nodes=N" directive
/// so isolated nodes survive the round trip.
void write_edge_list(std::ostream& out, const graph::Graph& g);

/// Parses an edge list.  A leading "# nodes=N" comment fixes the node
/// count; otherwise it is max endpoint + 1.  Throws palu::DataError on
/// malformed lines or endpoints out of the declared range.
graph::Graph read_edge_list(std::istream& in);

/// Graph plus the ingest account.  Under kSkip/kRepair, edges whose
/// endpoints exceed a "# nodes=N" declaration are dropped (and counted)
/// instead of aborting the parse.
struct EdgeListReadResult {
  graph::Graph graph;
  IngestReport report;
};

/// Policy-aware edge-list reader.
EdgeListReadResult read_edge_list(std::istream& in,
                                  const IngestOptions& opts);

}  // namespace palu::io
