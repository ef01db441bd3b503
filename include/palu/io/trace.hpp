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
// label ("read_trace").  Its streaming form reads and parses on a reader
// thread of its own, at most one chunk ahead of the sink, and hands each
// chunk's records to the sink on the calling thread in stream order.  A
// caller that cuts windows while reading (io::cut_windows) therefore
// holds one open window however long the trace is, and cuts one chunk
// while the next is parsed.  A sink that throws stops the read:
// read_trace waits for the chunk in flight and rethrows the sink's
// exception.  Errors surface in stream order: a chunk's parse error
// reaches the caller only after the sink has taken every chunk before
// it, and a stream that fails mid-read is a DataError naming the byte
// offset, not an early end of the trace.
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
/// kSkip and kRepair throw only when the error budget is exhausted.  A
/// failed read throws under every policy and is not charged to the budget.
TraceReadResult read_trace(std::istream& in, const IngestOptions& opts);

/// Streaming form of the policy-aware reader: same policy, errors and
/// accounting, but the accepted records go to `sink` a chunk at a time,
/// on the calling thread, while the next chunk is parsed, instead of into
/// one vector.  Returns the ingest account.
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
