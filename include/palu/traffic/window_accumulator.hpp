// Flat per-window accumulator: the one window accumulator of the
// library.  Every sweep (packet draws, count-space draws and store
// replay), serve's ingest thread, `analyze` and `capture` cut their
// windows into it; only `census`, which needs the window's graph, still
// builds a SparseCountMatrix.
//
// A window is a set of unordered-pair records, EdgePacketCounts
// {u, v, forward, backward}: `forward` packets on (u, v) and `backward` on
// (v, u).  A packet window keeps them in one arena-reused open-addressing
// table keyed by (min, max) — add() picks the direction, and
// begin_window() retires the previous window by bumping an epoch stamp
// instead of clearing, so the Monte-Carlo sweep's thousands of windows
// reuse one allocation.  A count-space window (ingest_counts) is a view of
// the caller's records, which already hold one record per pair.
//
// histogram() is one kernel over the pair records for both kinds of
// window: link packets read each record's two directions, and the node
// quantities credit each record's endpoints — undirected degree once per
// endpoint, with no mirror lookup, since a record is its pair.  Node
// marginals accumulate in dense NodeId-indexed arrays whenever the largest
// id is within a fixed multiple of the record count (emitted by a linear
// sweep when the ids are dense in the records, through a touched list when
// they are not), and in a node hash table otherwise.  Every histogram is
// identical in content to quantity_histogram() on the SparseCountMatrix
// holding the same cells.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "palu/common/types.hpp"
#include "palu/stats/histogram.hpp"
#include "palu/traffic/packet.hpp"
#include "palu/traffic/quantities.hpp"

namespace palu::traffic {

class WindowAccumulator {
 public:
  WindowAccumulator();

  /// Starts a new window: drops all pairs in O(1) (epoch bump) while
  /// keeping the tables' capacity for reuse.
  void begin_window();

  /// Adds `count` packets on the (src, dst) link of the current window.
  void add(NodeId src, NodeId dst, Count count = 1);

  /// Accumulates a batch of packets.
  void add_packets(std::span<const Packet> packets);

  /// Hands the accumulator one whole count-space window (as produced by
  /// SyntheticTrafficGenerator::next_window_counts): one record per
  /// unordered pair, `forward` packets on (u, v) and `backward` on (v, u).
  /// Records with forward == backward == 0 are permitted (the generator
  /// emits its full support each window so loop sizes stay N_V-independent)
  /// and contribute nothing to any histogram or marginal.  Pairs must be
  /// unique.  Call once per window, right after begin_window(), and do not
  /// mix with add()/add_packets() in the same window.  `pairs` must stay
  /// valid until the next begin_window() — the accumulator keeps a view,
  /// not a copy.
  void ingest_counts(std::span<const EdgePacketCounts> pairs);

  /// Σ_ij A_t(i, j): total packets in the current window.
  Count total() const noexcept { return total_; }

  /// Number of live (src, dst) cells (the nnz of A_t).
  std::size_t nnz() const noexcept { return nnz_; }

  /// Packet count of a specific link, 0 if absent.
  Count at(NodeId src, NodeId dst) const;

  /// Appends the current window's content to `out`, one record per
  /// unordered pair that saw traffic (zero rows dropped) — the
  /// capture-tee export for the columnar window store.  A packet window's
  /// records carry the lower endpoint in `u` (self-pairs all-forward); a
  /// count-space window's are the ingested records.  Order is
  /// unspecified; the store writer sorts.
  void export_counts(std::vector<EdgePacketCounts>& out) const;

  /// Histogram of one quantity over the current window, computed in a
  /// single unsorted pass over the pair records; content-identical to
  /// quantity_histogram() on a SparseCountMatrix holding the same cells.
  /// Non-const: reuses the node and value scratch.
  stats::DegreeHistogram histogram(Quantity q);

 private:
  struct Slot {
    std::uint32_t epoch;
    std::uint32_t index;  // into live_
  };
  struct NodeSlot {
    NodeId id;
    Count packets;
    Count fan;
  };

  std::span<const EdgePacketCounts> records() const noexcept;
  std::size_t probe(NodeId u, NodeId v) const noexcept;
  void grow_pairs();

  void begin_node_pass();
  NodeSlot& node_slot(NodeId id);
  void grow_nodes();

  void add_value(Count v);
  stats::DegreeHistogram drain_value_scratch();

  // ---- pair table (open addressing, linear probing, epoch-stamped) ----
  // A packet window's records live in live_, in insertion order; a slot
  // whose epoch is current indexes one of them.
  std::vector<EdgePacketCounts> live_;
  std::vector<Slot> slots_;
  std::uint32_t epoch_ = 1;
  std::size_t slot_mask_ = 0;  // capacity − 1 (capacity is a power of 2)

  // ---- the current window, either kind ----
  std::span<const EdgePacketCounts> pairs_;  // count-space view
  bool counts_mode_ = false;
  Count total_ = 0;
  std::size_t nnz_ = 0;
  NodeId max_id_ = 0;  // largest endpoint of any record

  // ---- node scratch table (sparse ids; one histogram pass at a time) ----
  std::vector<NodeSlot> nodes_;
  std::vector<std::uint32_t> node_epoch_;
  std::vector<std::uint32_t> live_nodes_;
  std::uint32_t node_pass_ = 1;
  std::size_t node_mask_ = 0;
  std::size_t node_grow_at_ = 0;

  // ---- dense marginal and value scratch ----
  // Invariant between histogram passes: every entry of the dense arrays is
  // zero.  They grow lazily to the largest id a dense pass has seen, and
  // the packet array only when a packet quantity is asked for.  A fan
  // counts records (< 2^32).  The value scratch keeps a touched list
  // because histogram values are unbounded.
  std::vector<std::uint32_t> node_fan_;  // indexed by NodeId
  std::vector<Count> node_packets_;      // indexed by NodeId
  std::vector<NodeId> touched_nodes_;
  std::vector<Count> value_count_;       // indexed by histogram value
  std::vector<Count> touched_values_;
  std::vector<Count> overflow_values_;   // values >= the dense cap
};

}  // namespace palu::traffic
