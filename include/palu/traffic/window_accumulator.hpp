// Flat per-window accumulator: the one window accumulator of the
// library.  Every sweep (packet draws, count-space draws and store
// replay), serve's ingest thread, `analyze` and `capture` cut their
// windows into it; only `census`, which needs the window's graph, still
// builds a SparseCountMatrix.
//
// Two arena-reused open-addressing tables back the accumulator: a cell
// table over (src, dst) packet counts and a node table for per-endpoint
// marginals.  begin_window() retires the previous window by bumping an
// epoch stamp instead of clearing, so the Monte-Carlo sweep's thousands of
// windows reuse one allocation instead of churning the heap.  All six
// Quantity histograms come from a single unsorted pass over the live
// cells — no entries() copy+sort and no per-node peer sets — and produce
// histograms identical in content to quantity_histogram() on the
// equivalent SparseCountMatrix.
//
// Count-space windows (ingest_counts) skip the hash tables entirely: the
// generator already delivers one record per active unordered pair, so the
// accumulator keeps a flat view of the records and computes marginals in
// dense NodeId-indexed scratch arrays with touched-lists for O(active)
// reset.  When node ids are too sparse for dense indexing the records are
// replayed through the hash tables instead — slower, still exact.
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

  /// Starts a new window: drops all cells in O(1) (epoch bump) while
  /// keeping both tables' capacity for reuse.
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
  std::size_t nnz() const noexcept {
    return counts_mode_ ? counts_nnz_ : live_cells_.size();
  }

  /// Packet count of a specific link, 0 if absent.
  Count at(NodeId src, NodeId dst) const;

  /// Appends the current window's content to `out` as unordered-pair
  /// records with the lower endpoint in `u` (self-pairs all-forward),
  /// zero rows dropped — the capture-tee export for the columnar window
  /// store.  In hash mode a pair that saw both directions is emitted
  /// twice (once per live cell); order is unspecified.  Consumers that
  /// need canonical form (sorted, one record per pair) coalesce —
  /// ingest_counts cannot take this output directly.
  void export_counts(std::vector<EdgePacketCounts>& out) const;

  /// Histogram of one quantity over the current window, computed in a
  /// single unsorted pass; content-identical to quantity_histogram() on a
  /// SparseCountMatrix holding the same cells.  Non-const: reuses the node
  /// scratch table.
  stats::DegreeHistogram histogram(Quantity q);

 private:
  struct Cell {
    NodeId src;
    NodeId dst;
    Count count;
  };
  struct NodeSlot {
    NodeId id;
    Count packets;
    Count fan;
  };
  static constexpr std::size_t kNpos = ~std::size_t{0};

  static std::uint64_t mix_cell(NodeId src, NodeId dst) noexcept;
  static std::uint64_t mix_node(NodeId id) noexcept;

  std::size_t find_cell(NodeId src, NodeId dst) const noexcept;
  std::size_t find_or_insert_cell(NodeId src, NodeId dst);
  void grow_cells();

  void begin_node_pass();
  NodeSlot& node_slot(NodeId id);
  void grow_nodes();

  stats::DegreeHistogram histogram_counts(Quantity q);
  stats::DegreeHistogram emit_dense_nodes(bool want_packets);
  stats::DegreeHistogram drain_value_scratch();
  void add_value(Count v);

  // ---- cell table (open addressing, linear probing, epoch-stamped) ----
  std::vector<Cell> cells_;
  std::vector<std::uint32_t> cell_epoch_;
  std::vector<std::uint32_t> live_cells_;  // slot indices, insertion order
  std::uint32_t epoch_ = 1;
  std::size_t cell_mask_ = 0;  // capacity − 1 (capacity is a power of 2)
  std::size_t cell_grow_at_ = 0;
  Count total_ = 0;

  // ---- node scratch table (one histogram pass at a time) ----
  std::vector<NodeSlot> nodes_;
  std::vector<std::uint32_t> node_epoch_;
  std::vector<std::uint32_t> live_nodes_;
  std::uint32_t node_pass_ = 1;
  std::size_t node_mask_ = 0;
  std::size_t node_grow_at_ = 0;

  // ---- count-space window state (dense, hash-free) ----
  // Invariant between histogram passes: every entry of the dense arrays is
  // zero.  Node passes accumulate into the dense arrays, then one linear
  // emit over [0, counts_dense_nodes_) reads and re-zeroes them — a fixed
  // graph-sized sweep, so per-window cost does not track the active-node
  // count.  The value scratch keeps a touched-list because histogram
  // values are unbounded.
  //
  // A counts-mode window is one record view into caller-owned storage.
  std::span<const EdgePacketCounts> pairs_;
  bool counts_mode_ = false;
  std::size_t counts_nnz_ = 0;
  std::size_t counts_dense_nodes_ = 0;     // emit scan bound (max id + 1)
  std::vector<Count> node_packets_dense_;  // indexed by NodeId
  std::vector<Count> node_fan_dense_;      // indexed by NodeId
  std::vector<Count> value_count_;         // indexed by histogram value
  std::vector<Count> touched_values_;
  std::vector<Count> overflow_values_;     // values >= the dense cap
};

}  // namespace palu::traffic
