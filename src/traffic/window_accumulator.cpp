#include "palu/traffic/window_accumulator.hpp"

#include <algorithm>

#include "palu/common/error.hpp"

namespace palu::traffic {

namespace {
constexpr std::size_t kInitialCapacity = std::size_t{1} << 10;
// Slots and live-node lists hold 32-bit indices, so tables cap at 2^32
// slots and a window at 2^32 records (which also bounds every fan).
constexpr std::size_t kMaxCapacity = std::size_t{1} << 32;
// Node marginals use the dense NodeId-indexed arrays while the largest id
// stays below kDenseNodeFactor × records + kDenseNodeFloor; sparser ids
// take the node table.  A 20000-packet window of the 150k-node bench
// trace holds ~15.9k pairs over ids up to ~149.7k (9.4× its records).
constexpr std::size_t kDenseNodeFactor = 16;
constexpr std::size_t kDenseNodeFloor = 4096;
// A dense pass emits by a linear sweep of [0, max id] when that range is
// within kSweepFactor × records, and through the touched-node list
// otherwise.  On the bench law the list wins on 20000- and 100000-packet
// windows (ranges 9.8× and 2.7× their records), the sweep on the sweep's
// 1e6-packet counts windows (0.96×), and the two tie near 1.3×.
constexpr std::size_t kSweepFactor = 2;
// Histogram values below this accumulate in a dense value-indexed array;
// rarer larger values (a single pair can carry ~N_V packets) go through a
// small overflow list so the scratch never balloons.
constexpr Count kDenseValueCap = Count{1} << 22;

std::uint64_t mix_pair(NodeId u, NodeId v) noexcept {
  std::uint64_t h = u * 0x9e3779b97f4a7c15ULL;
  h ^= v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
  // murmur3 finalizer: linear probing needs well-mixed low bits.
  h ^= h >> 33;
  h *= 0xff51afd7ed558ccdULL;
  h ^= h >> 33;
  h *= 0xc4ceb9fe1a85ec53ULL;
  h ^= h >> 33;
  return h;
}

std::uint64_t mix_node(NodeId id) noexcept {
  std::uint64_t h = id + 0x9e3779b97f4a7c15ULL;
  h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9ULL;
  h = (h ^ (h >> 27)) * 0x94d049bb133111ebULL;
  return h ^ (h >> 31);
}

/// Calls credit(node, packets) once per (node, directed cell) incidence of
/// quantity q — the cell's source for the source quantities, its
/// destination for the destination ones — or, for undirected degree,
/// credit(endpoint, 0) once per endpoint of every non-self pair that saw
/// traffic.  A record is its pair, so no pair is credited twice.
template <class Credit>
void credit_nodes(std::span<const EdgePacketCounts> records, Quantity q,
                  Credit&& credit) {
  if (q == Quantity::kUndirectedDegree) {
    for (const EdgePacketCounts& r : records) {
      if (r.u == r.v || (r.forward | r.backward) == 0) continue;
      credit(r.u, Count{0});
      credit(r.v, Count{0});
    }
    return;
  }
  const bool source =
      q == Quantity::kSourcePackets || q == Quantity::kSourceFanOut;
  for (const EdgePacketCounts& r : records) {
    if (r.forward > 0) credit(source ? r.u : r.v, r.forward);
    if (r.backward > 0) credit(source ? r.v : r.u, r.backward);
  }
}
}  // namespace

WindowAccumulator::WindowAccumulator() {
  slots_.assign(kInitialCapacity, Slot{0, 0});
  slot_mask_ = kInitialCapacity - 1;
  nodes_.resize(kInitialCapacity);
  node_epoch_.assign(kInitialCapacity, 0);
  node_mask_ = kInitialCapacity - 1;
  node_grow_at_ = kInitialCapacity - kInitialCapacity / 4;
}

void WindowAccumulator::begin_window() {
  live_.clear();
  pairs_ = {};
  counts_mode_ = false;
  total_ = 0;
  nnz_ = 0;
  max_id_ = 0;
  if (++epoch_ == 0) {
    // The 32-bit stamp wrapped: stamps from 2^32 windows ago could alias
    // the new epoch, so take the rare O(capacity) clear.
    std::fill(slots_.begin(), slots_.end(), Slot{0, 0});
    epoch_ = 1;
  }
}

inline std::size_t WindowAccumulator::probe(NodeId u,
                                            NodeId v) const noexcept {
  // The slot holding (u, v)'s record, else the free slot it would take.
  std::size_t i = mix_pair(u, v) & slot_mask_;
  while (slots_[i].epoch == epoch_) {
    const EdgePacketCounts& r = live_[slots_[i].index];
    if (r.u == u && r.v == v) break;
    i = (i + 1) & slot_mask_;
  }
  return i;
}

void WindowAccumulator::add(NodeId src, NodeId dst, Count count) {
  if (count == 0) return;
  if (4 * live_.size() >= 3 * (slot_mask_ + 1)) grow_pairs();
  const bool forward = src <= dst;
  const NodeId u = forward ? src : dst;
  const NodeId v = forward ? dst : src;
  Slot& slot = slots_[probe(u, v)];
  if (slot.epoch != epoch_) {
    slot = Slot{epoch_, static_cast<std::uint32_t>(live_.size())};
    live_.push_back(EdgePacketCounts{u, v, 0, 0});
    max_id_ = std::max(max_id_, v);
  }
  // A packet's direction is a coin flip, so pick its cell without a
  // branch the predictor would miss half the time.
  EdgePacketCounts& r = live_[slot.index];
  Count* const cells[2] = {&r.backward, &r.forward};
  Count* const cell = cells[forward];
  nnz_ += *cell == 0;
  *cell += count;
  total_ += count;
}

void WindowAccumulator::add_packets(std::span<const Packet> packets) {
  for (const Packet& p : packets) add(p.src, p.dst);
}

void WindowAccumulator::grow_pairs() {
  const std::size_t new_capacity = (slot_mask_ + 1) * 2;
  PALU_CHECK(new_capacity <= kMaxCapacity,
             "WindowAccumulator: pair table exceeds 2^32 slots");
  slots_.assign(new_capacity, Slot{0, 0});
  slot_mask_ = new_capacity - 1;
  epoch_ = 1;
  for (std::size_t i = 0; i < live_.size(); ++i) {
    slots_[probe(live_[i].u, live_[i].v)] =
        Slot{epoch_, static_cast<std::uint32_t>(i)};
  }
}

void WindowAccumulator::ingest_counts(std::span<const EdgePacketCounts> pairs) {
  PALU_CHECK(pairs.size() < kMaxCapacity,
             "WindowAccumulator: window exceeds 2^32 pair records");
  counts_mode_ = true;
  pairs_ = pairs;
  Count total = 0;
  std::size_t nnz = 0;
  NodeId max_id = 0;
  for (const EdgePacketCounts& pc : pairs) {
    total += pc.forward + pc.backward;
    nnz += static_cast<std::size_t>(pc.forward > 0) +
           static_cast<std::size_t>(pc.backward > 0);
    max_id = std::max({max_id, pc.u, pc.v});
  }
  total_ = total;
  nnz_ = nnz;
  max_id_ = max_id;
}

std::span<const EdgePacketCounts> WindowAccumulator::records()
    const noexcept {
  return counts_mode_ ? pairs_ : std::span<const EdgePacketCounts>(live_);
}

void WindowAccumulator::export_counts(
    std::vector<EdgePacketCounts>& out) const {
  for (const EdgePacketCounts& r : records()) {
    if ((r.forward | r.backward) != 0) out.push_back(r);
  }
}

Count WindowAccumulator::at(NodeId src, NodeId dst) const {
  const EdgePacketCounts* r = nullptr;
  if (counts_mode_) {
    // Cold path (tests, spot checks): one scan over the unique pairs.
    for (const EdgePacketCounts& pc : pairs_) {
      if ((pc.u == src && pc.v == dst) || (pc.u == dst && pc.v == src)) {
        r = &pc;
        break;
      }
    }
  } else {
    const Slot& slot = slots_[probe(std::min(src, dst), std::max(src, dst))];
    if (slot.epoch == epoch_) r = &live_[slot.index];
  }
  if (r == nullptr) return 0;
  return r->u == src ? r->forward : r->backward;
}

void WindowAccumulator::begin_node_pass() {
  live_nodes_.clear();
  if (++node_pass_ == 0) {
    std::fill(node_epoch_.begin(), node_epoch_.end(), 0u);
    node_pass_ = 1;
  }
}

WindowAccumulator::NodeSlot& WindowAccumulator::node_slot(NodeId id) {
  if (live_nodes_.size() >= node_grow_at_) grow_nodes();
  std::size_t i = mix_node(id) & node_mask_;
  for (;;) {
    if (node_epoch_[i] != node_pass_) {
      node_epoch_[i] = node_pass_;
      nodes_[i] = NodeSlot{id, 0, 0};
      live_nodes_.push_back(static_cast<std::uint32_t>(i));
      return nodes_[i];
    }
    if (nodes_[i].id == id) return nodes_[i];
    i = (i + 1) & node_mask_;
  }
}

void WindowAccumulator::grow_nodes() {
  const std::size_t new_capacity = (node_mask_ + 1) * 2;
  PALU_CHECK(new_capacity <= kMaxCapacity,
             "WindowAccumulator: node table exceeds 2^32 slots");
  std::vector<NodeSlot> live;
  live.reserve(live_nodes_.size());
  for (const std::uint32_t slot : live_nodes_) live.push_back(nodes_[slot]);
  nodes_.assign(new_capacity, NodeSlot{});
  node_epoch_.assign(new_capacity, 0u);
  node_mask_ = new_capacity - 1;
  node_grow_at_ = new_capacity - new_capacity / 4;
  node_pass_ = 1;
  live_nodes_.clear();
  for (const NodeSlot& n : live) node_slot(n.id) = n;
}

void WindowAccumulator::add_value(Count v) {
  if (v >= kDenseValueCap) {
    overflow_values_.push_back(v);
    return;
  }
  if (v >= value_count_.size()) {
    value_count_.resize(std::max<std::size_t>(v + 1, value_count_.size() * 2),
                        0);
  }
  if (value_count_[v]++ == 0) touched_values_.push_back(v);
}

stats::DegreeHistogram WindowAccumulator::drain_value_scratch() {
  stats::DegreeHistogram h;
  for (const Count v : touched_values_) {
    h.add(v, value_count_[v]);
    value_count_[v] = 0;
  }
  touched_values_.clear();
  for (const Count v : overflow_values_) h.add(v);
  overflow_values_.clear();
  return h;
}

stats::DegreeHistogram WindowAccumulator::histogram(Quantity q) {
  const std::span<const EdgePacketCounts> recs = records();
  if (q == Quantity::kLinkPackets) {
    for (const EdgePacketCounts& r : recs) {
      if (r.forward > 0) add_value(r.forward);
      if (r.backward > 0) add_value(r.backward);
    }
    return drain_value_scratch();
  }
  const bool want_packets =
      q == Quantity::kSourcePackets || q == Quantity::kDestinationPackets;
  // No overflow on either side: records are fewer than 2^32.
  if (max_id_ >= kDenseNodeFactor * recs.size() + kDenseNodeFloor) {
    begin_node_pass();
    credit_nodes(recs, q, [this](NodeId id, Count packets) {
      NodeSlot& n = node_slot(id);
      n.packets += packets;
      ++n.fan;
    });
    for (const std::uint32_t slot : live_nodes_) {
      add_value(want_packets ? nodes_[slot].packets : nodes_[slot].fan);
    }
    return drain_value_scratch();
  }
  const std::size_t dense = static_cast<std::size_t>(max_id_) + 1;
  if (node_fan_.size() < dense) node_fan_.resize(dense, 0);
  if (want_packets && node_packets_.size() < dense) {
    node_packets_.resize(dense, 0);
  }
  std::uint32_t* fan = node_fan_.data();
  Count* packets = node_packets_.data();
  const auto emit = [&](std::size_t id) {
    add_value(want_packets ? packets[id] : fan[id]);
    fan[id] = 0;
    if (want_packets) packets[id] = 0;
  };
  if (max_id_ < kSweepFactor * recs.size()) {
    // A short id range: sweep it.  Every pass increments fan when it
    // credits a node, so fan > 0 marks exactly the touched nodes.
    credit_nodes(recs, q, [&](NodeId id, Count p) {
      ++fan[id];
      if (want_packets) packets[id] += p;
    });
    for (std::size_t id = 0; id < dense; ++id) {
      if (fan[id] != 0) emit(id);
    }
  } else {
    // A record credits at most two nodes.  Every credit writes its id to
    // the next list slot and only a first touch advances the list, so no
    // credit branches on a node being new (three in four of a serve
    // window's credits are, one in four not).
    if (touched_nodes_.size() < 2 * recs.size()) {
      touched_nodes_.resize(2 * recs.size());
    }
    NodeId* touched = touched_nodes_.data();
    std::size_t n_touched = 0;
    credit_nodes(recs, q, [&](NodeId id, Count p) {
      touched[n_touched] = id;
      n_touched += fan[id]++ == 0;
      if (want_packets) packets[id] += p;
    });
    for (std::size_t i = 0; i < n_touched; ++i) emit(touched[i]);
  }
  return drain_value_scratch();
}

}  // namespace palu::traffic
