// Generative sampling of PALU networks (Sections III and V).
//
// `generate_underlying` realizes the underlying network at a chosen node
// scale N: a zeta-degree core of ~C·N nodes, ~L·N leaves attached to core
// nodes, and ~U·N star hubs with Po(λ) leaves each.  `generate_observed`
// applies the Bernoulli(p) edge-retention step.  Node-id layout is
// contiguous per class so experiments can audit class membership.
#pragma once

#include <cstdint>

#include "palu/common/types.hpp"
#include "palu/core/params.hpp"
#include "palu/graph/graph.hpp"
#include "palu/rng/xoshiro.hpp"
#include "palu/stats/histogram.hpp"

namespace palu::core {

/// How leaves pick their core anchor.
enum class LeafAttachment {
  kPreferential,  // anchor ∝ core degree: produces "supernode leaves"
  kUniform,       // anchor uniform over core nodes
};

/// How the preferential-attachment core is realized.
enum class CoreKind {
  /// iid zeta(α) degrees wired by an erased configuration model — matches
  /// the paper's d^{−α}/ζ(α) degree law exactly for any α > 1.  Its
  /// fragments are then merged into one component by degree-preserving
  /// edge swaps, matching the connectedness of a true preferential-
  /// attachment core: left alone, iid-degree pairs would form spurious
  /// "unattached links" inside the core.
  kZetaConfiguration,
  /// Dorogovtsev–Mendes–Samukhin growth (attachment ∝ degree + a) with a
  /// chosen so the asymptotic exponent is α: a genuine growth process,
  /// connected by construction, valid for α ∈ (3 − m, ∞) ∩ (2, ∞).
  kDmsGrowth,
};

struct GeneratorOptions {
  CoreKind core_kind = CoreKind::kZetaConfiguration;
  /// Cap on a single core node's sampled degree; 0 = use core size − 1.
  /// (kZetaConfiguration only.)
  Degree core_dmax = 0;
  /// Edges brought by each newcomer (kDmsGrowth only).
  NodeId dms_edges_per_node = 2;
  LeafAttachment leaf_attachment = LeafAttachment::kPreferential;
};

/// A generated underlying network with its class layout.
struct UnderlyingNetwork {
  graph::Graph graph;
  NodeId core_begin = 0, core_end = 0;  // [begin, end) core node ids
  NodeId leaf_begin = 0, leaf_end = 0;  // leaf node ids
  NodeId hub_begin = 0, hub_end = 0;    // star hub ids
  // star leaves occupy [hub_end, graph.num_nodes())

  NodeId core_size() const { return core_end - core_begin; }
  NodeId leaf_size() const { return leaf_end - leaf_begin; }
  NodeId hub_size() const { return hub_end - hub_begin; }
};

/// Realizes the underlying network at node scale N (class counts are the
/// rounded C·N, L·N, U·N; star leaves are Poisson on top of these).
/// Requires params.validate() to pass and N large enough that the core has
/// >= 2 nodes.
UnderlyingNetwork generate_underlying(const PaluParams& params, NodeId n,
                                      Rng& rng,
                                      const GeneratorOptions& opts = {});

/// Bernoulli(p = params.window) edge retention over the underlying graph.
graph::Graph generate_observed(const UnderlyingNetwork& underlying,
                               const PaluParams& params, Rng& rng);

/// Convenience: underlying + observed in one step, returning the observed
/// degree histogram (degree-0 nodes dropped, as capture cannot see them).
stats::DegreeHistogram sample_observed_degrees(
    const PaluParams& params, NodeId n, Rng& rng,
    const GeneratorOptions& opts = {});

}  // namespace palu::core
