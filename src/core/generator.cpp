#include "palu/core/generator.hpp"

#include <algorithm>
#include <cmath>

#include "palu/common/error.hpp"
#include "palu/graph/generators.hpp"
#include "palu/rng/distributions.hpp"

namespace palu::core {

UnderlyingNetwork generate_underlying(const PaluParams& params, NodeId n,
                                      Rng& rng,
                                      const GeneratorOptions& opts) {
  params.validate();
  const auto count_of = [n](double fraction) {
    return static_cast<NodeId>(
        std::llround(fraction * static_cast<double>(n)));
  };
  const NodeId core_n = count_of(params.core);
  const NodeId leaf_n = count_of(params.leaves);
  const NodeId hub_n = count_of(params.hubs);
  PALU_CHECK(core_n >= 2, "generate_underlying: core too small at this N");

  UnderlyingNetwork net;
  if (opts.core_kind == CoreKind::kDmsGrowth) {
    // Attachment ∝ degree + a with a = (α − 3)·m yields exponent α.
    const double m = static_cast<double>(opts.dms_edges_per_node);
    const double a = (params.alpha - 3.0) * m;
    PALU_CHECK(a > -m,
               "generate_underlying: grown cores require alpha > 2 "
               "(attachment a = (alpha-3)*m must exceed -m)");
    net.graph = graph::dms_attachment(rng, core_n,
                                      opts.dms_edges_per_node, a);
  } else {
    const Degree dmax = opts.core_dmax > 0
                            ? opts.core_dmax
                            : static_cast<Degree>(core_n - 1);
    net.graph = graph::connect_by_edge_swap(
        rng, graph::zeta_degree_core(rng, core_n, params.alpha, dmax));
  }
  net.core_begin = 0;
  net.core_end = core_n;

  // Leaves: degree-1 nodes anchored to core nodes (Section III).  With
  // preferential attachment they pile onto supernodes, reproducing the
  // Fig-2 "supernode leaves" topology.
  net.leaf_begin = net.graph.add_nodes(leaf_n);
  net.leaf_end = net.leaf_begin + leaf_n;
  if (leaf_n > 0) {
    if (opts.leaf_attachment == LeafAttachment::kPreferential) {
      // Endpoint pool over core edges = degree-proportional anchor draw.
      const auto& edges = net.graph.edges();
      const std::size_t core_edges = edges.size();
      PALU_CHECK(core_edges > 0,
                 "generate_underlying: core has no edges to anchor leaves");
      for (NodeId leaf = net.leaf_begin; leaf < net.leaf_end; ++leaf) {
        const auto& e = edges[rng.uniform_index(core_edges)];
        const NodeId anchor = rng.bernoulli(0.5) ? e.u : e.v;
        net.graph.add_edge(leaf, anchor);
      }
    } else {
      for (NodeId leaf = net.leaf_begin; leaf < net.leaf_end; ++leaf) {
        net.graph.add_edge(leaf, rng.uniform_index(core_n));
      }
    }
  }

  // Star hubs with Po(λ) leaves each (Section V).
  net.hub_begin = net.graph.add_nodes(hub_n);
  net.hub_end = net.hub_begin + hub_n;
  for (NodeId hub = net.hub_begin; hub < net.hub_end; ++hub) {
    const std::uint64_t star_leaves =
        rng::sample_poisson(rng, params.lambda);
    if (star_leaves == 0) continue;
    const NodeId first = net.graph.add_nodes(star_leaves);
    for (std::uint64_t k = 0; k < star_leaves; ++k) {
      net.graph.add_edge(hub, first + k);
    }
  }
  return net;
}

graph::Graph generate_observed(const UnderlyingNetwork& underlying,
                               const PaluParams& params, Rng& rng) {
  return graph::bernoulli_edge_sample(rng, underlying.graph, params.window);
}

stats::DegreeHistogram sample_observed_degrees(
    const PaluParams& params, NodeId n, Rng& rng,
    const GeneratorOptions& opts) {
  const UnderlyingNetwork net = generate_underlying(params, n, rng, opts);
  const graph::Graph observed = generate_observed(net, params, rng);
  const auto degrees = observed.degrees();
  return stats::DegreeHistogram::from_degrees(degrees);
}

}  // namespace palu::core
