#include "reductions/sinkless.hpp"

#include "orient/sinkless.hpp"
#include "splitting/solver.hpp"
#include "support/check.hpp"

namespace ds::reductions {

namespace {

/// True if at least half of u's neighbors have a larger ID than u.
bool majority_larger(const graph::Graph& g,
                     const std::vector<std::uint64_t>& ids,
                     graph::NodeId u) {
  std::size_t larger = 0;
  for (graph::NodeId w : g.neighbors(u)) {
    if (ids[w] > ids[u]) ++larger;
  }
  return 2 * larger >= g.degree(u);
}

}  // namespace

graph::BipartiteGraph build_sinkless_instance(
    const graph::Graph& g, const std::vector<std::uint64_t>& ids) {
  DS_CHECK(ids.size() == g.num_nodes());
  std::vector<std::pair<graph::LeftId, graph::RightId>> edges;
  // Incident edge ids per node, one edge scan.
  std::vector<std::vector<std::size_t>> incident(g.num_nodes());
  for (std::size_t e = 0; e < g.num_edges(); ++e) {
    incident[g.edges()[e].u].push_back(e);
    incident[g.edges()[e].v].push_back(e);
  }
  for (graph::NodeId u = 0; u < g.num_nodes(); ++u) {
    const bool use_larger = majority_larger(g, ids, u);
    for (std::size_t e : incident[u]) {
      const graph::Edge& ed = g.edges()[e];
      const graph::NodeId other = ed.u == u ? ed.v : ed.u;
      const bool other_larger = ids[other] > ids[u];
      if (other_larger == use_larger) {
        edges.emplace_back(u, static_cast<graph::RightId>(e));
      }
    }
  }
  return graph::BipartiteGraph(g.num_nodes(), g.num_edges(), edges);
}

std::vector<bool> orientation_from_splitting(
    const graph::Graph& g, const splitting::Coloring& edge_colors,
    const std::vector<std::uint64_t>& ids) {
  DS_CHECK(edge_colors.size() == g.num_edges());
  std::vector<bool> toward_v(g.num_edges());
  for (std::size_t e = 0; e < g.num_edges(); ++e) {
    const graph::Edge& ed = g.edges()[e];
    const bool v_is_larger = ids[ed.v] > ids[ed.u];
    // Red: small ID -> large ID; blue: large ID -> small ID.
    const bool toward_larger = edge_colors[e] == splitting::Color::kRed;
    toward_v[e] = (toward_larger == v_is_larger);
  }
  return toward_v;
}

std::vector<bool> sinkless_via_weak_splitting(const graph::Graph& g, Rng& rng,
                                              local::CostMeter* meter,
                                              std::string* algorithm_used) {
  DS_CHECK_MSG(g.min_degree() >= 5,
               "Theorem 2.10's reduction requires min degree >= 5");
  // IDs: the node indices (any distinct assignment works; experiments vary
  // this through local::assign_ids upstream by permuting the graph).
  std::vector<std::uint64_t> ids(g.num_nodes());
  for (graph::NodeId v = 0; v < g.num_nodes(); ++v) ids[v] = v;

  const graph::BipartiteGraph b = build_sinkless_instance(g, ids);
  DS_CHECK(b.rank() <= 2);
  DS_CHECK(b.min_left_degree() >= 3);

  splitting::SolverOptions options;
  options.deterministic = false;
  splitting::SolveResult solved = splitting::solve_weak_splitting(b, options, rng);
  if (meter != nullptr) meter->merge_sequential(solved.meter);
  if (algorithm_used != nullptr) {
    *algorithm_used = splitting::algorithm_name(solved.algorithm);
  }

  const std::vector<bool> orientation =
      orientation_from_splitting(g, solved.colors, ids);
  DS_CHECK_MSG(orient::is_sinkless(g, orientation, /*min_degree=*/1),
               "reduction produced a sink — Figure 1 construction bug");
  return orientation;
}

}  // namespace ds::reductions
