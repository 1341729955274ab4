#pragma once

/// \file bipartite.hpp
/// Bipartite weak-splitting instances B = (U ∪ V, E).
///
/// Following the paper's conventions (Section 1.2): U is the *left* side of
/// constraint nodes, V the *right* side of variable nodes; δ and Δ denote
/// the minimum/maximum degree over U, and the *rank* r is the maximum degree
/// over V (the hypergraph view: U = vertices, V = hyperedges).
///
/// A BipartiteGraph *is* its unified graph: one CSR (graph.hpp) on
/// |U| + |V| nodes with left node u at vertex u and right node v at vertex
/// |U| + v, plus `nu` and one 2m-entry array naming the edge behind every
/// port. Edge e of B is edge e of `unified()`, and by the CSR's edge-order
/// port invariant `left_edges(u)[p]` is the edge on port p of u (likewise
/// on the right), so a loaded `.dsg` instance is adopted without a copy.

#include <cstdint>
#include <ranges>
#include <span>
#include <utility>
#include <vector>

#include "graph/graph.hpp"
#include "graph/multigraph.hpp"

namespace ds::graph {

/// Index of a node on the left (U) side.
using LeftId = std::uint32_t;
/// Index of a node on the right (V) side.
using RightId = std::uint32_t;

/// Maps a unified vertex back to its right-side index.
struct ToRightId {
  std::size_t nu;
  RightId operator()(NodeId w) const { return static_cast<RightId>(w - nu); }
};
/// Right neighbors of a left node: its unified row, shifted by |U|.
using RightNeighborView =
    std::ranges::transform_view<NeighborView, ToRightId>;

/// Bipartite graph with stable edge ids, the problem instance of every
/// splitting variant in the library. Simple: at most one edge per (u, v).
class BipartiteGraph {
 public:
  /// The empty instance.
  BipartiteGraph() = default;

  /// Builds the instance with `nu` left and `nv` right nodes whose edge e
  /// is `edges[e]` = (left, right). Throws CheckError on an endpoint out of
  /// range or a parallel edge.
  BipartiteGraph(std::size_t nu, std::size_t nv,
                 const std::vector<std::pair<LeftId, RightId>>& edges = {});

  [[nodiscard]] std::size_t num_left() const { return nu_; }
  [[nodiscard]] std::size_t num_right() const {
    return unified_.num_nodes() - nu_;
  }
  /// Total node count |U| + |V| — the `n` in the paper's bounds.
  [[nodiscard]] std::size_t num_nodes() const { return unified_.num_nodes(); }
  [[nodiscard]] std::size_t num_edges() const { return unified_.num_edges(); }

  /// Endpoints of edge `e` as (left, right).
  [[nodiscard]] std::pair<LeftId, RightId> endpoints(EdgeId e) const;

  /// Edge ids incident to left node `u`, in port order.
  [[nodiscard]] std::span<const EdgeId> left_edges(LeftId u) const;
  /// Edge ids incident to right node `v`, in port order.
  [[nodiscard]] std::span<const EdgeId> right_edges(RightId v) const;

  /// Right neighbors of left node `u`, in port order.
  [[nodiscard]] RightNeighborView left_neighbors(LeftId u) const;
  /// Left neighbors of right node `v`, in port order.
  [[nodiscard]] NeighborView right_neighbors(RightId v) const;

  [[nodiscard]] std::size_t left_degree(LeftId u) const;
  [[nodiscard]] std::size_t right_degree(RightId v) const;

  /// Minimum degree δ over U; 0 if U is empty.
  [[nodiscard]] std::size_t min_left_degree() const;
  /// Maximum degree Δ over U; 0 if U is empty.
  [[nodiscard]] std::size_t max_left_degree() const;
  /// Rank r: maximum degree over V; 0 if V is empty.
  [[nodiscard]] std::size_t rank() const;
  /// Minimum degree over V; 0 if V is empty.
  [[nodiscard]] std::size_t min_right_degree() const;

  /// True if edge (u, v) exists. O(min degree).
  [[nodiscard]] bool has_edge(LeftId u, RightId v) const;

  /// New instance with the same node sets keeping exactly the edges with
  /// keep[e] == true. Edge ids are renumbered; the returned vector maps
  /// new edge id -> old edge id.
  [[nodiscard]] std::pair<BipartiteGraph, std::vector<EdgeId>> filter_edges(
      const std::vector<bool>& keep) const;

  /// The unified simple graph on |U| + |V| nodes: left node u is vertex u,
  /// right node v is vertex num_left() + v. Used for LOCAL-model simulation
  /// and for coloring powers of B.
  [[nodiscard]] const Graph& unified() const { return unified_; }

  /// Vertex index of left node `u` in `unified()`.
  [[nodiscard]] NodeId unified_left(LeftId u) const {
    return static_cast<NodeId>(u);
  }
  /// Vertex index of right node `v` in `unified()`.
  [[nodiscard]] NodeId unified_right(RightId v) const {
    return static_cast<NodeId>(num_left() + v);
  }

 private:
  friend BipartiteGraph bipartite_from_unified(const Graph& g, std::size_t nu);

  /// Adopts `unified`, whose every edge must run from [0, nu) to [nu, n),
  /// and names the edge behind every port in one walk of the edge list.
  BipartiteGraph(Graph unified, std::size_t nu);

  Graph unified_;
  std::size_t nu_ = 0;
  /// port_edge_[unified().offsets()[x] + p] = the edge on port p of x.
  std::vector<EdgeId> port_edge_;
};

/// A connected component of a bipartite graph, as a standalone instance plus
/// the mappings back to the parent instance.
struct BipartiteComponent {
  BipartiteGraph graph;
  std::vector<LeftId> left_to_parent;    // component LeftId -> parent LeftId
  std::vector<RightId> right_to_parent;  // component RightId -> parent RightId
};

/// Splits `b` into connected components (isolated nodes are kept, each as a
/// singleton component only if `keep_isolated` is set).
std::vector<BipartiteComponent> connected_components(const BipartiteGraph& b,
                                                     bool keep_isolated = false);

}  // namespace ds::graph
