#pragma once

/// \file graph.hpp
/// Undirected simple graph used as the communication network and as the
/// problem instance for the general-graph problems (splitting, coloring,
/// MIS, sinkless orientation).
///
/// A Graph is one immutable CSR: n + 1 row offsets, the 2m flattened
/// adjacency rows and the m-entry edge list, behind one shared keepalive
/// that is either an owned buffer (built once from an edge list) or the
/// mmapped `.dsg` image (graph/format.hpp adopts it via `mapped`). Copies
/// share the storage, so copying a Graph is O(1) and a multi-gigabyte
/// mapped instance is shared read-only across forked worker processes.
///
/// Port invariant: rows are filled in edge order, so port p of node v (the
/// p-th entry of `neighbors(v)`) is v's p-th incident edge in `edges()`.
/// Port numbering, and with it every executor's output digest, depends only
/// on the edge list; the `.dsg` writer stores the rows exactly as built.

#include <cstdint>
#include <memory>
#include <span>
#include <utility>
#include <vector>

namespace ds::graph {

/// Node identifier: dense index in [0, num_nodes()).
using NodeId = std::uint32_t;

/// Undirected edge as an (endpoint, endpoint) pair with u <= v. The layout
/// is part of the on-disk `.dsg` format (graph/format.hpp).
struct Edge {
  NodeId u;
  NodeId v;

  friend bool operator==(const Edge&, const Edge&) = default;
};
static_assert(sizeof(Edge) == 8, "Edge layout is part of the .dsg format");

/// One node's adjacency row, valid as long as any Graph sharing its storage.
using NeighborView = std::span<const NodeId>;
/// The edge list in edge-id order.
using EdgeView = std::span<const Edge>;

/// Undirected simple graph (no self-loops, no parallel edges). Nodes are
/// dense indices; unique LOCAL-model IDs are assigned separately (see
/// local/ids.hpp) so experiments can control ID adversaries.
class Graph {
 public:
  /// The empty graph (no nodes).
  Graph() = default;

  /// Builds the CSR of the graph on `n` nodes whose edge i is `edges[i]`
  /// (stored as (min, max)). Throws CheckError on a self-loop, an endpoint
  /// >= n or a parallel edge. O(n + m); `edges` is adopted, not copied.
  explicit Graph(std::size_t n, std::vector<Edge> edges = {});

  /// Adopts an externally owned CSR image as the graph's storage. `offsets`
  /// has n + 1 entries with offsets[n] == 2m, `adjacency` the 2m flattened
  /// rows, `edges` the m edges; `keepalive` owns the backing memory
  /// (typically the mmap region). Only offsets[n] is validated here: the
  /// rows are checked where a run first walks them (local/topology.cpp).
  static Graph mapped(std::shared_ptr<const void> keepalive,
                      const std::uint64_t* offsets, const NodeId* adjacency,
                      const Edge* edges, std::size_t n, std::size_t m);

  /// True if {u, v} is an edge. O(min degree).
  [[nodiscard]] bool has_edge(NodeId u, NodeId v) const;

  [[nodiscard]] std::size_t num_nodes() const { return n_; }
  [[nodiscard]] std::size_t num_edges() const { return m_; }

  /// Neighbors of `v` in port (edge) order.
  [[nodiscard]] NeighborView neighbors(NodeId v) const;

  [[nodiscard]] std::size_t degree(NodeId v) const;

  /// Maximum degree Δ; 0 for the empty graph.
  [[nodiscard]] std::size_t max_degree() const;

  /// Minimum degree δ; 0 for the empty graph.
  [[nodiscard]] std::size_t min_degree() const;

  /// All edges, in edge-id order.
  [[nodiscard]] EdgeView edges() const { return {edges_, m_}; }

  /// The CSR row offsets (n + 1 entries, offsets()[n] == 2m): node v's
  /// ports are the flat slots [offsets()[v], offsets()[v + 1]).
  [[nodiscard]] std::span<const std::uint64_t> offsets() const {
    return {offsets_, n_ + 1};
  }

  /// Returns the subgraph induced by `nodes`, together with the mapping from
  /// new node ids to the original ids (`new -> old`).
  [[nodiscard]] std::pair<Graph, std::vector<NodeId>> induced_subgraph(
      const std::vector<NodeId>& nodes) const;

 private:
  static constexpr std::uint64_t kNoRows[1] = {0};

  std::shared_ptr<const void> keepalive_;
  const std::uint64_t* offsets_ = kNoRows;
  const NodeId* adjacency_ = nullptr;
  const Edge* edges_ = nullptr;
  std::size_t n_ = 0;
  std::size_t m_ = 0;
};

}  // namespace ds::graph
