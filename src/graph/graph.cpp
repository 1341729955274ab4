#include "graph/graph.hpp"

#include <algorithm>

#include "support/check.hpp"

namespace ds::graph {

namespace {

/// The storage a Graph built from an edge list owns.
struct OwnedCsr {
  std::vector<std::uint64_t> offsets;
  std::vector<NodeId> adjacency;
  std::vector<Edge> edges;
};

}  // namespace

Graph::Graph(std::size_t n, std::vector<Edge> edges)
    : n_(n), m_(edges.size()) {
  DS_CHECK_MSG(n <= static_cast<std::size_t>(NodeId(-1)),
               "node count exceeds the 32-bit NodeId space");
  auto csr = std::make_shared<OwnedCsr>();
  std::vector<std::uint64_t>& offsets = csr->offsets;
  offsets.assign(n + 1, 0);
  for (Edge& e : edges) {
    DS_CHECK_MSG(e.u != e.v, "self-loops are not allowed in Graph");
    DS_CHECK(e.u < n && e.v < n);
    if (e.u > e.v) std::swap(e.u, e.v);
    ++offsets[e.u + 1];
    ++offsets[e.v + 1];
  }
  for (std::size_t v = 0; v < n; ++v) offsets[v + 1] += offsets[v];

  // Counting pass in edge order: port p of v is v's p-th edge.
  csr->adjacency.resize(2 * m_);
  std::vector<std::uint64_t> cursor(offsets.begin(), offsets.end() - 1);
  for (const Edge& e : edges) {
    csr->adjacency[cursor[e.u]++] = e.v;
    csr->adjacency[cursor[e.v]++] = e.u;
  }

  // One stamp pass finds parallel edges: seen[w] == v iff w already
  // appeared in row v.
  std::vector<NodeId> seen(n, NodeId(-1));
  for (NodeId v = 0; v < n; ++v) {
    for (std::uint64_t i = offsets[v]; i < offsets[v + 1]; ++i) {
      const NodeId w = csr->adjacency[i];
      DS_CHECK_MSG(seen[w] != v, "parallel edges are not allowed in Graph");
      seen[w] = v;
    }
  }

  csr->edges = std::move(edges);
  offsets_ = csr->offsets.data();
  adjacency_ = csr->adjacency.data();
  edges_ = csr->edges.data();
  keepalive_ = std::move(csr);
}

Graph Graph::mapped(std::shared_ptr<const void> keepalive,
                    const std::uint64_t* offsets, const NodeId* adjacency,
                    const Edge* edges, std::size_t n, std::size_t m) {
  DS_CHECK_MSG(keepalive != nullptr,
               "mapped graph requires an owning keepalive handle");
  DS_CHECK(offsets != nullptr);
  DS_CHECK_MSG(offsets[n] == 2 * static_cast<std::uint64_t>(m),
               "mapped CSR offsets do not sum to 2m directed ports");
  Graph g;
  g.keepalive_ = std::move(keepalive);
  g.offsets_ = offsets;
  g.adjacency_ = adjacency;
  g.edges_ = edges;
  g.n_ = n;
  g.m_ = m;
  return g;
}

bool Graph::has_edge(NodeId u, NodeId v) const {
  DS_CHECK(u < num_nodes() && v < num_nodes());
  const NeighborView a = degree(u) <= degree(v) ? neighbors(u) : neighbors(v);
  const NodeId target = degree(u) <= degree(v) ? v : u;
  return std::find(a.begin(), a.end(), target) != a.end();
}

NeighborView Graph::neighbors(NodeId v) const {
  DS_CHECK(v < num_nodes());
  return {adjacency_ + offsets_[v],
          static_cast<std::size_t>(offsets_[v + 1] - offsets_[v])};
}

std::size_t Graph::degree(NodeId v) const {
  DS_CHECK(v < num_nodes());
  return static_cast<std::size_t>(offsets_[v + 1] - offsets_[v]);
}

std::size_t Graph::max_degree() const {
  std::size_t d = 0;
  for (NodeId v = 0; v < num_nodes(); ++v) d = std::max(d, degree(v));
  return d;
}

std::size_t Graph::min_degree() const {
  const std::size_t n = num_nodes();
  if (n == 0) return 0;
  std::size_t d = degree(0);
  for (NodeId v = 1; v < n; ++v) d = std::min(d, degree(v));
  return d;
}

std::pair<Graph, std::vector<NodeId>> Graph::induced_subgraph(
    const std::vector<NodeId>& nodes) const {
  std::vector<NodeId> old_to_new(num_nodes(), static_cast<NodeId>(-1));
  std::vector<NodeId> new_to_old;
  new_to_old.reserve(nodes.size());
  for (NodeId v : nodes) {
    DS_CHECK(v < num_nodes());
    DS_CHECK_MSG(old_to_new[v] == static_cast<NodeId>(-1),
                 "duplicate node in induced_subgraph");
    old_to_new[v] = static_cast<NodeId>(new_to_old.size());
    new_to_old.push_back(v);
  }
  std::vector<Edge> kept;
  for (const Edge& e : edges()) {
    const NodeId nu = old_to_new[e.u];
    const NodeId nv = old_to_new[e.v];
    if (nu != static_cast<NodeId>(-1) && nv != static_cast<NodeId>(-1)) {
      kept.push_back({nu, nv});
    }
  }
  return {Graph(new_to_old.size(), std::move(kept)), std::move(new_to_old)};
}

}  // namespace ds::graph
