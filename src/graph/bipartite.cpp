#include "graph/bipartite.hpp"

#include <algorithm>
#include <queue>

#include "support/check.hpp"

namespace ds::graph {

namespace {

/// The unified CSR of an instance given by its (left, right) edge list.
Graph unify(std::size_t nu, std::size_t nv,
            const std::vector<std::pair<LeftId, RightId>>& edges) {
  std::vector<Edge> unified;
  unified.reserve(edges.size());
  for (const auto& [u, v] : edges) {
    DS_CHECK(u < nu && v < nv);
    unified.push_back({u, static_cast<NodeId>(nu + v)});
  }
  return Graph(nu + nv, std::move(unified));
}

}  // namespace

BipartiteGraph::BipartiteGraph(
    std::size_t nu, std::size_t nv,
    const std::vector<std::pair<LeftId, RightId>>& edges)
    : BipartiteGraph(unify(nu, nv, edges), nu) {}

BipartiteGraph::BipartiteGraph(Graph unified, std::size_t nu)
    : unified_(std::move(unified)), nu_(nu) {
  // The CSR's rows are in edge order, so walking the edge list with one
  // cursor per node meets every port exactly once. The walk checks each
  // cursor against its row end and each port against the stored row, so a
  // mapped image whose rows disagree with its edge list is rejected here.
  const std::span<const std::uint64_t> offsets = unified_.offsets();
  const std::size_t n = unified_.num_nodes();
  std::vector<std::uint64_t> cursor(n);
  for (std::size_t x = 0; x < n; ++x) {
    DS_CHECK_MSG(offsets[x] <= offsets[x + 1], "CSR offsets decrease");
    cursor[x] = offsets[x];
  }
  port_edge_.resize(2 * unified_.num_edges());
  auto name_port = [&](NodeId x, NodeId other, EdgeId e) {
    const std::uint64_t slot = cursor[x]++;
    DS_CHECK_MSG(slot < offsets[x + 1] &&
                     unified_.neighbors(x)[slot - offsets[x]] == other,
                 "CSR rows are not in edge order");
    port_edge_[slot] = e;
  };
  const EdgeView edges = unified_.edges();
  for (EdgeId e = 0; e < edges.size(); ++e) {
    name_port(edges[e].u, edges[e].v, e);
    name_port(edges[e].v, edges[e].u, e);
  }
}

std::pair<LeftId, RightId> BipartiteGraph::endpoints(EdgeId e) const {
  DS_CHECK(e < num_edges());
  const Edge& x = unified_.edges()[e];
  return {x.u, static_cast<RightId>(x.v - nu_)};
}

std::span<const EdgeId> BipartiteGraph::left_edges(LeftId u) const {
  DS_CHECK(u < nu_);
  return {port_edge_.data() + unified_.offsets()[u], unified_.degree(u)};
}

std::span<const EdgeId> BipartiteGraph::right_edges(RightId v) const {
  DS_CHECK(v < num_right());
  const NodeId x = unified_right(v);
  return {port_edge_.data() + unified_.offsets()[x], unified_.degree(x)};
}

RightNeighborView BipartiteGraph::left_neighbors(LeftId u) const {
  DS_CHECK(u < nu_);
  return RightNeighborView(unified_.neighbors(u), ToRightId{nu_});
}

NeighborView BipartiteGraph::right_neighbors(RightId v) const {
  DS_CHECK(v < num_right());
  return unified_.neighbors(unified_right(v));
}

std::size_t BipartiteGraph::left_degree(LeftId u) const {
  DS_CHECK(u < nu_);
  return unified_.degree(u);
}

std::size_t BipartiteGraph::right_degree(RightId v) const {
  DS_CHECK(v < num_right());
  return unified_.degree(unified_right(v));
}

std::size_t BipartiteGraph::min_left_degree() const {
  if (nu_ == 0) return 0;
  std::size_t d = left_degree(0);
  for (LeftId u = 1; u < nu_; ++u) d = std::min(d, left_degree(u));
  return d;
}

std::size_t BipartiteGraph::max_left_degree() const {
  std::size_t d = 0;
  for (LeftId u = 0; u < nu_; ++u) d = std::max(d, left_degree(u));
  return d;
}

std::size_t BipartiteGraph::rank() const {
  std::size_t d = 0;
  for (RightId v = 0; v < num_right(); ++v) d = std::max(d, right_degree(v));
  return d;
}

std::size_t BipartiteGraph::min_right_degree() const {
  if (num_right() == 0) return 0;
  std::size_t d = right_degree(0);
  for (RightId v = 1; v < num_right(); ++v) d = std::min(d, right_degree(v));
  return d;
}

bool BipartiteGraph::has_edge(LeftId u, RightId v) const {
  DS_CHECK(u < nu_ && v < num_right());
  return unified_.has_edge(u, unified_right(v));
}

std::pair<BipartiteGraph, std::vector<EdgeId>> BipartiteGraph::filter_edges(
    const std::vector<bool>& keep) const {
  DS_CHECK(keep.size() == num_edges());
  std::vector<std::pair<LeftId, RightId>> kept;
  std::vector<EdgeId> new_to_old;
  for (EdgeId e = 0; e < num_edges(); ++e) {
    if (keep[e]) {
      kept.push_back(endpoints(e));
      new_to_old.push_back(e);
    }
  }
  return {BipartiteGraph(num_left(), num_right(), kept),
          std::move(new_to_old)};
}

std::vector<BipartiteComponent> connected_components(const BipartiteGraph& b,
                                                     bool keep_isolated) {
  const std::size_t nu = b.num_left();
  const std::size_t nv = b.num_right();
  const Graph& g = b.unified();
  constexpr std::uint32_t kUnvisited = static_cast<std::uint32_t>(-1);
  // Component of every unified vertex: left u at u, right v at nu + v.
  std::vector<std::uint32_t> comp(nu + nv, kUnvisited);
  std::uint32_t num_components = 0;
  for (NodeId start = 0; start < nu + nv; ++start) {
    if (comp[start] != kUnvisited) continue;
    if (g.degree(start) == 0 && !keep_isolated) continue;
    const std::uint32_t c = num_components++;
    comp[start] = c;
    std::queue<NodeId> queue;
    queue.push(start);
    while (!queue.empty()) {
      const NodeId x = queue.front();
      queue.pop();
      for (const NodeId w : g.neighbors(x)) {
        if (comp[w] == kUnvisited) {
          comp[w] = c;
          queue.push(w);
        }
      }
    }
  }

  std::vector<BipartiteComponent> components(num_components);
  // local index of each parent node inside its component
  std::vector<std::uint32_t> local(nu + nv, kUnvisited);
  for (NodeId x = 0; x < nu + nv; ++x) {
    if (comp[x] == kUnvisited) continue;
    auto& members = x < nu ? components[comp[x]].left_to_parent
                           : components[comp[x]].right_to_parent;
    local[x] = static_cast<std::uint32_t>(members.size());
    members.push_back(x < nu ? x : static_cast<RightId>(x - nu));
  }
  std::vector<std::vector<std::pair<LeftId, RightId>>> edges(num_components);
  for (const Edge& e : g.edges()) {
    const std::uint32_t c = comp[e.u];
    DS_CHECK(c == comp[e.v]);
    edges[c].emplace_back(local[e.u], local[e.v]);
  }
  for (std::uint32_t c = 0; c < num_components; ++c) {
    components[c].graph =
        BipartiteGraph(components[c].left_to_parent.size(),
                       components[c].right_to_parent.size(), edges[c]);
  }
  return components;
}

}  // namespace ds::graph
